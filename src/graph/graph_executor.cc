#include "graph/graph_executor.h"

#include <algorithm>
#include <chrono>
#include <unordered_map>
#include <unordered_set>

#include <regex>

#include "engine/data_query.h"
#include "engine/dependency.h"
#include "engine/projector.h"
#include "query/parser.h"

namespace aiql {

namespace {

using Clock = std::chrono::steady_clock;

// SQL LIKE -> case-insensitive regex source (same conversion the Cypher
// generator emits as '=~ (?i)...').
std::string LikeToRegexSource(const std::string& pattern) {
  std::string out;
  for (char c : pattern) {
    if (c == '%') {
      out += ".*";
    } else if (c == '_') {
      out += '.';
    } else if (std::string(".\\+*?[^]$(){}=!<>|:-#").find(c) !=
               std::string::npos) {
      out += '\\';
      out += c;
    } else {
      out += c;
    }
  }
  return out;
}

/// Property filters for one side of a pattern, evaluated the way a Cypher
/// runtime evaluates them: string predicates are (java-style) regex matches
/// against property values fetched per row — no index, no interning
/// shortcut; numeric predicates are plain comparisons.
struct CypherSideFilter {
  EntityType type = EntityType::kProcess;
  // (attribute, compiled regex, negate).
  std::vector<std::tuple<std::string, std::regex, bool>> regexes;
  std::vector<CompiledPredicate> numeric;

  void Compile(const EntityFilter& filter) {
    type = filter.type;
    for (const CompiledPredicate& pred : filter.predicates) {
      if (pred.kind == AttrKind::kString) {
        bool negate = pred.op == CmpOp::kNe;
        std::string source;
        for (const LikeMatcher& matcher : pred.matchers) {
          if (!source.empty()) source += "|";
          source += LikeToRegexSource(matcher.pattern());
        }
        regexes.emplace_back(pred.attr,
                             std::regex(source, std::regex::icase),
                             negate);
      } else {
        numeric.push_back(pred);
      }
    }
  }

  bool Matches(const EntityStore& store, const Projector& projector,
               EntityId id) const {
    for (const auto& [attr, regex, negate] : regexes) {
      Value value = projector.EntityAttr(type, id, attr);
      const std::string* text = std::get_if<std::string>(&value);
      if (text == nullptr) return false;
      bool hit = std::regex_match(*text, regex);
      if (hit == negate) return false;
    }
    if (!numeric.empty() &&
        !EntityMatchesPredicates(store, type, id, numeric)) {
      return false;
    }
    return true;
  }
};

}  // namespace

Result<QueryResult> GraphExecutor::Execute(const AnalyzedQuery& analyzed) {
  const MultieventQueryAst& ast = *analyzed.ast;
  if (ast.is_anomaly()) {
    return Status::Unimplemented(
        "the graph baseline does not evaluate anomaly queries");
  }

  QueryResult result;
  QueryStats& stats = result.stats;
  stats.patterns = static_cast<int>(ast.patterns.size());
  result.plan = "graph traversal in query order (single-threaded)";

  auto plan_start = Clock::now();
  AIQL_ASSIGN_OR_RETURN(std::vector<CompiledPattern> patterns,
                        CompilePatterns(analyzed, graph_->entities()));
  stats.plan_time = std::chrono::duration_cast<std::chrono::microseconds>(
                        Clock::now() - plan_start)
                        .count();

  auto exec_start = Clock::now();

  // Column names.
  for (const ReturnItemAst& item : ast.return_items) {
    if (!item.alias.empty()) {
      result.table.columns.push_back(item.alias);
    } else if (const auto* ref = std::get_if<AttrRefAst>(&item.expr)) {
      result.table.columns.push_back(ref->ToString());
    } else {
      result.table.columns.push_back("agg");
    }
  }

  const int num_patterns = static_cast<int>(patterns.size());
  Projector projector(graph_->entities(), analyzed);
  // Cypher-style property filters (regex per row; see CypherSideFilter).
  std::vector<CypherSideFilter> subject_filters(num_patterns);
  std::vector<CypherSideFilter> object_filters(num_patterns);
  for (int i = 0; i < num_patterns; ++i) {
    subject_filters[i].Compile(patterns[i].subject);
    object_filters[i].Compile(patterns[i].object);
  }
  std::vector<const Event*> assignment(num_patterns, nullptr);
  std::unordered_map<std::string, NodeId> node_bindings;
  std::unordered_set<std::string> distinct_rows;
  bool limit_reached = false;

  auto relations_ok = [&](int pattern_index) {
    for (const TemporalRelAst& rel : ast.temporal_rels) {
      int left = analyzed.event_index.at(rel.left);
      int right = analyzed.event_index.at(rel.right);
      if (left != pattern_index && right != pattern_index) continue;
      if (assignment[left] == nullptr || assignment[right] == nullptr) {
        continue;
      }
      const Event& l = *assignment[left];
      const Event& r = *assignment[right];
      bool holds = rel.before ? TemporalHolds(l.end_ts, r.start_ts, rel.within)
                              : TemporalHolds(r.end_ts, l.start_ts, rel.within);
      if (!holds) return false;
    }
    for (const AttrRelAst& rel : ast.attr_rels) {
      auto pattern_of = [&](const AttrRefAst& ref) -> int {
        auto it = analyzed.event_index.find(ref.var);
        if (it != analyzed.event_index.end()) return it->second;
        return analyzed.entity_occurrences.at(ref.var).front().pattern;
      };
      int lp = pattern_of(rel.left);
      int rp = pattern_of(rel.right);
      if (assignment[lp] == nullptr || assignment[rp] == nullptr) continue;
      if (lp != pattern_index && rp != pattern_index) continue;
      Value left = projector.Resolve(rel.left, assignment);
      Value right = projector.Resolve(rel.right, assignment);
      if (!CompareValues(left, rel.op, right)) return false;
    }
    return true;
  };

  auto emit = [&] {
    std::vector<Value> row;
    row.reserve(ast.return_items.size());
    for (const ReturnItemAst& item : ast.return_items) {
      const auto& ref = std::get<AttrRefAst>(item.expr);
      row.push_back(projector.Resolve(ref, assignment));
    }
    if (ast.distinct) {
      std::string key;
      for (const Value& value : row) {
        key += ValueToString(value);
        key += '\x1f';
      }
      if (!distinct_rows.insert(key).second) return;
    }
    result.table.rows.push_back(std::move(row));
    if (ast.order_by.empty() && ast.limit.has_value() &&
        result.table.rows.size() >= static_cast<size_t>(*ast.limit)) {
      limit_reached = true;
    }
  };

  // Checks one edge against pattern `i` and the current bindings; on match,
  // binds and recurses.
  auto match = [&](auto&& self, int i) -> void {
    if (limit_reached) return;
    if (i == num_patterns) {
      emit();
      return;
    }
    const CompiledPattern& pattern = patterns[i];
    const EventPatternAst& pattern_ast = ast.patterns[i];

    const std::string& subj_var = pattern_ast.subject.var;
    const std::string& obj_var = pattern_ast.object.var;
    auto subj_bound = subj_var.empty() ? node_bindings.end()
                                       : node_bindings.find(subj_var);
    auto obj_bound =
        obj_var.empty() ? node_bindings.end() : node_bindings.find(obj_var);
    bool have_subj = subj_bound != node_bindings.end();
    bool have_obj = obj_bound != node_bindings.end();

    auto try_edge = [&](uint32_t edge_index) {
      if (limit_reached) return;
      const GraphEdge& edge = graph_->edges()[edge_index];
      const Event& event = edge.event;
      ++stats.join_candidates;
      if (!OpMaskContains(pattern.op_mask, event.op)) return;
      if (event.object_type != pattern.object.type) return;
      if (!pattern.time_range.Contains(event.start_ts)) return;
      if (analyzed.agent_filter.has_value()) {
        const auto& agents = *analyzed.agent_filter;
        if (std::find(agents.begin(), agents.end(), event.agent_id) ==
            agents.end()) {
          return;
        }
      }
      if (have_subj && edge.subject != subj_bound->second) return;
      if (have_obj && edge.object != obj_bound->second) return;
      // Per-edge property filters: Neo4j evaluates the regex predicates on
      // each expanded row; there is no candidate-bitset shortcut.
      const EntityStore& store = graph_->entities();
      if (!subject_filters[i].Matches(store, projector, event.subject)) {
        return;
      }
      if (!object_filters[i].Matches(store, projector, event.object)) {
        return;
      }
      if (!subj_var.empty() && subj_var == obj_var &&
          event.subject != graph_->NodeEntity(edge.object)) {
        return;
      }

      assignment[i] = &event;
      bool bound_subj_here = false, bound_obj_here = false;
      if (!subj_var.empty() && !have_subj) {
        node_bindings[subj_var] = edge.subject;
        bound_subj_here = true;
      }
      if (!obj_var.empty() && !have_obj && obj_var != subj_var) {
        node_bindings[obj_var] = edge.object;
        bound_obj_here = true;
      }
      if (relations_ok(i)) self(self, i + 1);
      if (bound_subj_here) node_bindings.erase(subj_var);
      if (bound_obj_here) node_bindings.erase(obj_var);
      assignment[i] = nullptr;
    };

    if (have_subj) {
      const auto& edges = graph_->OutEdges(subj_bound->second);
      stats.events_scanned += edges.size();
      for (uint32_t e : edges) {
        try_edge(e);
        if (limit_reached) return;
      }
      return;
    }
    if (have_obj) {
      const auto& edges = graph_->InEdges(obj_bound->second);
      stats.events_scanned += edges.size();
      for (uint32_t e : edges) {
        try_edge(e);
        if (limit_reached) return;
      }
      return;
    }
    // Unbound on both sides: NodeByLabelScan + Filter, like Neo4j with a
    // regex predicate — iterate every node of the label and evaluate the
    // predicates per node, then expand its relationships.
    const EntityStore& store = graph_->entities();
    if (pattern.subject.has_constraints) {
      size_t universe = store.NumEntities(EntityType::kProcess);
      stats.events_scanned += universe;  // label-scan cost
      for (EntityId id = 0; id < universe; ++id) {
        if (!subject_filters[i].Matches(store, projector, id)) {
          continue;
        }
        NodeId node = graph_->NodeOf(EntityType::kProcess, id);
        const auto& edges = graph_->OutEdges(node);
        stats.events_scanned += edges.size();
        for (uint32_t e : edges) {
          try_edge(e);
          if (limit_reached) return;
        }
      }
      return;
    }
    if (pattern.object.has_constraints) {
      size_t universe = store.NumEntities(pattern.object.type);
      stats.events_scanned += universe;  // label-scan cost
      for (EntityId id = 0; id < universe; ++id) {
        if (!object_filters[i].Matches(store, projector, id)) {
          continue;
        }
        NodeId node = graph_->NodeOf(pattern.object.type, id);
        const auto& edges = graph_->InEdges(node);
        stats.events_scanned += edges.size();
        for (uint32_t e : edges) {
          try_edge(e);
          if (limit_reached) return;
        }
      }
      return;
    }
    // Full relationship scan.
    stats.events_scanned += graph_->num_edges();
    for (uint32_t e = 0; e < graph_->num_edges(); ++e) {
      try_edge(e);
      if (limit_reached) return;
    }
  };
  match(match, 0);

  if (!ast.order_by.empty()) {
    AIQL_ASSIGN_OR_RETURN(auto keys,
                          ResolveOrderColumns(ast.order_by,
                                              ast.return_items));
    OrderResultRows(&result.table, keys);
    if (ast.limit.has_value() &&
        result.table.rows.size() > static_cast<size_t>(*ast.limit)) {
      result.table.rows.resize(static_cast<size_t>(*ast.limit));
    }
  }

  stats.exec_time = std::chrono::duration_cast<std::chrono::microseconds>(
                        Clock::now() - exec_start)
                        .count();
  return result;
}

Result<QueryResult> GraphExecutor::ExecuteAiql(std::string_view text) {
  auto parse_start = Clock::now();
  AIQL_ASSIGN_OR_RETURN(ParsedQuery parsed, ParseAiql(text));
  Duration parse_time = std::chrono::duration_cast<std::chrono::microseconds>(
                            Clock::now() - parse_start)
                            .count();
  QueryResult result;
  if (parsed.kind == QueryKind::kDependency) {
    AIQL_ASSIGN_OR_RETURN(auto rewritten,
                          RewriteDependency(*parsed.dependency));
    AIQL_ASSIGN_OR_RETURN(
        AnalyzedQuery analyzed,
        AnalyzeMultievent(*rewritten, QueryKind::kMultievent));
    AIQL_ASSIGN_OR_RETURN(result, Execute(analyzed));
  } else {
    AIQL_ASSIGN_OR_RETURN(AnalyzedQuery analyzed,
                          AnalyzeMultievent(*parsed.multievent, parsed.kind));
    AIQL_ASSIGN_OR_RETURN(result, Execute(analyzed));
  }
  result.stats.parse_time = parse_time;
  return result;
}

}  // namespace aiql
