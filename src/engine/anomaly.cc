#include "engine/anomaly.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <map>
#include <optional>
#include <unordered_map>

#include "engine/data_query.h"
#include "engine/scan.h"
#include "query/attributes.h"

namespace aiql {

namespace {

using Clock = std::chrono::steady_clock;

Duration ElapsedUs(Clock::time_point since) {
  return std::chrono::duration_cast<std::chrono::microseconds>(Clock::now() -
                                                               since)
      .count();
}

/// Per-aggregate-item accumulator for one (window, group).
struct AggAccumulator {
  uint64_t count = 0;
  double sum = 0;
  double min = 0;
  double max = 0;

  void Add(double value) {
    if (count == 0) {
      min = max = value;
    } else {
      min = std::min(min, value);
      max = std::max(max, value);
    }
    ++count;
    sum += value;
  }

  double Finalize(AggFunc func) const {
    switch (func) {
      case AggFunc::kCount:
        return static_cast<double>(count);
      case AggFunc::kSum:
        return sum;
      case AggFunc::kAvg:
        return count == 0 ? 0 : sum / static_cast<double>(count);
      case AggFunc::kMin:
        return min;
      case AggFunc::kMax:
        return max;
    }
    return 0;
  }
};

/// One group's per-window accumulators (ordered by window index).
struct GroupState {
  std::vector<Value> display;              ///< rendered group-by values
  std::map<int64_t, std::vector<AggAccumulator>> windows;
};

// Evaluates the having expression for one (group, window). Returns nullopt
// when the expression references history that predates the first window
// (insufficient data for the anomaly model — the row is filtered out rather
// than compared against fabricated zeros). A window with no activity for
// the group (but inside the time range) contributes 0.
std::optional<double> EvalHaving(
    const HavingExpr& node,
    const std::unordered_map<std::string, size_t>& alias_index,
    const std::vector<AggFunc>& agg_funcs,
    const std::map<int64_t, std::vector<AggAccumulator>>& wins,
    int64_t window) {
  switch (node.kind) {
    case HavingExpr::Kind::kNumber:
      return node.number;
    case HavingExpr::Kind::kAggRef: {
      size_t idx = alias_index.at(node.agg_alias);
      int64_t target = window - node.history;
      if (target < 0) return std::nullopt;  // before the first window
      auto it = wins.find(target);
      if (it == wins.end()) return 0.0;  // no activity that window
      return it->second[idx].Finalize(agg_funcs[idx]);
    }
    case HavingExpr::Kind::kArith: {
      auto l = EvalHaving(*node.lhs, alias_index, agg_funcs, wins, window);
      auto r = EvalHaving(*node.rhs, alias_index, agg_funcs, wins, window);
      if (!l || !r) return std::nullopt;
      switch (node.arith_op) {
        case '+':
          return *l + *r;
        case '-':
          return *l - *r;
        case '*':
          return *l * *r;
        case '/':
          return *r == 0 ? 0 : *l / *r;
      }
      return 0.0;
    }
    case HavingExpr::Kind::kCompare: {
      auto l = EvalHaving(*node.lhs, alias_index, agg_funcs, wins, window);
      auto r = EvalHaving(*node.rhs, alias_index, agg_funcs, wins, window);
      if (!l || !r) return std::nullopt;
      switch (node.cmp) {
        case CmpOp::kEq:
          return *l == *r;
        case CmpOp::kNe:
          return *l != *r;
        case CmpOp::kLt:
          return *l < *r;
        case CmpOp::kLe:
          return *l <= *r;
        case CmpOp::kGt:
          return *l > *r;
        case CmpOp::kGe:
          return *l >= *r;
        default:
          return 0.0;
      }
    }
    case HavingExpr::Kind::kAnd: {
      auto l = EvalHaving(*node.lhs, alias_index, agg_funcs, wins, window);
      auto r = EvalHaving(*node.rhs, alias_index, agg_funcs, wins, window);
      if (!l || !r) return std::nullopt;
      return (*l != 0 && *r != 0) ? 1.0 : 0.0;
    }
    case HavingExpr::Kind::kOr: {
      auto l = EvalHaving(*node.lhs, alias_index, agg_funcs, wins, window);
      auto r = EvalHaving(*node.rhs, alias_index, agg_funcs, wins, window);
      if (!l || !r) return std::nullopt;
      return (*l != 0 || *r != 0) ? 1.0 : 0.0;
    }
    case HavingExpr::Kind::kNot: {
      auto l = EvalHaving(*node.lhs, alias_index, agg_funcs, wins, window);
      if (!l) return std::nullopt;
      return *l == 0 ? 1.0 : 0.0;
    }
  }
  return 0.0;
}

}  // namespace

AnomalyExecutor::AnomalyExecutor(const ReadView* view,
                                 EngineOptions options, ThreadPool* pool)
    : view_(view), options_(options), pool_(pool) {}

Result<QueryResult> AnomalyExecutor::Execute(const AnalyzedQuery& analyzed,
                                             QueryContext* ctx) {
  const MultieventQueryAst& ast = *analyzed.ast;
  if (!ast.window.has_value() || ast.patterns.size() != 1) {
    return Status::Internal("anomaly executor requires one windowed pattern");
  }
  const WindowSpec& spec = *ast.window;
  if (spec.length / spec.step > 100000) {
    return Status::InvalidArgument(
        "window/step ratio too large (each event would join >100k windows)");
  }

  QueryResult result;
  QueryStats& stats = result.stats;
  stats.patterns = 1;

  auto plan_start = Clock::now();
  AIQL_ASSIGN_OR_RETURN(std::vector<CompiledPattern> patterns,
                        CompilePatterns(analyzed, view_->entities()));
  CompiledPattern& pattern = patterns[0];
  stats.plan_time = ElapsedUs(plan_start);
  result.plan = "anomaly plan: windowed scan (window=" +
                FormatDuration(spec.length) +
                ", step=" + FormatDuration(spec.step) + ")";

  auto exec_start = Clock::now();

  // --- scan ------------------------------------------------------------------
  std::vector<EventRef> events;
  SummaryKeyGroups keys = ScanKeyGroups(pattern);
  AIQL_ASSIGN_OR_RETURN(
      auto partitions,
      view_->SelectPartitions(pattern.time_range, analyzed.agent_filter,
                              pattern.op_mask, &keys));
  stats.partitions_scanned = partitions.size();
  for (const auto& [key, partition] : partitions) {
    stats.events_scanned += ScanPartition(
        *partition, pattern, pattern.time_range,
        /*same_var_both_sides=*/false, &events, ctx);
    if (ctx != nullptr) AIQL_RETURN_IF_ERROR(ctx->Check());
  }
  stats.events_matched = events.size();

  // --- columns ----------------------------------------------------------------
  result.table.columns.push_back("window_start");
  std::vector<AggFunc> agg_funcs;
  std::vector<const AggCallAst*> agg_calls;
  std::unordered_map<std::string, size_t> alias_index;
  for (const ReturnItemAst& item : ast.return_items) {
    if (!item.alias.empty()) {
      result.table.columns.push_back(item.alias);
    } else if (const auto* ref = std::get_if<AttrRefAst>(&item.expr)) {
      result.table.columns.push_back(ref->ToString());
    } else {
      const auto& agg = std::get<AggCallAst>(item.expr);
      result.table.columns.push_back(std::string(AggFuncToString(agg.func)) +
                                     "(...)");
    }
    if (const auto* agg = std::get_if<AggCallAst>(&item.expr)) {
      if (!item.alias.empty()) alias_index[item.alias] = agg_funcs.size();
      agg_funcs.push_back(agg->func);
      agg_calls.push_back(agg);
    }
  }

  // Non-aggregate return items must be group-by expressions.
  std::vector<size_t> ref_to_group;  // per non-agg return item: group index
  for (const ReturnItemAst& item : ast.return_items) {
    if (item.is_aggregate()) continue;
    const auto& ref = std::get<AttrRefAst>(item.expr);
    bool found = false;
    for (size_t g = 0; g < ast.group_by.size(); ++g) {
      if (ast.group_by[g].var == ref.var &&
          ast.group_by[g].attr == ref.attr) {
        ref_to_group.push_back(g);
        found = true;
        break;
      }
    }
    if (!found) {
      return Status::SemanticError(
          "return item '" + ref.ToString() +
          "' is not an aggregate and not listed in group by");
    }
  }

  if (events.empty()) {
    stats.exec_time = ElapsedUs(exec_start);
    return result;
  }

  // --- window assignment + grouping -------------------------------------------
  Timestamp t0 = analyzed.time_window.start;
  if (t0 == INT64_MIN) {
    Timestamp min_ts = INT64_MAX;
    for (EventRef event : events) {
      min_ts = std::min(min_ts, event.start_ts());
    }
    t0 = min_ts;
  }

  const EntityStore& store = view_->entities();
  const EventPatternAst& pattern_ast = ast.patterns[0];

  // Resolves a group-by / return reference against one event.
  auto resolve_ref = [&](const AttrRefAst& ref,
                         const Event& event) -> Value {
    auto event_it = analyzed.event_index.find(ref.var);
    if (event_it != analyzed.event_index.end()) {
      std::string attr = ref.attr.empty() ? "amount" : ref.attr;
      if (attr == "amount") return static_cast<int64_t>(event.amount);
      if (attr == "start_time") return static_cast<int64_t>(event.start_ts);
      if (attr == "end_time") return static_cast<int64_t>(event.end_ts);
      if (attr == "agentid") return static_cast<int64_t>(event.agent_id);
      return std::string(OpTypeToString(event.op));
    }
    bool is_subject = pattern_ast.subject.var == ref.var;
    EntityId id = is_subject ? event.subject : event.object;
    EntityType type =
        is_subject ? EntityType::kProcess : pattern_ast.object.type;
    std::string attr = ref.attr;
    // Bare entity refs group by entity identity and display the default
    // attribute.
    if (attr.empty()) attr = DefaultEntityAttr(type);
    switch (type) {
      case EntityType::kProcess: {
        const ProcessEntity& p = store.processes()[id];
        if (attr == "exe_name") {
          return std::string(store.exe_names().Get(p.exe_name));
        }
        if (attr == "pid") return static_cast<int64_t>(p.pid);
        if (attr == "user") return std::string(store.users().Get(p.user));
        return static_cast<int64_t>(p.agent_id);
      }
      case EntityType::kFile: {
        const FileEntity& f = store.files()[id];
        if (attr == "path") return std::string(store.paths().Get(f.path));
        return static_cast<int64_t>(f.agent_id);
      }
      case EntityType::kNetwork: {
        const NetworkEntity& n = store.networks()[id];
        if (attr == "dst_ip") return std::string(store.ips().Get(n.dst_ip));
        if (attr == "src_ip") return std::string(store.ips().Get(n.src_ip));
        if (attr == "protocol") {
          return std::string(store.protocols().Get(n.protocol));
        }
        if (attr == "dst_port") return static_cast<int64_t>(n.dst_port);
        if (attr == "src_port") return static_cast<int64_t>(n.src_port);
        return static_cast<int64_t>(n.agent_id);
      }
    }
    return int64_t{0};
  };

  // Group identity additionally distinguishes entities whose display values
  // collide (same exe name on different hosts): bare entity refs append the
  // entity id.
  auto group_identity = [&](const AttrRefAst& ref,
                            const Event& event) -> std::string {
    std::string display = ValueToString(resolve_ref(ref, event));
    if (ref.attr.empty() && analyzed.event_index.count(ref.var) == 0) {
      bool is_subject = pattern_ast.subject.var == ref.var;
      EntityId id = is_subject ? event.subject : event.object;
      display += '#';
      display += std::to_string(id);
    }
    return display;
  };

  std::unordered_map<std::string, GroupState> groups;
  int64_t max_window = 0;
  uint64_t since_check = 0;
  for (EventRef ref : events) {
    const Event event = ref.Get();
    if (ctx != nullptr && ++since_check >= QueryContext::kCheckStride) {
      AIQL_RETURN_IF_ERROR(ctx->ChargeRows(since_check));
      since_check = 0;
    }
    // Windows j with start <= ts < start + length, start = t0 + j*step.
    int64_t offset = event.start_ts - t0;
    if (offset < 0) continue;
    int64_t last = offset / spec.step;
    int64_t first = (offset - spec.length) / spec.step + 1;
    if (offset < spec.length) first = 0;
    max_window = std::max(max_window, last);

    std::string key;
    std::vector<Value> display;
    for (const AttrRefAst& ref : ast.group_by) {
      key += group_identity(ref, event);
      key += '\x1f';
      display.push_back(resolve_ref(ref, event));
    }
    GroupState& group = groups[key];
    if (group.display.empty() && !display.empty()) {
      group.display = std::move(display);
    }
    for (int64_t j = first; j <= last; ++j) {
      auto& accs = group.windows[j];
      if (accs.empty()) accs.resize(agg_funcs.size());
      for (size_t a = 0; a < agg_calls.size(); ++a) {
        double value = 1;  // count(*)
        if (!agg_calls[a]->star) {
          Value v = resolve_ref(agg_calls[a]->arg, event);
          if (const auto* i = std::get_if<int64_t>(&v)) {
            value = static_cast<double>(*i);
          } else if (const auto* d = std::get_if<double>(&v)) {
            value = *d;
          }
        }
        accs[a].Add(value);
      }
    }
  }

  if (ctx != nullptr) AIQL_RETURN_IF_ERROR(ctx->Check());

  // --- having + projection -----------------------------------------------------
  // Deterministic output: iterate groups sorted by key, windows ascending.
  std::vector<const std::string*> sorted_keys;
  sorted_keys.reserve(groups.size());
  for (const auto& [key, group] : groups) sorted_keys.push_back(&key);
  std::sort(sorted_keys.begin(), sorted_keys.end(),
            [](const std::string* a, const std::string* b) { return *a < *b; });

  for (const std::string* key : sorted_keys) {
    const GroupState& group = groups[*key];
    for (const auto& [window, accs] : group.windows) {
      if (ast.having != nullptr) {
        auto verdict = EvalHaving(*ast.having, alias_index, agg_funcs,
                                  group.windows, window);
        if (!verdict.has_value() || *verdict == 0) continue;
      }
      std::vector<Value> row;
      // Raw microsecond timestamp; comparable across engines (the SQL
      // baseline projects the same integer). Display layers format it.
      row.push_back(static_cast<int64_t>(t0 + window * spec.step));
      size_t ref_cursor = 0;
      size_t agg_cursor = 0;
      for (const ReturnItemAst& item : ast.return_items) {
        if (item.is_aggregate()) {
          row.push_back(accs[agg_cursor].Finalize(agg_funcs[agg_cursor]));
          ++agg_cursor;
        } else {
          row.push_back(group.display[ref_to_group[ref_cursor]]);
          ++ref_cursor;
        }
      }
      result.table.rows.push_back(std::move(row));
      if (ast.order_by.empty() && ast.limit.has_value() &&
          result.table.rows.size() >= static_cast<size_t>(*ast.limit)) {
        break;
      }
    }
  }

  if (!ast.order_by.empty()) {
    // Column 0 is window_start; return items start at offset 1.
    AIQL_ASSIGN_OR_RETURN(
        auto keys,
        ResolveOrderColumns(ast.order_by, ast.return_items,
                            /*column_offset=*/1));
    OrderResultRows(&result.table, keys);
    if (ast.limit.has_value() &&
        result.table.rows.size() > static_cast<size_t>(*ast.limit)) {
      result.table.rows.resize(static_cast<size_t>(*ast.limit));
    }
  }

  stats.exec_time = ElapsedUs(exec_start);
  return result;
}

}  // namespace aiql
