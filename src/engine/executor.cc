#include "engine/executor.h"

#include <algorithm>
#include <chrono>
#include <thread>
#include <unordered_map>
#include <unordered_set>

#include "engine/projector.h"
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

/// Matched events of one pattern plus timestamp envelope for pruning. The
/// events are references into sealed partitions — the scan path never
/// copies an event.
struct PatternMatches {
  std::vector<EventRef> events;
  Timestamp min_start = INT64_MAX;
  Timestamp max_start = INT64_MIN;
  Timestamp min_end = INT64_MAX;
  Timestamp max_end = INT64_MIN;

  void Note(EventRef event) {
    min_start = std::min(min_start, event.start_ts());
    max_start = std::max(max_start, event.start_ts());
    min_end = std::min(min_end, event.end_ts());
    max_end = std::max(max_end, event.end_ts());
  }
};

struct JoinKeyHash {
  size_t operator()(const std::vector<EntityId>& key) const {
    uint64_t h = 1469598103934665603ULL;
    for (EntityId id : key) {
      h = (h ^ id) * 1099511628211ULL;
    }
    return static_cast<size_t>(h);
  }
};

/// DISTINCT dedup key: the projected row itself, hashed value-wise — no
/// per-row string materialization.
struct RowHash {
  size_t operator()(const std::vector<Value>& row) const {
    uint64_t h = 1469598103934665603ULL;
    for (const Value& value : row) {
      h = (h ^ value.index()) * 1099511628211ULL;
      size_t vh = std::visit(
          [](const auto& v) {
            return std::hash<std::decay_t<decltype(v)>>{}(v);
          },
          value);
      h = (h ^ vh) * 1099511628211ULL;
    }
    return static_cast<size_t>(h);
  }
};

}  // namespace

MultieventExecutor::MultieventExecutor(const ReadView* view,
                                       EngineOptions options,
                                       ThreadPool* pool)
    : view_(view), options_(options), pool_(pool) {
  if (options_.enable_parallelism && pool_ == nullptr) {
    size_t threads = options_.num_threads != 0
                         ? options_.num_threads
                         : std::max(1u, std::thread::hardware_concurrency());
    owned_pool_ = std::make_unique<ThreadPool>(threads);
    pool_ = owned_pool_.get();
  }
}

Result<QueryResult> MultieventExecutor::Execute(const AnalyzedQuery& analyzed,
                                                QueryContext* ctx) {
  // Entry checkpoint: a shard whose turn comes after the deadline (or after
  // a cancel/budget breach) must fail here even if it would scan nothing —
  // otherwise a stalled-but-empty shard reports success and the degraded
  // partial policy has no failure to drop.
  if (ctx != nullptr) {
    AIQL_RETURN_IF_ERROR(ctx->Check());
  }
  const MultieventQueryAst& ast = *analyzed.ast;
  QueryResult result;
  QueryStats& stats = result.stats;
  stats.patterns = static_cast<int>(ast.patterns.size());
  stats.threads_used =
      options_.enable_parallelism && pool_ != nullptr
          ? static_cast<int>(pool_->num_threads())
          : 1;

  auto plan_start = Clock::now();
  AIQL_ASSIGN_OR_RETURN(std::vector<CompiledPattern> patterns,
                        CompilePatterns(analyzed, view_->entities()));
  AIQL_ASSIGN_OR_RETURN(
      std::vector<size_t> order,
      SchedulePatterns(&patterns, *view_, analyzed.agent_filter, options_));
  stats.plan_time = ElapsedUs(plan_start);

  // Render the plan for Explain / debugging.
  {
    std::string plan = "multievent plan (scan order by pruning power):\n";
    for (size_t rank = 0; rank < order.size(); ++rank) {
      const CompiledPattern& p = patterns[order[rank]];
      plan += "  " + std::to_string(rank + 1) + ". pattern #" +
              std::to_string(p.index + 1) + " [" + p.event_var +
              "] est=" + std::to_string(static_cast<int64_t>(
                             p.estimated_cardinality)) +
              "\n";
    }
    result.plan = std::move(plan);
  }

  auto exec_start = Clock::now();

  // --- scan phase -----------------------------------------------------------
  const int num_patterns = static_cast<int>(patterns.size());
  std::vector<PatternMatches> matches(num_patterns);
  // Entity bindings from already-scanned patterns: var -> matched ids.
  std::unordered_map<std::string, EntitySet> bindings;
  std::vector<bool> scanned(num_patterns, false);
  bool empty_result = false;

  for (size_t rank = 0; rank < order.size() && !empty_result; ++rank) {
    CompiledPattern& pattern = patterns[order[rank]];
    const EventPatternAst& pattern_ast = ast.patterns[pattern.index];

    // Semi-join pruning: intersect candidate sets with bindings of shared
    // variables scanned earlier.
    if (options_.enable_semi_join) {
      auto apply_binding = [&](const EntityDeclAst& decl,
                               EntityFilter* filter) {
        if (decl.var.empty()) return;
        auto it = bindings.find(decl.var);
        if (it == bindings.end()) return;
        if (filter->candidates.has_value()) {
          filter->candidates->IntersectWith(it->second);
        } else {
          filter->candidates = it->second;
        }
      };
      apply_binding(pattern_ast.subject, &pattern.subject);
      apply_binding(pattern_ast.object, &pattern.object);
    }

    // Temporal pruning: tighten this pattern's scan range using the
    // envelopes of already-scanned patterns.
    if (options_.enable_temporal_pruning) {
      for (const TemporalRelAst& rel : ast.temporal_rels) {
        int left = analyzed.event_index.at(rel.left);
        int right = analyzed.event_index.at(rel.right);
        if (!rel.before) std::swap(left, right);
        // Now: event[left] before event[right].
        if (right == pattern.index && scanned[left] &&
            !matches[left].events.empty()) {
          // This pattern must start at/after some left event's end.
          pattern.time_range.start =
              std::max(pattern.time_range.start, matches[left].min_end);
        }
        if (left == pattern.index && scanned[right] &&
            !matches[right].events.empty()) {
          // This pattern must end at/before some right event's start, so it
          // must start before the latest right start as well.
          pattern.time_range.end =
              std::min(pattern.time_range.end, matches[right].max_start + 1);
        }
      }
    }

    // Empty candidate sets cannot match anything: skip the scan (and the
    // whole query) outright.
    if ((pattern.subject.candidates.has_value() &&
         pattern.subject.candidates->Count() == 0) ||
        (pattern.object.candidates.has_value() &&
         pattern.object.candidates->Count() == 0)) {
      scanned[pattern.index] = true;
      empty_result = true;
      break;
    }

    // Subject == object inside a single pattern (e.g. `proc p connect proc
    // p`) requires an identity check during the scan.
    bool same_var_both_sides =
        !pattern_ast.subject.var.empty() &&
        pattern_ast.subject.var == pattern_ast.object.var;

    // Partition-parallel scan (zero-copy: references into sealed
    // partitions). Cold partitions whose entity summary misses a candidate
    // side are never materialized.
    SummaryKeyGroups keys = ScanKeyGroups(pattern);
    AIQL_ASSIGN_OR_RETURN(
        auto partitions,
        view_->SelectPartitions(pattern.time_range, analyzed.agent_filter,
                                pattern.op_mask, &keys));
    stats.partitions_scanned += partitions.size();
    std::vector<std::vector<EventRef>> local_matches(partitions.size());
    std::vector<uint64_t> local_scanned(partitions.size(), 0);

    auto scan_partition = [&](size_t pi) {
      // Workers inherit the query context binding so failpoint latency
      // injection inside partition materialization stays interruptible.
      ScopedQueryContext bind(ctx);
      local_scanned[pi] =
          ScanPartition(*partitions[pi].second, pattern, pattern.time_range,
                        same_var_both_sides, &local_matches[pi], ctx);
    };

    if (options_.enable_parallelism && pool_ != nullptr &&
        partitions.size() > 1) {
      if (ctx != nullptr) {
        pool_->ParallelFor(partitions.size(), scan_partition,
                           [ctx] { return ctx->stopped(); });
      } else {
        pool_->ParallelFor(partitions.size(), scan_partition);
      }
    } else {
      for (size_t pi = 0; pi < partitions.size(); ++pi) {
        if (ctx != nullptr && ctx->stopped()) break;
        scan_partition(pi);
      }
    }
    if (ctx != nullptr) AIQL_RETURN_IF_ERROR(ctx->Check());

    // Merge without re-pushing: note the envelopes, then move the first
    // chunk wholesale and bulk-append the rest.
    PatternMatches& pm = matches[pattern.index];
    size_t total_matches = 0;
    for (size_t pi = 0; pi < partitions.size(); ++pi) {
      stats.events_scanned += local_scanned[pi];
      total_matches += local_matches[pi].size();
      for (EventRef event : local_matches[pi]) pm.Note(event);
    }
    for (size_t pi = 0; pi < partitions.size(); ++pi) {
      if (local_matches[pi].empty()) continue;
      if (pm.events.empty()) {
        pm.events = std::move(local_matches[pi]);
        pm.events.reserve(total_matches);
      } else {
        pm.events.insert(pm.events.end(), local_matches[pi].begin(),
                         local_matches[pi].end());
      }
    }
    stats.events_matched += pm.events.size();
    scanned[pattern.index] = true;
    if (pm.events.empty()) {
      empty_result = true;
      break;
    }

    // Record bindings for semi-join pruning of later scans. First binding of
    // a var is built in place inside the map (no universe-sized bitset copy);
    // later occurrences intersect into it.
    if (options_.enable_semi_join) {
      auto record_binding = [&](const EntityDeclAst& decl, bool is_subject) {
        if (decl.var.empty()) return;
        size_t universe = view_->entities().NumEntities(decl.type);
        auto [it, inserted] = bindings.try_emplace(decl.var, universe);
        if (inserted) {
          for (EventRef event : pm.events) {
            it->second.Add(is_subject ? event.subject() : event.object());
          }
        } else {
          EntitySet set(universe);
          for (EventRef event : pm.events) {
            set.Add(is_subject ? event.subject() : event.object());
          }
          // The fused intersect-count spots an emptied binding for free: no
          // entity satisfies every occurrence of the var, so the join can
          // never produce a row.
          if (it->second.IntersectWith(set) == 0) empty_result = true;
        }
      };
      record_binding(pattern_ast.subject, true);
      record_binding(pattern_ast.object, false);
    }
  }

  // --- join phase ------------------------------------------------------------
  Projector projector(view_->entities(), analyzed);

  // Column names follow the return items (alias > rendered expression).
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
  }

  if (empty_result) {
    stats.exec_time = ElapsedUs(exec_start);
    return result;
  }

  // Join specs per rank: for each rank, the list of (side-is-subject)
  // whose var already appeared
  // in earlier-ranked patterns — these form the hash key.
  std::vector<std::vector<bool>> key_sides(num_patterns);
  std::unordered_map<std::string, std::pair<size_t, bool>> first_binding;
  for (size_t rank = 0; rank < order.size(); ++rank) {
    const EventPatternAst& pattern_ast = ast.patterns[patterns[order[rank]].index];
    auto note_side = [&](const EntityDeclAst& decl, bool is_subject) {
      if (decl.var.empty()) return;
      if (first_binding.count(decl.var) > 0) {
        key_sides[rank].push_back(is_subject);
      } else {
        first_binding.emplace(decl.var, std::make_pair(rank, is_subject));
      }
    };
    note_side(pattern_ast.subject, true);
    note_side(pattern_ast.object, false);
  }

  // Hash indexes for ranks joining on shared variables.
  using JoinIndex =
      std::unordered_map<std::vector<EntityId>, std::vector<EventRef>,
                         JoinKeyHash>;
  // var -> (rank, is_subject) of its first binding; used to derive keys from
  // the current partial assignment.
  std::vector<JoinIndex> join_indexes(num_patterns);
  std::vector<std::vector<std::pair<size_t, bool>>> key_sources(num_patterns);
  for (size_t rank = 1; rank < order.size(); ++rank) {
    const CompiledPattern& pattern = patterns[order[rank]];
    const EventPatternAst& pattern_ast = ast.patterns[pattern.index];
    std::vector<std::string> key_vars;
    auto consider = [&](const EntityDeclAst& decl, bool is_subject) {
      if (decl.var.empty()) return;
      auto it = first_binding.find(decl.var);
      if (it == first_binding.end() || it->second.first >= rank) return;
      // Guard against duplicate var on both sides (key once).
      for (const std::string& existing : key_vars) {
        if (existing == decl.var) return;
      }
      key_vars.push_back(decl.var);
      key_sides[rank].push_back(is_subject);  // rebuilt below, reset first
      key_sources[rank].push_back(it->second);
    };
    key_sides[rank].clear();
    consider(pattern_ast.subject, true);
    consider(pattern_ast.object, false);

    JoinIndex& index = join_indexes[rank];
    for (EventRef event : matches[pattern.index].events) {
      std::vector<EntityId> key;
      key.reserve(key_sides[rank].size());
      for (bool is_subject : key_sides[rank]) {
        key.push_back(is_subject ? event.subject() : event.object());
      }
      index[key].push_back(event);
    }
  }

  std::unordered_set<std::vector<Value>, RowHash> distinct_rows;
  std::vector<EventRef> assignment(num_patterns);
  bool limit_reached = false;
  // Join-phase governance checkpoint: every kCheckStride candidates the
  // context is charged and consulted; a violation unwinds the backtracking
  // like a reached limit, and the sticky status is returned below.
  uint64_t candidates_since_check = 0;
  auto governance_ok = [&]() {
    if (ctx == nullptr) return true;
    if (++candidates_since_check < QueryContext::kCheckStride) {
      return !ctx->stopped();
    }
    Status s = ctx->ChargeRows(candidates_since_check);
    candidates_since_check = 0;
    return s.ok();
  };

  // Emits one completed assignment through projection + distinct + limit.
  auto emit = [&] {
    std::vector<Value> row;
    row.reserve(ast.return_items.size());
    for (const ReturnItemAst& item : ast.return_items) {
      const auto& ref = std::get<AttrRefAst>(item.expr);
      row.push_back(projector.Resolve(ref, assignment));
    }
    if (ast.distinct && !distinct_rows.insert(row).second) return;
    result.table.rows.push_back(std::move(row));
    // With `order by`, every row must be produced before sorting; the limit
    // is applied afterwards.
    if (ast.order_by.empty() && ast.limit.has_value() &&
        result.table.rows.size() >= static_cast<size_t>(*ast.limit)) {
      limit_reached = true;
    }
  };

  // Checks all relations between `pattern_index` and already-assigned
  // patterns (by join rank).
  auto relations_ok = [&](int pattern_index) {
    for (const TemporalRelAst& rel : ast.temporal_rels) {
      int left = analyzed.event_index.at(rel.left);
      int right = analyzed.event_index.at(rel.right);
      int other = left == pattern_index ? right
                  : right == pattern_index ? left
                                           : -1;
      if (other < 0 || assignment[other].partition == nullptr) continue;
      EventRef a = assignment[left];
      EventRef b = assignment[right];
      Duration within = rel.within;
      bool holds =
          rel.before ? TemporalHolds(a.end_ts(), b.start_ts(), within)
                     : TemporalHolds(b.end_ts(), a.start_ts(), within);
      if (!holds) return false;
    }
    for (const AttrRelAst& rel : ast.attr_rels) {
      // Evaluate once both referenced patterns are assigned; attribute the
      // check to the later assignment.
      auto pattern_of = [&](const AttrRefAst& ref) -> int {
        auto event_it = analyzed.event_index.find(ref.var);
        if (event_it != analyzed.event_index.end()) return event_it->second;
        return analyzed.entity_occurrences.at(ref.var).front().pattern;
      };
      int lp = pattern_of(rel.left);
      int rp = pattern_of(rel.right);
      if (assignment[lp].partition == nullptr ||
          assignment[rp].partition == nullptr) {
        continue;
      }
      if (lp != pattern_index && rp != pattern_index) continue;
      Value left = projector.Resolve(rel.left, assignment);
      Value right = projector.Resolve(rel.right, assignment);
      if (!CompareValues(left, rel.op, right)) return false;
    }
    return true;
  };

  // Backtracking join in scheduled order.
  auto join = [&](auto&& self, size_t rank) -> void {
    if (limit_reached) return;
    if (rank == order.size()) {
      emit();
      return;
    }
    const CompiledPattern& pattern = patterns[order[rank]];
    int pattern_index = pattern.index;
    auto try_event = [&](EventRef event) {
      if (limit_reached) return;
      if (!governance_ok()) {
        limit_reached = true;  // unwind the backtracking promptly
        return;
      }
      ++stats.join_candidates;
      assignment[pattern_index] = event;
      if (relations_ok(pattern_index)) self(self, rank + 1);
      assignment[pattern_index] = EventRef{};
    };
    if (rank == 0 || key_sides[rank].empty()) {
      for (EventRef event : matches[pattern_index].events) {
        try_event(event);
        if (limit_reached) return;
      }
      return;
    }
    // Derive the key from already-assigned first bindings.
    std::vector<EntityId> key;
    key.reserve(key_sources[rank].size());
    for (const auto& [src_rank, src_is_subject] : key_sources[rank]) {
      EventRef src = assignment[patterns[order[src_rank]].index];
      key.push_back(src_is_subject ? src.subject() : src.object());
    }
    auto it = join_indexes[rank].find(key);
    if (it == join_indexes[rank].end()) return;
    for (EventRef event : it->second) {
      try_event(event);
      if (limit_reached) return;
    }
  };
  join(join, 0);
  if (ctx != nullptr) AIQL_RETURN_IF_ERROR(ctx->Check());

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

  stats.exec_time = ElapsedUs(exec_start);
  return result;
}

}  // namespace aiql
