#include "engine/shard_exec.h"

#include <algorithm>
#include <chrono>
#include <numeric>
#include <optional>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <utility>

#include "common/cancellation.h"
#include "common/failpoint.h"
#include "engine/anomaly.h"
#include "engine/executor.h"
#include "engine/scan.h"
#include "engine/shard_merge.h"
#include "storage/shard_map.h"

namespace aiql {

namespace {

using Clock = std::chrono::steady_clock;

Duration ElapsedUs(Clock::time_point since) {
  return std::chrono::duration_cast<std::chrono::microseconds>(Clock::now() -
                                                               since)
      .count();
}

/// Fills the DegradedInfo summary counters from per-shard annotations.
DegradedInfo SummarizeShards(std::vector<ShardExecStatus> shard_status) {
  DegradedInfo info;
  for (const ShardExecStatus& s : shard_status) {
    if (s.attempts > 1) ++info.shards_retried;
    if (!s.dropped) continue;
    info.partial = true;
    if (s.status.code() == StatusCode::kDeadlineExceeded) {
      ++info.shards_timed_out;
    } else {
      ++info.shards_failed;
    }
  }
  info.shard_status = std::move(shard_status);
  return info;
}

/// Globally merged matches of one pattern: per-shard event references
/// (ids are shard-local) plus the cross-shard timestamp envelope that
/// drives temporal pruning of later patterns.
struct GlobalMatches {
  std::vector<std::vector<EventRef>> per_shard;
  size_t total = 0;
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

}  // namespace

Result<QueryResult> ExecuteShardsFast(const AnalyzedQuery& analyzed,
                                      std::vector<ReadView>& views,
                                      const EngineOptions& options,
                                      ThreadPool* pool, QueryContext* ctx) {
  const MultieventQueryAst& ast = *analyzed.ast;
  const size_t num_shards = views.size();

  ShardMergeSpec spec;
  spec.distinct = ast.distinct;
  if (!ast.order_by.empty()) {
    AIQL_ASSIGN_OR_RETURN(
        spec.order_keys, ResolveOrderColumns(ast.order_by, ast.return_items));
  }
  if (ast.limit.has_value()) spec.limit = *ast.limit;

  // Fan the complete query across shards; each per-shard run is itself
  // partition-parallel on the shared pool (nested ParallelFor is safe:
  // callers participate). Each shard runs under AttemptShard: transient
  // storage faults (and the `shard.scatter` failpoint) get bounded retries
  // with interruptible backoff, then map to kUnavailable.
  std::vector<std::optional<Result<QueryResult>>> scattered(num_shards);
  std::vector<ShardExecStatus> shard_status(num_shards);
  auto run_shard = [&](size_t s) {
    // Bind the query context for this worker so injected failpoint latency
    // deep inside snapshot reads stays interruptible by the deadline.
    ScopedQueryContext bind(ctx);
    shard_status[s].shard = static_cast<uint32_t>(s);
    Result<QueryResult> result = AttemptShard(
        s, options, ctx, &shard_status[s].attempts,
        [&]() -> Result<QueryResult> {
          AIQL_RETURN_IF_ERROR(
              Failpoint::Hit("shard.scatter", static_cast<int64_t>(s)));
          MultieventExecutor executor(&views[s], options, pool);
          return executor.Execute(analyzed, ctx);
        });
    shard_status[s].status = result.ok() ? Status::OK() : result.status();
    scattered[s].emplace(std::move(result));
  };
  if (options.enable_parallelism && pool != nullptr && num_shards > 1) {
    pool->ParallelFor(num_shards, run_shard);
  } else {
    for (size_t s = 0; s < num_shards; ++s) run_shard(s);
  }

  std::string shard_plan;
  std::vector<Result<QueryResult>> shard_results;
  shard_results.reserve(num_shards);
  size_t failed = 0;
  for (auto& r : scattered) {
    if (r->ok() && shard_plan.empty()) shard_plan = r->value().plan;
    if (!r->ok()) ++failed;
    shard_results.push_back(std::move(*r));
  }

  if (failed > 0) {
    if (!PartialShardPolicy(ctx) || failed == num_shards) {
      // Strict (or nothing survived): fail with every shard error named.
      return AggregateShardErrors(shard_results);
    }
    // Partial: drop the failed shards and merge the survivors. A dropped
    // deadline must not also kill the bounded merge below, so the deadline
    // (and only the deadline) is lifted; cancel/budget stay fatal.
    if (ctx != nullptr) ctx->LiftDeadline();
    for (size_t s = 0; s < num_shards; ++s) {
      if (shard_results[s].ok()) continue;
      shard_status[s].dropped = true;
      shard_results[s] = QueryResult{};  // empty table, no columns
    }
    // Empty placeholder tables have no columns; give them the survivor
    // column set so the merge's column check passes.
    std::vector<std::string> columns;
    for (const auto& r : shard_results) {
      if (!r.value().table.columns.empty()) {
        columns = r.value().table.columns;
        break;
      }
    }
    for (size_t s = 0; s < num_shards; ++s) {
      if (shard_status[s].dropped) {
        shard_results[s].value().table.columns = columns;
      }
    }
  }

  AIQL_ASSIGN_OR_RETURN(QueryResult merged,
                        MergeShardResults(std::move(shard_results), spec, ctx));
  merged.degraded = SummarizeShards(std::move(shard_status));
  merged.plan = "sharded scatter/gather over " + std::to_string(num_shards) +
                " shards (per-shard execute + order-aware merge)\n" +
                shard_plan;
  return merged;
}

Result<QueryResult> ExecuteShardsGathered(const AnalyzedQuery& analyzed,
                                          std::vector<ReadView>& views,
                                          bool anomaly,
                                          const EngineOptions& options,
                                          ThreadPool* pool, QueryContext* ctx) {
  const MultieventQueryAst& ast = *analyzed.ast;
  const size_t num_shards = views.size();
  const int num_patterns = static_cast<int>(ast.patterns.size());
  const bool partial = PartialShardPolicy(ctx);
  auto scatter_start = Clock::now();

  // Per-shard degradation state: a shard that fails a storage-level
  // operation (after retries) is either fatal (strict) or dropped for the
  // rest of the scatter (partial) — its earlier contributions stay (they
  // are real events; the central re-execution re-checks every predicate,
  // so the result remains a sound subset of the full answer).
  std::vector<ShardExecStatus> shard_status(num_shards);
  std::vector<bool> shard_dropped(num_shards, false);
  for (size_t s = 0; s < num_shards; ++s) {
    shard_status[s].shard = static_cast<uint32_t>(s);
  }
  auto drop_or_fail = [&](size_t s, const Status& status) -> Status {
    shard_status[s].status = status;
    if (!partial) return status;
    shard_status[s].dropped = true;
    shard_dropped[s] = true;
    return Status::OK();
  };

  // Per-shard compiled patterns: candidate sets live in each shard's id
  // space, so compilation runs once per shard.
  std::vector<std::vector<CompiledPattern>> compiled(num_shards);
  for (size_t s = 0; s < num_shards; ++s) {
    AIQL_ASSIGN_OR_RETURN(compiled[s],
                          CompilePatterns(analyzed, views[s].entities()));
  }

  // Global schedule: pruning power of a pattern is its fleet-wide match
  // count, so per-shard estimates sum before the (stable) ascending sort —
  // mirroring SchedulePatterns over a merged database.
  std::vector<size_t> order(num_patterns);
  std::iota(order.begin(), order.end(), size_t{0});
  if (options.enable_reordering && num_patterns > 1) {
    std::vector<double> estimates(num_patterns, 0.0);
    for (size_t s = 0; s < num_shards; ++s) {
      if (shard_dropped[s]) continue;
      for (int p = 0; p < num_patterns; ++p) {
        int attempts = 0;
        Result<double> estimate =
            AttemptShard(s, options, ctx, &attempts, [&] {
              return EstimateCardinality(compiled[s][p], views[s],
                                         analyzed.agent_filter);
            });
        shard_status[s].attempts = std::max(shard_status[s].attempts, attempts);
        if (!estimate.ok()) {
          AIQL_RETURN_IF_ERROR(drop_or_fail(s, estimate.status()));
          break;
        }
        estimates[p] += *estimate;
      }
    }
    std::stable_sort(order.begin(), order.end(), [&](size_t a, size_t b) {
      return estimates[a] < estimates[b];
    });
  }

  QueryStats scatter_stats;
  std::vector<GlobalMatches> matches(num_patterns);
  for (auto& m : matches) m.per_shard.resize(num_shards);
  std::vector<TimeRange> ranges(num_patterns);
  for (int p = 0; p < num_patterns; ++p) ranges[p] = compiled[0][p].time_range;
  std::vector<bool> scanned(num_patterns, false);
  bool empty_result = false;

  // Global semi-join bindings: var -> the intersected set of matched
  // entities across the var's scanned occurrences, keyed by attribute tuple
  // (the only cross-shard entity name) with one representative ref kept for
  // re-resolution into shard id spaces.
  std::unordered_map<std::string, std::unordered_map<std::string, ObjectRef>>
      bindings;

  for (size_t rank = 0; rank < order.size() && !empty_result; ++rank) {
    if (ctx != nullptr) AIQL_RETURN_IF_ERROR(ctx->Check());
    const int p = static_cast<int>(order[rank]);
    const EventPatternAst& pattern_ast = ast.patterns[p];

    if (options.enable_semi_join) {
      auto apply_binding = [&](const EntityDeclAst& decl, bool is_subject) {
        if (decl.var.empty()) return;
        auto it = bindings.find(decl.var);
        if (it == bindings.end()) return;
        for (size_t s = 0; s < num_shards; ++s) {
          EntitySet set(views[s].entities().NumEntities(decl.type));
          for (const auto& [key, ref] : it->second) {
            EntityId id = FindEntity(views[s].entities(), ref);
            if (id != kInvalidEntityId) set.Add(id);
          }
          EntityFilter* filter = is_subject ? &compiled[s][p].subject
                                            : &compiled[s][p].object;
          if (filter->candidates.has_value()) {
            filter->candidates->IntersectWith(set);
          } else {
            filter->candidates = std::move(set);
          }
        }
      };
      apply_binding(pattern_ast.subject, /*is_subject=*/true);
      apply_binding(pattern_ast.object, /*is_subject=*/false);
    }

    if (options.enable_temporal_pruning) {
      for (const TemporalRelAst& rel : ast.temporal_rels) {
        int left = analyzed.event_index.at(rel.left);
        int right = analyzed.event_index.at(rel.right);
        if (!rel.before) std::swap(left, right);
        if (right == p && scanned[left] && matches[left].total > 0) {
          ranges[p].start = std::max(ranges[p].start, matches[left].min_end);
        }
        if (left == p && scanned[right] && matches[right].total > 0) {
          ranges[p].end = std::min(ranges[p].end,
                                   matches[right].max_start + 1);
        }
      }
    }

    bool same_var_both_sides =
        !pattern_ast.subject.var.empty() &&
        pattern_ast.subject.var == pattern_ast.object.var;

    // Scatter this pattern's scan over every shard's selected partitions in
    // one flat partition-parallel pass, ordered like a merged database
    // would order them ((bucket, agent); shards own disjoint agents).
    struct FlatPartition {
      uint32_t shard;
      PartitionKey key;
      const EventPartition* partition;
    };
    std::vector<FlatPartition> flat;
    for (size_t s = 0; s < num_shards; ++s) {
      if (shard_dropped[s]) continue;
      // A shard whose candidate set emptied cannot match — skip its scan
      // (the global empty check is the summed match count below).
      if ((compiled[s][p].subject.candidates.has_value() &&
           compiled[s][p].subject.candidates->Count() == 0) ||
          (compiled[s][p].object.candidates.has_value() &&
           compiled[s][p].object.candidates->Count() == 0)) {
        continue;
      }
      // Partition selection materializes lazily for snapshot-backed shards
      // — the transient-fault site; retried with backoff, then degraded
      // per policy. The `shard.scatter` failpoint covers the gathered path
      // here too (same site name as the fast path, arg = shard index).
      int attempts = 0;
      SummaryKeyGroups keys = ScanKeyGroups(compiled[s][p]);
      auto selected = AttemptShard(
          s, options, ctx, &attempts,
          [&]() -> Result<std::vector<
                       std::pair<PartitionKey, const EventPartition*>>> {
            AIQL_RETURN_IF_ERROR(
                Failpoint::Hit("shard.scatter", static_cast<int64_t>(s)));
            return views[s].SelectPartitions(ranges[p],
                                             analyzed.agent_filter,
                                             compiled[s][p].op_mask, &keys);
          });
      shard_status[s].attempts = std::max(shard_status[s].attempts, attempts);
      if (!selected.ok()) {
        AIQL_RETURN_IF_ERROR(drop_or_fail(s, selected.status()));
        continue;
      }
      flat.reserve(flat.size() + selected->size());
      for (const auto& [key, partition] : *selected) {
        flat.push_back(
            FlatPartition{static_cast<uint32_t>(s), key, partition});
      }
    }
    std::stable_sort(flat.begin(), flat.end(),
                     [](const FlatPartition& a, const FlatPartition& b) {
                       if (a.key.bucket != b.key.bucket) {
                         return a.key.bucket < b.key.bucket;
                       }
                       return a.key.agent_id < b.key.agent_id;
                     });
    scatter_stats.partitions_scanned += flat.size();

    std::vector<std::vector<EventRef>> local(flat.size());
    std::vector<uint64_t> local_scanned(flat.size(), 0);
    auto scan_partition = [&](size_t i) {
      ScopedQueryContext bind(ctx);
      const FlatPartition& fp = flat[i];
      // Anomaly's single-db scan never requires subject==object identity,
      // so its scatter must not either (central re-run settles semantics).
      local_scanned[i] = ScanPartition(
          *fp.partition, compiled[fp.shard][p], ranges[p],
          anomaly ? false : same_var_both_sides, &local[i], ctx);
    };
    if (options.enable_parallelism && pool != nullptr && flat.size() > 1) {
      if (ctx != nullptr) {
        pool->ParallelFor(flat.size(), scan_partition,
                           [ctx] { return ctx->stopped(); });
      } else {
        pool->ParallelFor(flat.size(), scan_partition);
      }
    } else {
      for (size_t i = 0; i < flat.size(); ++i) {
        if (ctx != nullptr && ctx->stopped()) break;
        scan_partition(i);
      }
    }
    if (ctx != nullptr) AIQL_RETURN_IF_ERROR(ctx->Check());

    GlobalMatches& gm = matches[p];
    for (size_t i = 0; i < flat.size(); ++i) {
      scatter_stats.events_scanned += local_scanned[i];
      for (EventRef event : local[i]) gm.Note(event);
      gm.total += local[i].size();
      std::vector<EventRef>& dest = gm.per_shard[flat[i].shard];
      dest.insert(dest.end(), local[i].begin(), local[i].end());
    }
    scatter_stats.events_matched += gm.total;
    scanned[p] = true;
    if (gm.total == 0) {
      empty_result = true;
      break;
    }

    if (options.enable_semi_join) {
      auto record_binding = [&](const EntityDeclAst& decl, bool is_subject) {
        if (decl.var.empty()) return;
        std::unordered_map<std::string, ObjectRef> occurrence;
        for (size_t s = 0; s < num_shards; ++s) {
          std::unordered_set<EntityId> unique_ids;
          for (EventRef event : gm.per_shard[s]) {
            unique_ids.insert(is_subject ? event.subject() : event.object());
          }
          for (EntityId id : unique_ids) {
            ObjectRef ref = MakeEntityRef(views[s].entities(), decl.type, id);
            std::string key = EntityRefKey(ref);
            occurrence.emplace(std::move(key), std::move(ref));
          }
        }
        auto [it, inserted] = bindings.try_emplace(decl.var);
        if (inserted) {
          it->second = std::move(occurrence);
          return;
        }
        // Later occurrence: intersect by attribute key; an emptied binding
        // proves no entity satisfies every occurrence — no join row exists.
        for (auto iter = it->second.begin(); iter != it->second.end();) {
          if (occurrence.count(iter->first) == 0) {
            iter = it->second.erase(iter);
          } else {
            ++iter;
          }
        }
        if (it->second.empty()) empty_result = true;
      };
      record_binding(pattern_ast.subject, /*is_subject=*/true);
      record_binding(pattern_ast.object, /*is_subject=*/false);
    }
  }

  // Nothing survived: a fully-degraded scatter is a failure, not an empty
  // answer (mirrors the fast path).
  if (partial && num_shards > 0) {
    bool all_dropped = true;
    for (size_t s = 0; s < num_shards; ++s) {
      all_dropped = all_dropped && shard_dropped[s];
    }
    if (all_dropped) {
      std::vector<Result<QueryResult>> statuses;
      statuses.reserve(num_shards);
      for (const ShardExecStatus& st : shard_status) {
        statuses.emplace_back(st.status);
      }
      return AggregateShardErrors(statuses);
    }
  }

  // Gather: rebuild the matched-event superset as a transient single
  // database and let the ordinary executor settle joins / windows /
  // DISTINCT / ORDER BY centrally. Records are re-derived through each
  // owning shard's entity store; dedup stays off so the (already
  // deduplicated) events survive verbatim. Append order is the merged
  // partition order, keeping the rebuild deterministic.
  StorageOptions mini_options;
  mini_options.dedup_window = 0;
  mini_options.partition_duration = views[0].options().partition_duration;
  AuditDatabase mini(mini_options);
  std::unordered_set<EventRef, EventRefHash> gathered;
  for (int p = 0; p < num_patterns; ++p) {
    for (size_t s = 0; s < num_shards; ++s) {
      for (EventRef event : matches[p].per_shard[s]) {
        if (!gathered.insert(event).second) continue;  // multi-pattern match
        // Cross-shard gathering is the memory-amplifying step: charge the
        // context per rebuilt event so a memory budget caps the rebuild.
        if (ctx != nullptr) {
          AIQL_RETURN_IF_ERROR(ctx->ChargeMemory(sizeof(EventRecord)));
        }
        AIQL_RETURN_IF_ERROR(
            mini.Append(RecordForEvent(event.Get(), views[s].entities())));
      }
    }
  }
  AIQL_RETURN_IF_ERROR(mini.Seal());
  Duration scatter_time = ElapsedUs(scatter_start);

  ReadView mini_view = mini.OpenReadView();
  QueryResult result;
  if (anomaly) {
    AnomalyExecutor central(&mini_view, options, pool);
    AIQL_ASSIGN_OR_RETURN(result, central.Execute(analyzed, ctx));
  } else {
    MultieventExecutor central(&mini_view, options, pool);
    AIQL_ASSIGN_OR_RETURN(result, central.Execute(analyzed, ctx));
  }
  result.stats.events_scanned += scatter_stats.events_scanned;
  result.stats.events_matched = scatter_stats.events_matched;
  result.stats.partitions_scanned += scatter_stats.partitions_scanned;
  result.stats.exec_time += scatter_time;
  result.degraded = SummarizeShards(std::move(shard_status));
  result.plan = "sharded scatter/gather over " + std::to_string(num_shards) +
                " shards (gathered " + std::to_string(gathered.size()) +
                " events into a transient database)\n" +
                result.plan;
  return result;
}

}  // namespace aiql
