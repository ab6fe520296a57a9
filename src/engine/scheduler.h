// Pruning-power scheduling (paper §2.3, key insight #1).
//
// For a query with multiple event patterns, the engine prioritizes the
// search of patterns with higher pruning power — i.e. the smallest expected
// number of matching events — so that the bindings they produce prune later,
// less selective scans (semi-join reduction). Cardinality is estimated from
// partition statistics: exact time-clipped per-operation posting-list
// counts (OpCountInRange) and per-subject-executable event counts, scaled
// by candidate-set selectivity on the object side.

#ifndef AIQL_ENGINE_SCHEDULER_H_
#define AIQL_ENGINE_SCHEDULER_H_

#include <cstddef>
#include <cstdint>
#include <optional>
#include <vector>

#include "common/cancellation.h"
#include "engine/data_query.h"
#include "storage/database.h"

namespace aiql {

/// Engine knobs; defaults enable every optimization. The ablation benchmark
/// toggles them individually.
struct EngineOptions {
  /// Reorder patterns by estimated pruning power (insight #1).
  bool enable_reordering = true;
  /// Partition-parallel scan execution (insight #2). 0 threads = hardware
  /// concurrency.
  bool enable_parallelism = true;
  size_t num_threads = 0;
  /// Semi-join pruning: bindings from already-executed patterns restrict
  /// the candidate sets of later scans.
  bool enable_semi_join = true;
  /// Temporal pruning: `before`/`after` relations tighten later scans'
  /// time ranges using matched events' timestamps.
  bool enable_temporal_pruning = true;

  // --- Query governance (deadlines, budgets, degraded execution) ---

  /// Default limits (and shard policy) applied to every Execute()/Track()
  /// when the caller does not pass its own QueryContext. All-zero limits
  /// with the strict policy = ungoverned.
  QueryLimits default_limits;
  /// Backoff before a shard's second attempt (of kShardMaxAttempts);
  /// doubles per retry. Interruptible by deadline/cancel.
  std::chrono::milliseconds shard_retry_backoff{5};
};

/// Estimates the number of events matching `pattern` within the sealed
/// partitions the read view selects for its time range and `agents`, from
/// directory statistics (ReadView::CountForEstimate). Fails only when a
/// cold partition the range cuts through cannot be materialized (I/O error
/// or corruption).
Result<double> EstimateCardinality(
    const CompiledPattern& pattern, const ReadView& view,
    const std::optional<std::vector<AgentId>>& agents);

/// Fills estimated_cardinality on each pattern and returns the execution
/// order (indexes into `patterns`): ascending estimate when reordering is
/// on, original order otherwise. Propagates partition-materialization
/// failures from snapshot-backed views.
Result<std::vector<size_t>> SchedulePatterns(
    std::vector<CompiledPattern>* patterns, const ReadView& view,
    const std::optional<std::vector<AgentId>>& agents,
    const EngineOptions& options);

}  // namespace aiql

#endif  // AIQL_ENGINE_SCHEDULER_H_
