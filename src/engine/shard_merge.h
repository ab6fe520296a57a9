// Gather-side result merging for the sharded scatter/gather executor.
//
// The fast execution path runs a complete single-shard query per shard and
// merges the per-shard tables here. Merge semantics mirror the single-db
// emit phase:
//   * ORDER BY: each shard's table is already sorted by the resolved order
//     keys, so the merge is a k-way top-k heap merge. Ties (equal keys)
//     break by (shard index, per-shard row index) — deterministic, and the
//     key *sequence* matches the single-db engine's (tie groups may permute,
//     which the tie-aware oracle comparison accepts).
//   * DISTINCT: rows are deduplicated again across shards — disjoint event
//     routing does not make projected rows disjoint (two shards can project
//     the same entity attributes), so per-shard dedup is not enough.
//   * LIMIT: the merge stops after `limit` emitted rows. Per-shard LIMIT
//     pushdown stays sound because the global top-L is contained in the
//     union of per-shard top-Ls.
// Statistics are summed across shards; any shard error fails the whole
// merge with an aggregate Status naming every failed shard and its cause
// (code taken from the lowest failed shard index).

#ifndef AIQL_ENGINE_SHARD_MERGE_H_
#define AIQL_ENGINE_SHARD_MERGE_H_

#include <algorithm>
#include <chrono>
#include <cstddef>
#include <string>
#include <utility>
#include <vector>

#include "common/cancellation.h"
#include "common/status.h"
#include "engine/result.h"
#include "engine/scheduler.h"

namespace aiql {

/// How to merge per-shard tables — derived from the query by the sharded
/// executor (ResolveOrderColumns for `order_keys`).
struct ShardMergeSpec {
  bool distinct = false;
  /// (column index, descending) sort keys; empty means unordered (concat).
  std::vector<std::pair<size_t, bool>> order_keys;
  /// Maximum rows to emit; negative means unlimited.
  int64_t limit = -1;
};

/// Three-way row comparison by the given keys, identical to the comparator
/// inside OrderResultRows (numbers numeric, strings lexicographic).
int CompareRowsByKeys(const std::vector<Value>& a, const std::vector<Value>& b,
                      const std::vector<std::pair<size_t, bool>>& keys);

/// Shard-layer transient-failure classification: storage-level faults
/// (I/O errors, checksum failures, unavailability) that are worth a bounded
/// retry, and that map to kUnavailable once retries exhaust. Query-level
/// errors (parse/semantic/deadline/cancel/budget) are never transient.
bool IsTransientShardError(StatusCode code);

/// Attempts per shard operation over a multi-shard map: one try plus two
/// retries of a transient storage fault.
inline constexpr int kShardMaxAttempts = 3;

/// True when `ctx` asks for ShardPolicy::kPartial (a null context is
/// strict).
inline bool PartialShardPolicy(const QueryContext* ctx) {
  return ctx != nullptr && ctx->limits().shard_policy == ShardPolicy::kPartial;
}

/// Runs `attempt` with bounded retry/backoff for transient storage faults
/// (kShardMaxAttempts attempts, first backoff options.shard_retry_backoff).
/// The backoff doubles per retry and sleeps interruptibly, so
/// deadline/cancel cut it short. After retries exhaust, a transient error
/// is mapped to kUnavailable naming the shard and the underlying cause.
/// `attempts_out` reports the total attempts made. Shared by scattered
/// query execution and the per-hop partition selection of sharded
/// provenance tracking.
template <typename Fn>
auto AttemptShard(size_t shard, const EngineOptions& options, QueryContext* ctx,
                  int* attempts_out, Fn&& attempt)
    -> decltype(attempt()) {
  auto backoff = options.shard_retry_backoff;
  int attempts = 0;
  decltype(attempt()) last = Status::Internal("shard not attempted");
  while (attempts < kShardMaxAttempts) {
    ++attempts;
    if (ctx != nullptr) {
      Status governed = ctx->Check();
      if (!governed.ok()) {
        last = governed;
        break;
      }
    }
    last = attempt();
    if (last.ok() || !IsTransientShardError(last.status().code())) break;
    if (attempts >= kShardMaxAttempts) break;
    InterruptibleSleep(
        std::chrono::duration_cast<std::chrono::microseconds>(backoff));
    backoff *= 2;
  }
  *attempts_out = attempts;
  if (!last.ok() && IsTransientShardError(last.status().code())) {
    last = Status::Unavailable(
        "shard " + std::to_string(shard) + " unavailable after " +
        std::to_string(attempts) + " attempt(s): " + last.status().ToString());
  }
  return last;
}

/// Builds the aggregate failure Status for a scatter with errors: every
/// failed shard's index and cause appear in the message ("shard 1:
/// IOError: ...; shard 3: ..."); the code is the lowest failed shard's.
Status AggregateShardErrors(const std::vector<Result<QueryResult>>& results);

/// Merges per-shard query results into one. `shard_results` is indexed by
/// shard; errors in any slots fail the merge with their aggregate Status
/// (AggregateShardErrors — every failed shard named, not just the first).
/// Empty and single-shard inputs degenerate to (filtered) concatenation.
/// Column sets must agree across shards. `ctx` (optional) is charged one
/// row per emitted row and checked at stride granularity; a budget breach
/// mid-merge aborts with the context's sticky status.
Result<QueryResult> MergeShardResults(
    std::vector<Result<QueryResult>> shard_results, const ShardMergeSpec& spec,
    QueryContext* ctx = nullptr);

}  // namespace aiql

#endif  // AIQL_ENGINE_SHARD_MERGE_H_
