// Scatter/gather query execution over the views of a multi-shard map.
// AiqlEngine prepares the query, takes one ReadView per shard (each atomic
// against its shard, so scatter is safe while shards keep ingesting) and,
// when there is more than one view, calls one of two paths:
//
//  * Fast path (single-pattern multievent / rewritten dependency): the
//    complete query runs on every shard independently and the per-shard
//    tables meet in the merge layer (engine/shard_merge.h) — ORDER BY/LIMIT
//    as a top-k heap merge with per-shard LIMIT pushdown, DISTINCT with
//    cross-shard re-dedup. Sound because a single-pattern row is a function
//    of one event, and every event lives on exactly one shard.
//
//  * Gathered path (multi-pattern multievent, anomaly): joins and window
//    groups can span shards (an entity variable can bind events on two
//    hosts), so per-shard execution would lose rows. Instead the scan phase
//    scatters: each pattern scans all shards partition-parallel in global
//    pruning-power order (cardinalities summed across shards), exchanging
//    prunes globally between patterns — semi-join bindings travel as
//    attribute tuples (shard ids are not comparable) and re-resolve into
//    each shard's id space; temporal envelopes combine across shards before
//    tightening later patterns' time ranges. The gathered superset of
//    matching events is rebuilt into a transient in-memory database and the
//    ordinary single-db executor finishes centrally — it re-checks every
//    predicate, so scatter over-gathering never changes results, and the
//    pruning rules are the same sound rules the single-db engine applies,
//    so under-gathering cannot happen either.

#ifndef AIQL_ENGINE_SHARD_EXEC_H_
#define AIQL_ENGINE_SHARD_EXEC_H_

#include <vector>

#include "common/status.h"
#include "common/thread_pool.h"
#include "engine/result.h"
#include "engine/scheduler.h"
#include "query/analyzer.h"
#include "storage/database.h"

namespace aiql {

/// Fast path: runs the complete single-pattern query on every view and
/// merges the per-shard tables. Result semantics match the single-db engine
/// over the union of all shards' data.
///
/// `ctx` (optional) governs the run and carries the shard policy. Each
/// shard attempt retries transient storage faults with doubled backoff
/// (kShardMaxAttempts / options.shard_retry_backoff), then either fails the
/// query with an aggregate all-shard-errors Status (kStrict) or drops the
/// shard and merges the survivors, annotating QueryResult::degraded per
/// shard (kPartial). A shard that misses the deadline is dropped the same
/// way in partial mode — the deadline is lifted for the bounded merge of
/// the surviving shards.
Result<QueryResult> ExecuteShardsFast(const AnalyzedQuery& analyzed,
                                      std::vector<ReadView>& views,
                                      const EngineOptions& options,
                                      ThreadPool* pool, QueryContext* ctx);

/// Gathered path (multi-pattern multievent, anomaly): scatters the scans,
/// gathers the matching events and finishes centrally. Degrades (per the
/// policy above) on storage faults only; deadline / cancel / budget
/// violations abort it in both policies (its central re-execution cannot
/// produce a sound subset mid-scatter).
Result<QueryResult> ExecuteShardsGathered(const AnalyzedQuery& analyzed,
                                          std::vector<ReadView>& views,
                                          bool anomaly,
                                          const EngineOptions& options,
                                          ThreadPool* pool, QueryContext* ctx);

}  // namespace aiql

#endif  // AIQL_ENGINE_SHARD_EXEC_H_
