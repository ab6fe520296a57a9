// Iterative causal provenance tracking (the investigation loop the paper's
// dependency queries cannot express: §2.3 declares fixed-length paths,
// while a real investigation starts from one point-of-interest event and
// expands an unknown number of hops).
//
// TrackProvenance runs frontier expansion over the sealed partitions of a
// list of ReadViews — one per shard of a ShardMap, or a one-element list for
// a single store: each hop expands every frontier entity through the reverse
// entity indexes built at Seal() (see storage/partition.h), following the
// information-flow direction of each operation —
//
//   subject -> object : write, start, end, delete, rename, connect
//   object  -> subject: read, execute, accept
//
// Backward tracking answers "where did this come from": from a frontier
// entity with time bound t it admits only in-flow events ending at or
// before t, and the discovered source entity inherits the event's start as
// its own (earlier) bound — hops are time-monotonic, so a backward search
// can only march into the past (forward tracking mirrors this into the
// future). Per-hop op/entity filters and depth / per-node fanout / total
// node budgets keep a noisy entity (a hot log file, a chatty service) from
// blowing the search up.
//
// The result is a dependency graph (entities as nodes, events as edges)
// that graph-layer exporters render as DOT or Cypher, plus per-hop latency
// and scan statistics for the bench harness.

#ifndef AIQL_ENGINE_PROVENANCE_H_
#define AIQL_ENGINE_PROVENANCE_H_

#include <cstdint>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "common/cancellation.h"
#include "common/status.h"
#include "common/thread_pool.h"
#include "common/time_utils.h"
#include "storage/database.h"

namespace aiql {

/// Operations whose information flow runs subject -> object.
inline constexpr OpMask kSubjectToObjectOps =
    OpBit(OpType::kWrite) | OpBit(OpType::kStart) | OpBit(OpType::kEnd) |
    OpBit(OpType::kDelete) | OpBit(OpType::kRename) | OpBit(OpType::kConnect);

/// Operations whose information flow runs object -> subject.
inline constexpr OpMask kObjectToSubjectOps =
    OpBit(OpType::kRead) | OpBit(OpType::kExecute) | OpBit(OpType::kAccept);

static_assert((kSubjectToObjectOps | kObjectToSubjectOps) == kAllOps,
              "every operation has a flow direction");

/// Budgets and filters for one tracking run.
struct ProvenanceOptions {
  /// true = backward (find causes), false = forward (find effects).
  bool backward = true;

  /// Maximum number of hops from the root frontier.
  int max_depth = 8;

  /// Events expanded per frontier entity per hop; the closest-in-time
  /// events win when the cap binds (0 = unbounded).
  size_t max_fanout = 64;

  /// Total node budget including the roots; expansion stops adding nodes
  /// (and marks the result truncated) once reached (0 = unbounded).
  size_t max_nodes = 4096;

  /// Maximum temporal gap bridged by one hop, measured against the frontier
  /// entity's time bound; 0 = unbounded. Roots anchored at the open end of
  /// the timeline (no anchor) are exempt on the first hop — the window
  /// limits event-to-event gaps, not the open timeline end.
  Duration hop_window = 0;

  /// Operations traversed (per-hop op filter).
  OpMask op_mask = kAllOps;

  /// Entity types a hop may expand into (per-hop entity filter).
  bool follow_processes = true;
  bool follow_files = true;
  bool follow_networks = true;

  /// Global clamp on event start timestamps (nullopt = whole timeline).
  std::optional<TimeRange> window;

  /// Restrict hops to these agents (nullopt = all agents).
  std::optional<std::vector<AgentId>> agents;
};

/// One entity in the provenance graph.
struct ProvenanceNode {
  EntityType type = EntityType::kProcess;
  EntityId id = 0;
  int depth = 0;        ///< hop at which the entity was first reached
  Timestamp bound = 0;  ///< time bound in effect when it was reached
  /// Shard whose EntityStore `id` belongs to (0 on single-database runs) —
  /// render names via that shard's store.
  uint32_t shard = 0;
};

/// One event in the provenance graph. `from` flows into `to`
/// (cause -> effect), regardless of tracking direction.
struct ProvenanceEdge {
  Event event;
  uint32_t from = 0;  ///< node index of the flow source
  uint32_t to = 0;    ///< node index of the flow destination
  int hop = 0;        ///< hop that discovered the event
};

/// One frontier expansion clipped by a fanout or node budget: at `hop`,
/// expanding node `node`, `dropped` admissible candidate events were cut.
struct TruncatedExpansion {
  int hop = 0;
  uint32_t node = 0;
  uint64_t dropped = 0;
};

/// Per-shard outcome of a sharded tracking run (degraded execution).
struct ShardTrackStatus {
  uint32_t shard = 0;
  Status status;      ///< OK, or the fault that dropped / failed the shard
  int attempts = 1;   ///< maximum attempts any hop spent on this shard
  bool dropped = false;
};

/// Execution statistics of one tracking run.
struct ProvenanceStats {
  int hops = 0;                           ///< hops actually executed
  uint64_t events_inspected = 0;          ///< posting entries examined
  uint64_t partitions_selected = 0;       ///< partition scans across hops
  std::vector<Duration> hop_latency_us;   ///< wall time per hop
  /// True when a fanout/node/depth budget clipped the expansion or a shard
  /// was dropped (the graph is a prefix of the full provenance closure).
  bool truncated = false;
  /// Which frontier expansions the fanout / node budgets clipped, and how
  /// many candidates each cut (depth-budget truncation has no entry — it is
  /// visible as a non-empty final frontier, `truncated` alone).
  std::vector<TruncatedExpansion> truncated_expansions;
  /// Shard-map runs only: one entry per shard that needed retries or was
  /// dropped (clean shards are omitted).
  std::vector<ShardTrackStatus> shard_status;
  int shards_dropped = 0;
};

/// The dependency graph recovered by one tracking run. nodes[0..num_roots)
/// are the point-of-interest entities at depth 0.
struct ProvenanceResult {
  std::vector<ProvenanceNode> nodes;
  std::vector<ProvenanceEdge> edges;
  size_t num_roots = 0;
  ProvenanceStats stats;
};

/// An entity addressed in one shard's id space (tracking roots; shard 0 on
/// a single store).
struct ShardEntity {
  uint32_t shard = 0;
  EntityType type = EntityType::kProcess;
  EntityId id = 0;
};

struct EngineOptions;

/// Tracks provenance from `roots` (each anchored at `anchor`) over `views`,
/// one per shard (index = shard; a single store passes one view): backward
/// admits events ending at or before the anchor, forward events starting at
/// or after it. `pool` may be null (hops then scan partitions serially).
///
/// Entity ids are per-shard: a node created on one shard is translated by
/// attribute tuple into every other shard that has interned it, so a
/// frontier entity discovered on shard A seeds hops on every shard, and when
/// paths on different shards reach one logical entity the looser (wider)
/// time bound wins and the entity re-expands. Per-hop partition scans run
/// over the globally merged (bucket, agent) partition order, so with the
/// same records an untruncated run recovers exactly the graph a merged
/// single database would (truncation tie-breaks match too, except exact time
/// ties straddling a fanout cut across shards).
///
/// `ctx` (optional) governs the run: posting entries inspected charge the
/// row budget, node admissions charge the node budget, and every hop
/// checkpoints — a breach aborts with the context's sticky status
/// (kDeadlineExceeded / kCancelled / kResourceExhausted).
///
/// Fails when `views` or `roots` is empty, or when a view cannot
/// materialize a selected partition. With `shard_retry` null (one view)
/// each hop makes one selection attempt per view and a storage error fails
/// the run with its own code. With `shard_retry` set (the views are the
/// shards of a multi-shard map) each shard's per-hop selection runs under
/// AttemptShard with kShardMaxAttempts / its shard_retry_backoff; an
/// exhausted shard fails the run with kUnavailable naming the shard and
/// cause, or — when `ctx` sets ShardPolicy::kPartial — is dropped for the
/// rest of the run, annotated in stats.shard_status with the graph marked
/// truncated.
Result<ProvenanceResult> TrackProvenance(
    const std::vector<ReadView>& views, const std::vector<ShardEntity>& roots,
    Timestamp anchor, const ProvenanceOptions& options,
    ThreadPool* pool = nullptr, QueryContext* ctx = nullptr,
    const EngineOptions* shard_retry = nullptr);

}  // namespace aiql

#endif  // AIQL_ENGINE_PROVENANCE_H_
