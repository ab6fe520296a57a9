// AiqlEngine — the public query-system facade (the paper's Figure 1):
// language parser -> query optimization -> executors, over the optimized
// storage. This is the entry point examples and the REPL shell use.

#ifndef AIQL_ENGINE_AIQL_ENGINE_H_
#define AIQL_ENGINE_AIQL_ENGINE_H_

#include <memory>
#include <optional>
#include <string>
#include <string_view>

#include "common/status.h"
#include "common/thread_pool.h"
#include "engine/provenance.h"
#include "engine/result.h"
#include "engine/scheduler.h"
#include "query/ast.h"
#include "storage/database.h"

namespace aiql {

class SnapshotStore;
class ShardMap;
class TieredStore;

/// Point-of-interest specification for AiqlEngine::Track(): every entity of
/// `type` whose default attribute (exe name / path / dst ip) matches
/// `name_like` becomes a tracking root.
struct TrackRequest {
  std::string name_like;
  EntityType type = EntityType::kFile;
  /// Anchor timestamp: backward tracking admits events ending at or before
  /// it, forward tracking events starting at or after it. Defaults to the
  /// whole timeline (INT64_MAX backward, INT64_MIN forward).
  std::optional<Timestamp> anchor;
  ProvenanceOptions options;
};

/// Executes AIQL queries (multievent, dependency, anomaly) against an
/// AuditDatabase. Each Execute opens a ReadView — a consistent snapshot of
/// the currently-sealed partitions — so queries are safe and consistent
/// while a writer thread keeps ingesting (bounded staleness: events become
/// visible once their partition seals). Thread-safe for concurrent Execute
/// calls (views are shared-locked and the pool is internally synchronized).
class AiqlEngine {
 public:
  /// `db` must outlive the engine. It may still be ingesting; batch
  /// workloads Seal() it first so every event is visible.
  explicit AiqlEngine(const AuditDatabase* db, EngineOptions options = {});

  /// Executes queries directly against a lazily opened v2 snapshot: each
  /// query materializes (and caches) only the partitions its time range and
  /// agent filter select, so the cold-start cost tracks data touched, not
  /// data stored. `snapshot` must outlive the engine.
  explicit AiqlEngine(const SnapshotStore* snapshot,
                      EngineOptions options = {});

  /// Tiered-retention mode: queries run over the store's hot + cold
  /// partitions through one consistent view; cold partitions selected by a
  /// query materialize through the store's memory-budgeted cache (blocking
  /// the query mid-stream for the reopen I/O) and are charged to the
  /// query's byte budget. `tiered` must outlive the engine.
  explicit AiqlEngine(const TieredStore* tiered, EngineOptions options = {});

  /// Sharded mode: queries scatter across the map's shards (each backed by
  /// a database or snapshot keyed by agent range) and gather through the
  /// merge layer; Track() exchanges provenance frontiers across shards.
  /// Single-db construction and semantics are unchanged. `shards` must
  /// outlive the engine.
  explicit AiqlEngine(const ShardMap* shards, EngineOptions options = {});

  ~AiqlEngine();

  /// Parses, analyzes, optimizes, and executes `text`. When
  /// EngineOptions::default_limits sets any limit, the run is governed by a
  /// per-query QueryContext built from them (deadline / budget breaches
  /// surface as kDeadlineExceeded / kResourceExhausted); all-zero limits
  /// keep the ungoverned hot path.
  Result<QueryResult> Execute(std::string_view text);

  /// Same, governed by a caller-owned context — the caller can Cancel() it
  /// from another thread, inspect charged budgets afterwards, or share one
  /// context across several queries under a common deadline.
  Result<QueryResult> Execute(std::string_view text, QueryContext* ctx);

  /// Syntax/semantic check only (the web UI's query debugging feature):
  /// returns OK plus the query kind without executing.
  Result<QueryKind> Check(std::string_view text) const;

  /// Returns the execution plan without running the query.
  Result<std::string> Explain(std::string_view text);

  /// Iterative causal provenance tracking (engine/provenance.h) from the
  /// entities matching `request`. Runs against the same consistent ReadView
  /// machinery as Execute — including lazily materialized snapshot views,
  /// where each hop reads only the partitions its time bounds select.
  /// Governance mirrors Execute (default_limits / caller context). A
  /// single store is tracked as a one-view shard list: each hop makes one
  /// partition-selection attempt and a storage error fails the track with
  /// its own code. Over a ShardMap each shard's per-hop selection follows
  /// the engine's retry/degradation policy (shard_max_attempts,
  /// shard_retry_backoff, shard_policy), as Execute does.
  Result<ProvenanceResult> Track(const TrackRequest& request);
  Result<ProvenanceResult> Track(const TrackRequest& request,
                                 QueryContext* ctx);

  const EngineOptions& options() const { return options_; }

 private:
  Result<QueryResult> Dispatch(const ParsedQuery& parsed, QueryContext* ctx);

  /// Opens the backing store's read view (database, tiered, or snapshot).
  ReadView OpenView() const;

  const AuditDatabase* db_ = nullptr;
  const SnapshotStore* snapshot_ = nullptr;
  const TieredStore* tiered_ = nullptr;
  const ShardMap* shards_ = nullptr;
  EngineOptions options_;
  std::unique_ptr<ThreadPool> pool_;
};

}  // namespace aiql

#endif  // AIQL_ENGINE_AIQL_ENGINE_H_
