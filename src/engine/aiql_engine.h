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
#include "storage/shard_map.h"

namespace aiql {

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

/// Executes AIQL queries (multievent, dependency, anomaly) and provenance
/// tracks over a ShardMap; a single store is a one-shard map the engine
/// owns. Each query opens one ReadView per shard — a consistent snapshot of
/// the currently-sealed partitions — so queries are safe while a writer
/// keeps ingesting (events become visible once their partition seals). One
/// view runs the per-store executor directly; more views scatter and gather
/// (engine/shard_exec.h). Thread-safe for concurrent Execute/Track calls.
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

  /// Sharded mode: with more than one shard, queries scatter across the
  /// map's shards (each backed by a database, snapshot or tiered store keyed
  /// by agent range) and gather through the merge layer; Track() exchanges
  /// provenance frontiers across shards. A one-shard map runs exactly like
  /// its single store. `shards` must outlive the engine.
  explicit AiqlEngine(const ShardMap* shards, EngineOptions options = {});

  ~AiqlEngine();

  /// Parses, analyzes, optimizes, and executes `text`. When
  /// EngineOptions::default_limits sets any limit or the partial shard
  /// policy, the run is governed by a per-query QueryContext built from
  /// them (deadline / budget breaches surface as kDeadlineExceeded /
  /// kResourceExhausted); all-zero strict limits keep the ungoverned hot
  /// path.
  Result<QueryResult> Execute(std::string_view text);

  /// Same, governed by a caller-owned context — the caller can Cancel() it
  /// from another thread, inspect charged budgets afterwards, or share one
  /// context across several queries under a common deadline. Its limits
  /// also carry the shard policy (null = strict), which, like retries,
  /// applies only over more than one shard (engine/shard_exec.h).
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
  /// Governance, retry and shard policy mirror Execute.
  Result<ProvenanceResult> Track(const TrackRequest& request);
  Result<ProvenanceResult> Track(const TrackRequest& request,
                                 QueryContext* ctx);

  const EngineOptions& options() const { return options_; }

  /// The map the engine serves (a one-shard map for a single store), for
  /// rendering a track node through entities(node.shard).
  const ShardMap& shards() const { return *shards_; }

 private:
  /// Fills the engine's own one-shard map with `store` and returns it.
  template <typename Store>
  const ShardMap* OwnOneShard(const Store* store);

  ShardMap own_map_;  ///< the one-shard map of a single-store engine
  const ShardMap* shards_;
  EngineOptions options_;
  std::unique_ptr<ThreadPool> pool_;
};

}  // namespace aiql

#endif  // AIQL_ENGINE_AIQL_ENGINE_H_
