#include "engine/aiql_engine.h"

#include <chrono>
#include <thread>

#include "engine/anomaly.h"
#include "engine/dependency.h"
#include "engine/executor.h"
#include "engine/shard_exec.h"
#include "query/analyzer.h"
#include "query/parser.h"
#include "storage/snapshot.h"
#include "storage/tiered.h"

namespace aiql {

namespace {

using Clock = std::chrono::steady_clock;

std::unique_ptr<ThreadPool> MakePool(const EngineOptions& options) {
  if (!options.enable_parallelism) return nullptr;
  size_t threads = options.num_threads != 0
                       ? options.num_threads
                       : std::max(1u, std::thread::hardware_concurrency());
  return std::make_unique<ThreadPool>(threads);
}

bool HasLimits(const QueryLimits& limits) {
  return limits.timeout.count() > 0 || limits.max_rows > 0 ||
         limits.max_nodes > 0 || limits.max_bytes > 0 ||
         limits.shard_policy != ShardPolicy::kStrict;
}

/// A query made ready for execution: parsed, a dependency query rewritten
/// into its multievent form, and analyzed. `analyzed` borrows the AST that
/// `parsed` (or `rewritten`) owns.
struct PreparedQuery {
  ParsedQuery parsed;
  std::unique_ptr<MultieventQueryAst> rewritten;
  AnalyzedQuery analyzed;
  Duration parse_time = 0;
};

Result<PreparedQuery> PrepareQuery(std::string_view text) {
  PreparedQuery query;
  auto parse_start = Clock::now();
  AIQL_ASSIGN_OR_RETURN(query.parsed, ParseAiql(text));
  query.parse_time = std::chrono::duration_cast<std::chrono::microseconds>(
                         Clock::now() - parse_start)
                         .count();
  if (query.parsed.kind == QueryKind::kDependency) {
    AIQL_ASSIGN_OR_RETURN(query.rewritten,
                          RewriteDependency(*query.parsed.dependency));
    AIQL_ASSIGN_OR_RETURN(
        query.analyzed,
        AnalyzeMultievent(*query.rewritten, QueryKind::kMultievent));
  } else {
    AIQL_ASSIGN_OR_RETURN(
        query.analyzed,
        AnalyzeMultievent(*query.parsed.multievent, query.parsed.kind));
  }
  return query;
}

}  // namespace

template <typename Store>
const ShardMap* AiqlEngine::OwnOneShard(const Store* store) {
  // A null store leaves the map empty; queries then fail cleanly.
  (void)own_map_.AddShard(store, kAllAgents);
  return &own_map_;
}

AiqlEngine::AiqlEngine(const AuditDatabase* db, EngineOptions options)
    : shards_(OwnOneShard(db)), options_(options), pool_(MakePool(options_)) {}

AiqlEngine::AiqlEngine(const SnapshotStore* snapshot, EngineOptions options)
    : shards_(OwnOneShard(snapshot)),
      options_(options),
      pool_(MakePool(options_)) {}

AiqlEngine::AiqlEngine(const TieredStore* tiered, EngineOptions options)
    : shards_(OwnOneShard(tiered)),
      options_(options),
      pool_(MakePool(options_)) {}

AiqlEngine::AiqlEngine(const ShardMap* shards, EngineOptions options)
    : shards_(shards), options_(options), pool_(MakePool(options_)) {}

AiqlEngine::~AiqlEngine() = default;

Result<QueryResult> AiqlEngine::Execute(std::string_view text) {
  // Engine-default governance: any nonzero default limit (or the partial
  // policy) builds a fresh per-query context; all-zero strict limits keep
  // the ungoverned hot path.
  if (HasLimits(options_.default_limits)) {
    QueryContext ctx(options_.default_limits);
    return Execute(text, &ctx);
  }
  return Execute(text, nullptr);
}

Result<QueryResult> AiqlEngine::Execute(std::string_view text,
                                        QueryContext* ctx) {
  AIQL_ASSIGN_OR_RETURN(PreparedQuery query, PrepareQuery(text));
  if (shards_->num_shards() == 0) {
    return Status::InvalidArgument("shard map has no shards");
  }
  // One consistent view per shard, taken before any work: a database view
  // holds the store's state lock shared, so ingestion keeps buffering while
  // this query runs and commits apply once the view closes. A snapshot- or
  // tiered-backed view instead selects against the on-disk directory and
  // materializes only the partitions this query touches.
  std::vector<ReadView> views = shards_->OpenReadViews();
  const AnalyzedQuery& analyzed = query.analyzed;
  const bool anomaly = analyzed.kind == QueryKind::kAnomaly;
  Result<QueryResult> result = Status::Internal("query not executed");
  if (views.size() == 1) {
    // Bind the context for the dispatching thread: partition selection may
    // materialize cold partitions, which charge the query's memory budget
    // through the ambient context (workers re-bind it themselves).
    ScopedQueryContext bind(ctx);
    if (anomaly) {
      result = AnomalyExecutor(&views[0], options_, pool_.get())
                   .Execute(analyzed, ctx);
    } else {
      result = MultieventExecutor(&views[0], options_, pool_.get())
                   .Execute(analyzed, ctx);
    }
  } else if (!anomaly && analyzed.ast->patterns.size() == 1) {
    result = ExecuteShardsFast(analyzed, views, options_, pool_.get(), ctx);
  } else {
    // Joins and window groups can span shards, so multi-pattern and
    // anomaly queries gather (per-shard results would not compose).
    result = ExecuteShardsGathered(analyzed, views, anomaly, options_,
                                   pool_.get(), ctx);
  }
  if (!result.ok()) return result;
  if (query.rewritten != nullptr) {
    result->plan = "dependency query rewritten to multievent:\n" + result->plan;
  }
  result->stats.parse_time = query.parse_time;
  return result;
}

Result<QueryKind> AiqlEngine::Check(std::string_view text) const {
  AIQL_ASSIGN_OR_RETURN(PreparedQuery query, PrepareQuery(text));
  return query.parsed.kind;
}

Result<std::string> AiqlEngine::Explain(std::string_view text) {
  AIQL_ASSIGN_OR_RETURN(QueryResult result, Execute(text));
  return result.plan;
}

Result<ProvenanceResult> AiqlEngine::Track(const TrackRequest& request) {
  if (HasLimits(options_.default_limits)) {
    QueryContext ctx(options_.default_limits);
    return Track(request, &ctx);
  }
  return Track(request, nullptr);
}

Result<ProvenanceResult> AiqlEngine::Track(const TrackRequest& request,
                                           QueryContext* ctx) {
  if (shards_->num_shards() == 0) {
    return Status::InvalidArgument("shard map has no shards");
  }
  // One atomic view per shard, taken up front — root resolution and every
  // hop run against this consistent snapshot.
  std::vector<ReadView> views = shards_->OpenReadViews();
  LikeMatcher matcher(request.name_like);
  std::vector<ShardEntity> roots;
  for (size_t s = 0; s < views.size(); ++s) {
    const EntityStore& entities = views[s].entities();
    std::vector<EntityId> ids;
    switch (request.type) {
      case EntityType::kProcess:
        ids = entities.FindProcessesByExe(matcher);
        break;
      case EntityType::kFile:
        ids = entities.FindFilesByPath(matcher);
        break;
      case EntityType::kNetwork:
        ids = entities.FindNetworksByIp(matcher, /*use_src=*/false);
        break;
    }
    for (EntityId id : ids) {
      roots.push_back(ShardEntity{static_cast<uint32_t>(s), request.type, id});
    }
  }
  if (roots.empty()) {
    return Status::NotFound("no " +
                            std::string(EntityTypeToString(request.type)) +
                            " entity matches '" + request.name_like + "'");
  }
  Timestamp anchor = request.anchor.value_or(
      request.options.backward ? INT64_MAX : INT64_MIN);
  // Shard retry and dropping apply only over more than one view, as with
  // Execute.
  return TrackProvenance(views, roots, anchor, request.options, pool_.get(),
                         ctx, views.size() > 1 ? &options_ : nullptr);
}

}  // namespace aiql
