// Machine-readable benchmark runner: executes the fig4 + fig5 AIQL query
// suites and the storage micro-bench at a pinned seed/rate and writes one
// JSON document (see README.md "Benchmark JSON schema"). With --baseline it
// embeds per-query before/after speedups against a previous run's JSON, so
// every perf PR records its trajectory in a single checked-in file.
//
//   $ ./build/bench/bench_runner --label before --out /tmp/before.json
//   $ ./build/bench/bench_runner --label after
//         --baseline /tmp/before.json --out BENCH_PR2.json
//
// Scale knobs are the usual AIQL_BENCH_* environment variables (see
// bench_common.h) plus AIQL_BENCH_REPEAT (per-query repetitions, best-of).

#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "bench_common.h"
#include "common/cancellation.h"
#include "common/failpoint.h"
#include "common/thread_pool.h"
#include "engine/aiql_engine.h"
#include "engine/scan.h"
#include "query/parser.h"
#include "simulator/queries_a.h"
#include "simulator/queries_c.h"
#include "simulator/replay.h"
#include "simulator/scenario.h"
#include "storage/shard_map.h"
#include "storage/snapshot.h"
#include "storage/tiered.h"

using namespace aiql;
using namespace aiql_bench;

namespace {

struct QueryRun {
  std::string suite;
  std::string id;
  int64_t wall_us = 0;
  size_t rows = 0;
  uint64_t events_scanned = 0;
  uint64_t events_matched = 0;
  uint64_t partitions_scanned = 0;
  int patterns = 0;
  bool op_selective = false;  ///< every pattern constrains <= 2 operations
  bool like_heavy = false;    ///< some entity constraint carries a wildcard
  bool failed = false;        ///< some repetition returned an error
  std::optional<int64_t> baseline_us;
};

struct StorageRun {
  int64_t ingest_us = 0;
  int64_t scan_us = 0;
  uint64_t raw_events = 0;
  uint64_t stored_events = 0;
  uint64_t partitions = 0;
  uint64_t scan_checksum = 0;  ///< keeps the scan loop observable
};

/// One query's streaming-mode measurements: latency while ingest runs
/// (live), plus a final post-Seal run verified against the sealed-batch
/// row count.
struct StreamQueryRun {
  std::string suite;
  std::string id;
  int live_runs = 0;
  int64_t live_total_us = 0;
  int64_t live_max_us = 0;
  int64_t final_wall_us = 0;
  size_t final_rows = 0;
  size_t expected_rows = 0;
  bool rows_match = false;
  bool failed = false;  ///< some live or final execution returned an error
};

/// One suite's streaming run: ingest at a pinned rate concurrent with the
/// suite's queries.
struct StreamSuiteRun {
  std::string suite;
  uint64_t records = 0;
  int64_t ingest_wall_us = 0;
  uint64_t partitions = 0;
  uint64_t partitions_sealed = 0;
  bool ingest_failed = false;
  std::vector<StreamQueryRun> queries;
};

/// Streams `records` into a fresh database at `rate` records/second
/// (background sealing on a small pool) while executing `queries`
/// round-robin on the calling thread; then seals and verifies each query's
/// row count against `expected` (suite/id -> sealed-batch rows).
StreamSuiteRun RunStreamingSuite(const std::string& suite,
                                 const std::vector<EventRecord>& records,
                                 const std::vector<CatalogQuery>& queries,
                                 const std::map<std::string, size_t>& expected,
                                 double rate) {
  StreamSuiteRun out;
  out.suite = suite;
  out.records = records.size();

  ThreadPool seal_pool(2);
  StorageOptions storage;
  storage.seal_pool = &seal_pool;
  AuditDatabase db(storage);
  AiqlEngine engine(&db);

  out.queries.resize(queries.size());
  for (size_t i = 0; i < queries.size(); ++i) {
    out.queries[i].suite = suite;
    out.queries[i].id = queries[i].id;
    auto it = expected.find(suite + "/" + queries[i].id);
    out.queries[i].expected_rows = it == expected.end() ? 0 : it->second;
  }

  ReplayOptions replay;
  replay.events_per_second = rate;
  StreamReplayer replayer(&db, &records, replay);
  replayer.Start();

  // Live phase: interleave the suite's queries with the ongoing ingest.
  size_t qi = 0;
  while (!replayer.done()) {
    StreamQueryRun& q = out.queries[qi % queries.size()];
    const CatalogQuery& query = queries[qi % queries.size()];
    ++qi;
    int64_t us = TimeUs([&] {
      auto result = engine.Execute(query.text);
      if (!result.ok()) {
        q.failed = true;
        std::fprintf(stderr, "  stream %s %s live FAILED: %s\n",
                     suite.c_str(), query.id.c_str(),
                     result.status().ToString().c_str());
      }
    });
    q.live_runs += 1;
    q.live_total_us += us;
    q.live_max_us = std::max(q.live_max_us, us);
  }
  Status ingest_status = replayer.Join();
  if (!ingest_status.ok()) {
    out.ingest_failed = true;
    std::fprintf(stderr, "  stream %s ingest FAILED: %s\n", suite.c_str(),
                 ingest_status.ToString().c_str());
  }
  out.ingest_wall_us = replayer.wall_us();
  if (!db.Seal().ok()) out.ingest_failed = true;
  out.partitions = db.stats().total_partitions;
  out.partitions_sealed = db.stats().partitions_sealed;

  // Verification phase: after the final seal every query must reproduce
  // the sealed-batch row count exactly.
  for (size_t i = 0; i < queries.size(); ++i) {
    StreamQueryRun& q = out.queries[i];
    q.final_wall_us = TimeUs([&] {
      auto result = engine.Execute(queries[i].text);
      if (result.ok()) {
        q.final_rows = result->table.num_rows();
      } else {
        q.failed = true;
        std::fprintf(stderr, "  stream %s %s final FAILED: %s\n",
                     suite.c_str(), queries[i].id.c_str(),
                     result.status().ToString().c_str());
      }
    });
    q.rows_match = !q.failed && q.final_rows == q.expected_rows;
  }
  return out;
}

/// Snapshot store benchmark: on-disk size and cold-start
/// time-to-first-query-result of the v2 partition-granular store (lazy
/// open).
struct SnapshotBench {
  uint64_t v2_bytes = 0;
  int64_t v2_save_us = 0;
  int64_t v2_open_us = 0;         ///< footer + statistics + entities only
  int64_t v2_first_query_us = 0;  ///< first query (materializes on demand)
  size_t rows_mem = 0;
  size_t rows_v2 = 0;
  uint64_t v2_partitions_loaded = 0;
  uint64_t v2_partitions_total = 0;
  bool rows_match = false;            ///< first query: mem == v2
  bool all_query_rows_match = false;  ///< whole suite served from v2 store
  bool failed = false;

  int64_t v2_cold_start_us() const { return v2_open_us + v2_first_query_us; }
};

/// Provenance tracking benchmark: backward track from the simulator's
/// planted exfiltration POI, from the live database and from a lazily
/// opened v2 snapshot, with per-hop latency and partitions-materialized
/// counts. Chain recovery is a correctness gate (exit non-zero when the
/// planted chain is not recovered exactly).
struct ProvenanceTrackRun {
  int64_t track_us = 0;
  std::vector<Duration> hop_us;
  size_t nodes = 0;
  size_t edges = 0;
  int hops = 0;
  uint64_t events_inspected = 0;
  uint64_t partition_scans = 0;
  bool truncated = false;
  bool chain_recovered = false;
};

struct ProvenanceBench {
  ProvenanceTrackRun db;
  ProvenanceTrackRun snapshot;
  int64_t snapshot_open_us = 0;
  uint64_t snapshot_partitions_loaded = 0;
  uint64_t snapshot_partitions_total = 0;
  size_t chain_nodes = 0;
  bool failed = false;
};

ProvenanceTrackRun RunProvenanceTrack(AiqlEngine* engine,
                                      const EntityStore& entities,
                                      const ExfilChainTruth& truth) {
  ProvenanceTrackRun run;
  TrackRequest request;
  request.type = EntityType::kNetwork;
  request.name_like = truth.poi_like;
  request.anchor = truth.anchor;
  Result<ProvenanceResult> result = Status::Internal("not run");
  run.track_us = TimeUs([&] { result = engine->Track(request); });
  if (!result.ok()) {
    std::fprintf(stderr, "provenance track FAILED: %s\n",
                 result.status().ToString().c_str());
    return run;
  }
  run.hop_us = result->stats.hop_latency_us;
  run.nodes = result->nodes.size();
  run.edges = result->edges.size();
  run.hops = result->stats.hops;
  run.events_inspected = result->stats.events_inspected;
  run.partition_scans = result->stats.partitions_selected;
  run.truncated = result->stats.truncated;

  std::set<std::pair<EntityType, std::string>> recovered, expected(
      truth.chain.begin(), truth.chain.end());
  for (const ProvenanceNode& node : result->nodes) {
    recovered.emplace(node.type, entities.EntityName(node.type, node.id));
  }
  run.chain_recovered = recovered == expected &&
                        result->nodes.size() == truth.chain.size() &&
                        result->edges.size() == truth.chain_events &&
                        !result->stats.truncated;
  if (!run.chain_recovered) {
    std::fprintf(stderr,
                 "provenance chain NOT recovered: %zu nodes (want %zu), "
                 "%zu edges (want %zu)%s\n",
                 result->nodes.size(), truth.chain.size(),
                 result->edges.size(), truth.chain_events,
                 result->stats.truncated ? ", truncated" : "");
  }
  return run;
}

ProvenanceBench RunProvenanceBench() {
  ProvenanceBench bench;
  ExfilScenarioData data = GenerateExfilScenario(BenchScenarioOptions());
  bench.chain_nodes = data.truth.chain.size();
  auto db = IngestRecords(data.records, StorageOptions{});
  if (!db.ok()) {
    std::fprintf(stderr, "provenance ingest failed: %s\n",
                 db.status().ToString().c_str());
    bench.failed = true;
    return bench;
  }
  {
    AiqlEngine engine(&*db);
    bench.db = RunProvenanceTrack(&engine, db->entities(), data.truth);
  }

  struct TempFile {
    std::string path;
    ~TempFile() { std::remove(path.c_str()); }
  };
  TempFile snap{"/tmp/aiql_bench_provenance." +
                std::to_string(std::chrono::steady_clock::now()
                                   .time_since_epoch()
                                   .count()) +
                ".snap"};
  Status save = SaveSnapshot(*db, snap.path);
  if (!save.ok()) {
    std::fprintf(stderr, "provenance snapshot save failed: %s\n",
                 save.ToString().c_str());
    bench.failed = true;
    return bench;
  }
  Result<std::unique_ptr<SnapshotStore>> store =
      Status::Internal("not opened");
  bench.snapshot_open_us =
      TimeUs([&] { store = SnapshotStore::Open(snap.path); });
  if (!store.ok()) {
    std::fprintf(stderr, "provenance snapshot open failed: %s\n",
                 store.status().ToString().c_str());
    bench.failed = true;
    return bench;
  }
  bench.snapshot_partitions_total = (*store)->total_partitions();
  {
    AiqlEngine engine(store->get());
    bench.snapshot =
        RunProvenanceTrack(&engine, (*store)->entities(), data.truth);
  }
  bench.snapshot_partitions_loaded = (*store)->loaded_partitions();
  bench.failed = bench.failed || !bench.db.chain_recovered ||
                 !bench.snapshot.chain_recovered;
  return bench;
}

void WriteProvenanceTrackJson(FILE* out, const char* key,
                              const ProvenanceTrackRun& run) {
  std::fprintf(out,
               "    \"%s\": {\"track_us\": %lld, \"nodes\": %zu, "
               "\"edges\": %zu, \"hops\": %d, \"events_inspected\": %llu, "
               "\"partition_scans\": %llu, \"truncated\": %s, "
               "\"chain_recovered\": %s,\n      \"hop_us\": [",
               key, static_cast<long long>(run.track_us), run.nodes,
               run.edges, run.hops,
               static_cast<unsigned long long>(run.events_inspected),
               static_cast<unsigned long long>(run.partition_scans),
               run.truncated ? "true" : "false",
               run.chain_recovered ? "true" : "false");
  for (size_t i = 0; i < run.hop_us.size(); ++i) {
    std::fprintf(out, "%s%lld", i > 0 ? ", " : "",
                 static_cast<long long>(run.hop_us[i]));
  }
  std::fprintf(out, "]}");
}

void WriteProvenanceJson(FILE* out, const ProvenanceBench& bench) {
  std::fprintf(out, "  \"provenance\": {\n");
  WriteProvenanceTrackJson(out, "db", bench.db);
  std::fprintf(out, ",\n");
  WriteProvenanceTrackJson(out, "snapshot", bench.snapshot);
  std::fprintf(
      out,
      ",\n    \"snapshot_open_us\": %lld, "
      "\"snapshot_partitions_loaded\": %llu, "
      "\"snapshot_partitions_total\": %llu, \"chain_nodes\": %zu%s\n  },\n",
      static_cast<long long>(bench.snapshot_open_us),
      static_cast<unsigned long long>(bench.snapshot_partitions_loaded),
      static_cast<unsigned long long>(bench.snapshot_partitions_total),
      bench.chain_nodes, bench.failed ? ", \"failed\": true" : "");
}

// ---------------------------------------------------------------------------
// Sharded scatter/gather mode (--sharded): the fig4 suite and the
// multi-host campaign track at 1/2/4/8 agent-range shards, against the
// single-database runs. Row counts and exact campaign-chain recovery are
// correctness gates (non-zero exit on any divergence).

/// Per-shard databases routed by agent range under one ShardMap.
struct ShardedDbs {
  std::vector<std::unique_ptr<AuditDatabase>> dbs;
  ShardMap map;
};

std::unique_ptr<ShardedDbs> BuildShardedDbs(
    const std::vector<EventRecord>& records, size_t num_shards) {
  AgentId min_agent = records.front().agent_id;
  AgentId max_agent = min_agent;
  for (const EventRecord& record : records) {
    min_agent = std::min(min_agent, record.agent_id);
    max_agent = std::max(max_agent, record.agent_id);
  }
  auto ranges = EvenAgentRanges(num_shards, min_agent, max_agent);
  auto routed = RouteRecordsByAgent(ranges, records);
  if (!routed.ok()) {
    std::fprintf(stderr, "sharded routing failed: %s\n",
                 routed.status().ToString().c_str());
    return nullptr;
  }
  auto out = std::make_unique<ShardedDbs>();
  for (size_t s = 0; s < ranges.size(); ++s) {
    auto db = IngestRecords((*routed)[s], StorageOptions{});
    if (!db.ok()) {
      std::fprintf(stderr, "shard %zu ingest failed: %s\n", s,
                   db.status().ToString().c_str());
      return nullptr;
    }
    out->dbs.push_back(std::make_unique<AuditDatabase>(std::move(*db)));
    Status added = out->map.AddShard(out->dbs.back().get(), ranges[s]);
    if (!added.ok()) {
      std::fprintf(stderr, "shard %zu add failed: %s\n", s,
                   added.ToString().c_str());
      return nullptr;
    }
  }
  return out;
}

struct ShardedQueryRun {
  std::string id;
  int64_t wall_us = 0;
  size_t rows = 0;
  size_t single_rows = 0;
  bool rows_match = false;
  bool failed = false;
};

struct ShardedTrackRun {
  int64_t track_us = 0;
  size_t nodes = 0;
  size_t edges = 0;
  int hops = 0;
  bool chain_recovered = false;
};

struct ShardedSuiteRun {
  size_t num_shards = 0;
  int64_t fig4_total_us = 0;
  int row_mismatches = 0;
  std::vector<ShardedQueryRun> queries;
  ShardedTrackRun track;
};

struct ShardedBench {
  std::vector<ShardedSuiteRun> suites;
  int64_t single_fig4_total_us = 0;
  ShardedTrackRun single_track;
  bool failed = false;
};

/// Backward-tracks the planted multi-host campaign and checks the result
/// against the exact ground truth: every chain entity at its discovery
/// position, depth, and time bound; all chain events; no decoys.
ShardedTrackRun RunCampaignTrack(
    AiqlEngine* engine,
    const std::function<std::string(const ProvenanceNode&)>& name_of,
    const CampaignChainTruth& truth) {
  ShardedTrackRun run;
  TrackRequest request;
  request.type = EntityType::kNetwork;
  request.name_like = truth.poi_like;
  request.anchor = truth.anchor;
  Result<ProvenanceResult> result = Status::Internal("not run");
  run.track_us = TimeUs([&] { result = engine->Track(request); });
  if (!result.ok()) {
    std::fprintf(stderr, "campaign track FAILED: %s\n",
                 result.status().ToString().c_str());
    return run;
  }
  run.nodes = result->nodes.size();
  run.edges = result->edges.size();
  run.hops = result->stats.hops;
  run.chain_recovered = result->nodes.size() == truth.chain.size() &&
                        result->edges.size() == truth.chain_events &&
                        !result->stats.truncated;
  if (run.chain_recovered) {
    for (size_t i = 0; i < result->nodes.size(); ++i) {
      const ProvenanceNode& node = result->nodes[i];
      if (node.type != truth.chain[i].first ||
          name_of(node) != truth.chain[i].second ||
          node.depth != truth.chain_depths[i] ||
          node.bound != truth.chain_bounds[i]) {
        run.chain_recovered = false;
        break;
      }
    }
  }
  if (!run.chain_recovered) {
    std::fprintf(stderr,
                 "campaign chain NOT recovered: %zu nodes (want %zu), "
                 "%zu edges (want %zu)%s\n",
                 result->nodes.size(), truth.chain.size(),
                 result->edges.size(), truth.chain_events,
                 result->stats.truncated ? ", truncated" : "");
  }
  return run;
}

/// Runs the fig4 suite and the campaign track at each shard count; every
/// sharded row count is gated against the single-database run.
ShardedBench RunShardedBench(const std::vector<EventRecord>& demo_records,
                             const std::vector<CatalogQuery>& fig4_queries,
                             const std::map<std::string, size_t>& single_rows,
                             const std::vector<QueryRun>& single_runs,
                             const ScenarioOptions& options, int repeat) {
  ShardedBench bench;
  for (const QueryRun& run : single_runs) {
    if (run.suite == "fig4") bench.single_fig4_total_us += run.wall_us;
  }

  CampaignScenarioData campaign = GenerateCampaignScenario(options);
  {
    auto db = IngestRecords(campaign.records, StorageOptions{});
    if (!db.ok()) {
      std::fprintf(stderr, "campaign ingest failed: %s\n",
                   db.status().ToString().c_str());
      bench.failed = true;
      return bench;
    }
    AiqlEngine engine(&*db);
    const EntityStore& entities = db->entities();
    bench.single_track = RunCampaignTrack(
        &engine,
        [&](const ProvenanceNode& node) {
          return entities.EntityName(node.type, node.id);
        },
        campaign.truth);
    bench.failed = bench.failed || !bench.single_track.chain_recovered;
  }

  for (size_t num_shards : {1u, 2u, 4u, 8u}) {
    ShardedSuiteRun suite;
    suite.num_shards = num_shards;

    auto demo_shards = BuildShardedDbs(demo_records, num_shards);
    if (demo_shards == nullptr) {
      bench.failed = true;
      return bench;
    }
    AiqlEngine engine(&demo_shards->map);
    for (const CatalogQuery& query : fig4_queries) {
      ShardedQueryRun q;
      q.id = query.id;
      auto it = single_rows.find("fig4/" + query.id);
      q.single_rows = it == single_rows.end() ? 0 : it->second;
      q.wall_us = INT64_MAX;
      for (int i = 0; i < repeat; ++i) {
        size_t rows = 0;
        int64_t us = TimeUs([&] {
          auto result = engine.Execute(query.text);
          if (result.ok()) {
            rows = result->table.num_rows();
          } else {
            q.failed = true;
            std::fprintf(stderr, "  sharded(%zu) %s FAILED: %s\n", num_shards,
                         query.id.c_str(),
                         result.status().ToString().c_str());
          }
        });
        if (us < q.wall_us) {
          q.wall_us = us;
          q.rows = rows;
        }
      }
      q.rows_match = !q.failed && q.rows == q.single_rows;
      if (!q.rows_match) {
        ++suite.row_mismatches;
        std::fprintf(stderr,
                     "  sharded(%zu) %s row mismatch: got %zu want %zu\n",
                     num_shards, q.id.c_str(), q.rows, q.single_rows);
      }
      suite.fig4_total_us += q.wall_us;
      suite.queries.push_back(std::move(q));
    }

    auto campaign_shards = BuildShardedDbs(campaign.records, num_shards);
    if (campaign_shards == nullptr) {
      bench.failed = true;
      return bench;
    }
    {
      AiqlEngine track_engine(&campaign_shards->map);
      const ShardMap& map = campaign_shards->map;
      suite.track = RunCampaignTrack(
          &track_engine,
          [&](const ProvenanceNode& node) {
            return map.entities(node.shard).EntityName(node.type, node.id);
          },
          campaign.truth);
    }

    bench.failed = bench.failed || suite.row_mismatches > 0 ||
                   !suite.track.chain_recovered;
    std::fprintf(stderr,
                 "  sharded(%zu): fig4 %lld us (single %lld us), %d row "
                 "mismatches, track %lld us chain %s\n",
                 num_shards, static_cast<long long>(suite.fig4_total_us),
                 static_cast<long long>(bench.single_fig4_total_us),
                 suite.row_mismatches,
                 static_cast<long long>(suite.track.track_us),
                 suite.track.chain_recovered ? "recovered" : "NOT RECOVERED");
    bench.suites.push_back(std::move(suite));
  }
  return bench;
}

void WriteShardedJson(FILE* out, const ShardedBench& bench) {
  std::fprintf(out, "  \"sharded\": {\n");
  std::fprintf(out,
               "    \"single_db\": {\"fig4_total_us\": %lld, "
               "\"track_us\": %lld, \"track_nodes\": %zu, "
               "\"track_edges\": %zu, \"chain_recovered\": %s},\n",
               static_cast<long long>(bench.single_fig4_total_us),
               static_cast<long long>(bench.single_track.track_us),
               bench.single_track.nodes, bench.single_track.edges,
               bench.single_track.chain_recovered ? "true" : "false");
  std::fprintf(out, "    \"suites\": [\n");
  for (size_t si = 0; si < bench.suites.size(); ++si) {
    const ShardedSuiteRun& suite = bench.suites[si];
    std::fprintf(out,
                 "      {\"num_shards\": %zu, \"fig4_total_us\": %lld, "
                 "\"row_mismatches\": %d,\n",
                 suite.num_shards,
                 static_cast<long long>(suite.fig4_total_us),
                 suite.row_mismatches);
    std::fprintf(out,
                 "       \"track\": {\"track_us\": %lld, \"nodes\": %zu, "
                 "\"edges\": %zu, \"hops\": %d, \"chain_recovered\": %s},\n",
                 static_cast<long long>(suite.track.track_us),
                 suite.track.nodes, suite.track.edges, suite.track.hops,
                 suite.track.chain_recovered ? "true" : "false");
    std::fprintf(out, "       \"queries\": [\n");
    for (size_t i = 0; i < suite.queries.size(); ++i) {
      const ShardedQueryRun& q = suite.queries[i];
      std::fprintf(out,
                   "        {\"id\": \"%s\", \"wall_us\": %lld, "
                   "\"rows\": %zu, \"single_rows\": %zu, "
                   "\"rows_match\": %s%s}%s\n",
                   q.id.c_str(), static_cast<long long>(q.wall_us), q.rows,
                   q.single_rows, q.rows_match ? "true" : "false",
                   q.failed ? ", \"failed\": true" : "",
                   i + 1 < suite.queries.size() ? "," : "");
    }
    std::fprintf(out, "       ]}%s\n",
                 si + 1 < bench.suites.size() ? "," : "");
  }
  std::fprintf(out, "    ],\n");
  std::fprintf(out, "    \"all_match\": %s\n",
               bench.failed ? "false" : "true");
  std::fprintf(out, "  },\n");
}

// ---------------------------------------------------------------------------
// Chaos mode (--chaos): the single-pattern fig4 queries at 4 shards under
// the failpoint matrix — slow-shard latency injection against a 50ms
// deadline (strict fails with kDeadlineExceeded, partial returns annotated
// survivor rows, both in <100ms wall clock), a persistently unavailable
// shard (partial drops and annotates it), persistent snapshot-read faults
// (strict surfaces kUnavailable after retries), a one-shot corrupt read
// (checksum catches it, the retry heals it), and a cleared rerun whose row
// counts must match the clean sharded baseline. Every scenario's pass flag
// gates the exit code.

struct ChaosScenarioRun {
  std::string query_id;
  std::string scenario;
  int64_t wall_us = 0;
  std::string status = "OK";  ///< final status code name
  size_t rows = 0;
  int shards_failed = 0;
  int shards_timed_out = 0;
  int shards_retried = 0;
  bool pass = false;
};

struct ChaosBench {
  std::vector<ChaosScenarioRun> runs;
  size_t queries = 0;
  bool failed = false;
};

/// Per-shard v2 snapshots of `shards`, reopened fresh so no partition is
/// pre-materialized (the snapshot-read failpoints must see real reads).
struct ChaosSnapshotShards {
  std::vector<std::string> paths;
  std::vector<std::unique_ptr<SnapshotStore>> snaps;
  ShardMap map;
  bool ok = false;

  ~ChaosSnapshotShards() {
    snaps.clear();
    for (const std::string& path : paths) std::remove(path.c_str());
  }
};

std::unique_ptr<ChaosSnapshotShards> SaveChaosSnapshots(
    const ShardedDbs& shards) {
  auto out = std::make_unique<ChaosSnapshotShards>();
  for (size_t s = 0; s < shards.dbs.size(); ++s) {
    std::string path = "/tmp/aiql_chaos_" + std::to_string(::getpid()) +
                       "_" + std::to_string(s) + ".snap";
    Status saved = SaveSnapshot(*shards.dbs[s], path);
    if (!saved.ok()) {
      std::fprintf(stderr, "chaos snapshot save failed: %s\n",
                   saved.ToString().c_str());
      return out;
    }
    out->paths.push_back(path);
  }
  out->ok = true;
  return out;
}

/// Reopens the saved snapshots into a fresh (lazily materialized) ShardMap.
bool ReopenChaosSnapshots(ChaosSnapshotShards* shards,
                          const std::vector<ShardRange>& ranges) {
  shards->snaps.clear();
  shards->map = ShardMap();
  for (size_t s = 0; s < shards->paths.size(); ++s) {
    auto store = SnapshotStore::Open(shards->paths[s]);
    if (!store.ok()) {
      std::fprintf(stderr, "chaos snapshot open failed: %s\n",
                   store.status().ToString().c_str());
      return false;
    }
    shards->snaps.push_back(std::move(*store));
    Status added = shards->map.AddShard(shards->snaps.back().get(), ranges[s]);
    if (!added.ok()) {
      std::fprintf(stderr, "chaos shard add failed: %s\n",
                   added.ToString().c_str());
      return false;
    }
  }
  return true;
}

ChaosBench RunChaosBench(const std::vector<EventRecord>& demo_records,
                         const std::vector<CatalogQuery>& fig4_queries) {
  constexpr size_t kChaosShards = 4;
  constexpr int64_t kWallBoundUs = 100000;  // acceptance: <100ms wall clock
  ChaosBench bench;
  Failpoint::ClearAll();

  auto shards = BuildShardedDbs(demo_records, kChaosShards);
  if (shards == nullptr) {
    bench.failed = true;
    return bench;
  }
  AgentId min_agent = demo_records.front().agent_id;
  AgentId max_agent = min_agent;
  for (const EventRecord& record : demo_records) {
    min_agent = std::min(min_agent, record.agent_id);
    max_agent = std::max(max_agent, record.agent_id);
  }
  auto ranges = EvenAgentRanges(kChaosShards, min_agent, max_agent);
  auto snap_shards = SaveChaosSnapshots(*shards);
  if (!snap_shards->ok) {
    bench.failed = true;
    return bench;
  }

  EngineOptions engine_options;
  engine_options.shard_retry_backoff = std::chrono::milliseconds(1);
  QueryLimits partial_limits;
  partial_limits.shard_policy = ShardPolicy::kPartial;
  QueryLimits deadline_limits;
  deadline_limits.timeout = std::chrono::milliseconds(50);
  QueryLimits partial_deadline_limits = deadline_limits;
  partial_deadline_limits.shard_policy = ShardPolicy::kPartial;

  auto record = [&bench](ChaosScenarioRun run, bool pass) {
    run.pass = pass;
    if (!pass) {
      bench.failed = true;
      std::fprintf(stderr, "  chaos %s/%s FAILED (status %s, %lld us)\n",
                   run.query_id.c_str(), run.scenario.c_str(),
                   run.status.c_str(), static_cast<long long>(run.wall_us));
    }
    bench.runs.push_back(std::move(run));
  };
  auto execute = [](AiqlEngine* engine, const std::string& text,
                    QueryContext* ctx, ChaosScenarioRun* run) {
    Result<QueryResult> result = Status::Internal("not run");
    run->wall_us = TimeUs([&] { result = engine->Execute(text, ctx); });
    if (result.ok()) {
      run->rows = result->table.num_rows();
      run->shards_failed = result->degraded.shards_failed;
      run->shards_timed_out = result->degraded.shards_timed_out;
      run->shards_retried = result->degraded.shards_retried;
    } else {
      run->status = result.status().ToString();
    }
    return result;
  };

  for (const CatalogQuery& query : fig4_queries) {
    // Only single-pattern queries take the fast scatter path, where a
    // deadline-missing shard can be dropped; the gathered path aborts on
    // deadline in both policies by design.
    auto parsed = ParseAiql(query.text);
    if (!parsed.ok() || parsed->kind != QueryKind::kMultievent ||
        parsed->multievent == nullptr ||
        parsed->multievent->patterns.size() != 1) {
      continue;
    }
    ++bench.queries;

    // Clean baseline on the db-backed map.
    size_t clean_rows = 0;
    {
      AiqlEngine engine(&shards->map, engine_options);
      ChaosScenarioRun run{query.id, "clean"};
      auto result = execute(&engine, query.text, nullptr, &run);
      clean_rows = run.rows;
      record(std::move(run), result.ok());
      if (!result.ok()) continue;
    }

    // 500ms stall on the last shard vs a 50ms deadline: strict fails fast.
    Failpoint::ClearAll();
    (void)Failpoint::Configure("shard.scatter=latency(500000)@arg" +
                               std::to_string(kChaosShards - 1));
    {
      AiqlEngine engine(&shards->map, engine_options);
      QueryContext ctx(deadline_limits);
      ChaosScenarioRun run{query.id, "deadline_strict"};
      auto result = execute(&engine, query.text, &ctx, &run);
      bool pass = !result.ok() &&
                  result.status().code() == StatusCode::kDeadlineExceeded &&
                  run.wall_us < kWallBoundUs;
      record(std::move(run), pass);
    }
    // Same stall, partial policy: annotated survivor rows, still <100ms.
    Failpoint::ClearAll();
    (void)Failpoint::Configure("shard.scatter=latency(500000)@arg" +
                               std::to_string(kChaosShards - 1));
    {
      AiqlEngine engine(&shards->map, engine_options);
      QueryContext ctx(partial_deadline_limits);
      ChaosScenarioRun run{query.id, "deadline_partial"};
      auto result = execute(&engine, query.text, &ctx, &run);
      bool pass = result.ok() && run.wall_us < kWallBoundUs &&
                  run.shards_timed_out >= 1 && run.rows <= clean_rows;
      record(std::move(run), pass);
    }

    // A persistently failing shard: partial drops and annotates it.
    Failpoint::ClearAll();
    (void)Failpoint::Configure("shard.scatter=error(IOError)@arg1");
    {
      AiqlEngine engine(&shards->map, engine_options);
      QueryContext ctx(partial_limits);
      ChaosScenarioRun run{query.id, "shard_unavailable_partial"};
      auto result = execute(&engine, query.text, &ctx, &run);
      bool pass = result.ok() && run.shards_failed == 1 &&
                  run.shards_timed_out == 0 && run.rows <= clean_rows;
      record(std::move(run), pass);
    }

    // Persistent snapshot-read faults on a fresh lazily-loaded map: every
    // injected fault is retried, then surfaces as kUnavailable (strict).
    Failpoint::ClearAll();
    if (ReopenChaosSnapshots(snap_shards.get(), ranges)) {
      (void)Failpoint::Configure("snapshot.read.partition=error(IOError)");
      AiqlEngine engine(&snap_shards->map, engine_options);
      ChaosScenarioRun run{query.id, "snapshot_fault_strict"};
      auto result = execute(&engine, query.text, nullptr, &run);
      record(std::move(run),
             !result.ok() &&
                 result.status().code() == StatusCode::kUnavailable);
    }

    // One corrupt read on another fresh map: the checksum catches the
    // bit-flip and the shard retry re-reads cleanly — full result.
    Failpoint::ClearAll();
    if (ReopenChaosSnapshots(snap_shards.get(), ranges)) {
      (void)Failpoint::Configure("snapshot.read.partition=corrupt@nth1");
      AiqlEngine engine(&snap_shards->map, engine_options);
      ChaosScenarioRun run{query.id, "snapshot_corrupt_retry"};
      auto result = execute(&engine, query.text, nullptr, &run);
      record(std::move(run), result.ok() && run.rows == clean_rows);
    }

    // Cleared: the db-backed map serves the clean rows again.
    Failpoint::ClearAll();
    {
      AiqlEngine engine(&shards->map, engine_options);
      ChaosScenarioRun run{query.id, "cleared"};
      auto result = execute(&engine, query.text, nullptr, &run);
      record(std::move(run), result.ok() && run.rows == clean_rows);
    }
  }
  Failpoint::ClearAll();
  if (bench.queries == 0) {
    std::fprintf(stderr, "chaos: no single-pattern fig4 queries found\n");
    bench.failed = true;
  }
  return bench;
}

std::string JsonEscape(const std::string& s);

void WriteChaosJson(FILE* out, const ChaosBench& bench) {
  std::fprintf(out, "  \"chaos\": {\n");
  std::fprintf(out, "    \"num_shards\": 4, \"deadline_ms\": 50, "
               "\"injected_stall_ms\": 500, \"queries\": %zu,\n",
               bench.queries);
  std::fprintf(out, "    \"scenarios\": [\n");
  for (size_t i = 0; i < bench.runs.size(); ++i) {
    const ChaosScenarioRun& run = bench.runs[i];
    std::fprintf(out,
                 "      {\"query\": \"%s\", \"scenario\": \"%s\", "
                 "\"wall_us\": %lld, \"status\": \"%s\", \"rows\": %zu, "
                 "\"shards_failed\": %d, \"shards_timed_out\": %d, "
                 "\"shards_retried\": %d, \"pass\": %s}%s\n",
                 run.query_id.c_str(), run.scenario.c_str(),
                 static_cast<long long>(run.wall_us),
                 JsonEscape(run.status).c_str(), run.rows,
                 run.shards_failed, run.shards_timed_out,
                 run.shards_retried, run.pass ? "true" : "false",
                 i + 1 < bench.runs.size() ? "," : "");
  }
  std::fprintf(out, "    ],\n");
  std::fprintf(out, "    \"all_pass\": %s\n", bench.failed ? "false" : "true");
  std::fprintf(out, "  },\n");
}

uint64_t FileSizeBytes(const std::string& path) {
  std::error_code ec;
  uintmax_t size = std::filesystem::file_size(path, ec);
  return ec ? 0 : static_cast<uint64_t>(size);
}

/// Saves `db` in both formats, then measures cold start to the first result
/// of `queries[0]` and verifies every query's row count served from the v2
/// store against the in-memory runs.
SnapshotBench RunSnapshotBench(const AuditDatabase& db,
                               const std::vector<CatalogQuery>& queries,
                               const std::map<std::string, size_t>& mem_rows,
                               const std::string& suite) {
  SnapshotBench bench;
  // Process-unique paths (concurrent runners must not clobber each other),
  // removed on every exit path.
  struct TempFile {
    std::string path;
    ~TempFile() { std::remove(path.c_str()); }
  };
  const std::string unique = std::to_string(
      std::chrono::steady_clock::now().time_since_epoch().count());
  TempFile v2_file{"/tmp/aiql_bench_snapshot." + unique + ".v2.snap"};
  const std::string& v2_path = v2_file.path;
  auto fail = [&](const char* what, const Status& status) {
    std::fprintf(stderr, "snapshot bench %s FAILED: %s\n", what,
                 status.ToString().c_str());
    bench.failed = true;
  };

  Status status;
  bench.v2_save_us = TimeUs([&] { status = SaveSnapshot(db, v2_path); });
  if (!status.ok()) fail("v2 save", status);
  bench.v2_bytes = FileSizeBytes(v2_path);
  if (bench.failed) return bench;

  const CatalogQuery& first = queries.front();
  auto mem_it = mem_rows.find(suite + "/" + first.id);
  bench.rows_mem = mem_it == mem_rows.end() ? 0 : mem_it->second;

  // v2 cold start: open reads footer + statistics + entities; the first
  // query materializes only the partitions it touches.
  {
    Result<std::unique_ptr<SnapshotStore>> store =
        Status::Internal("not opened");
    bench.v2_open_us = TimeUs([&] { store = SnapshotStore::Open(v2_path); });
    if (!store.ok()) {
      fail("v2 open", store.status());
      return bench;
    }
    bench.v2_partitions_total = (*store)->total_partitions();
    AiqlEngine engine(store->get());
    bench.v2_first_query_us = TimeUs([&] {
      auto result = engine.Execute(first.text);
      if (result.ok()) {
        bench.rows_v2 = result->table.num_rows();
      } else {
        fail("v2 first query", result.status());
      }
    });
    bench.v2_partitions_loaded = (*store)->loaded_partitions();

    // Correctness gate: the whole suite served from the store must
    // reproduce the in-memory row counts.
    bench.all_query_rows_match = true;
    for (const CatalogQuery& query : queries) {
      auto result = engine.Execute(query.text);
      auto expected = mem_rows.find(suite + "/" + query.id);
      size_t want = expected == mem_rows.end() ? 0 : expected->second;
      if (!result.ok() || result->table.num_rows() != want) {
        bench.all_query_rows_match = false;
        std::fprintf(stderr,
                     "  snapshot %s %s row mismatch: got %zu want %zu%s\n",
                     suite.c_str(), query.id.c_str(),
                     result.ok() ? result->table.num_rows() : 0, want,
                     result.ok() ? "" : " (query failed)");
      }
    }
  }
  bench.rows_match = bench.rows_v2 == bench.rows_mem;
  return bench;
}

void WriteSnapshotJson(FILE* out, const SnapshotBench& bench) {
  std::fprintf(
      out,
      "  \"snapshot\": {\"v2_bytes\": %llu, \"v2_save_us\": %lld,\n"
      "    \"v2_open_us\": %lld, \"v2_first_query_us\": %lld, "
      "\"v2_cold_start_us\": %lld,\n"
      "    \"v2_partitions_loaded\": %llu, \"v2_partitions_total\": %llu,\n"
      "    \"rows\": %zu, \"rows_match\": %s, "
      "\"all_query_rows_match\": %s%s},\n",
      static_cast<unsigned long long>(bench.v2_bytes),
      static_cast<long long>(bench.v2_save_us),
      static_cast<long long>(bench.v2_open_us),
      static_cast<long long>(bench.v2_first_query_us),
      static_cast<long long>(bench.v2_cold_start_us()),
      static_cast<unsigned long long>(bench.v2_partitions_loaded),
      static_cast<unsigned long long>(bench.v2_partitions_total),
      bench.rows_mem, bench.rows_match ? "true" : "false",
      bench.all_query_rows_match ? "true" : "false",
      bench.failed ? ", \"failed\": true" : "");
}

/// Classifies a query from its AST: pattern count and op selectivity.
/// True when the query text carries a LIKE wildcard ('%' or unescaped '_')
/// inside a quoted string — i.e. at least one entity constraint that the
/// dictionary-id predicate path evaluates against the whole dictionary.
bool HasLikePredicate(const std::string& text) {
  bool in_quote = false;
  for (size_t i = 0; i < text.size(); ++i) {
    char c = text[i];
    if (c == '"') {
      in_quote = !in_quote;
      continue;
    }
    if (in_quote && c == '\\') {
      ++i;  // escaped character, never a wildcard
      continue;
    }
    if (in_quote && (c == '%' || c == '_')) return true;
  }
  return false;
}

void ClassifyQuery(const std::string& text, QueryRun* run) {
  run->like_heavy = HasLikePredicate(text);
  auto parsed = ParseAiql(text);
  if (!parsed.ok() || parsed->multievent == nullptr) return;
  const MultieventQueryAst& ast = *parsed->multievent;
  run->patterns = static_cast<int>(ast.patterns.size());
  run->op_selective = !ast.patterns.empty();
  for (const EventPatternAst& pattern : ast.patterns) {
    if (pattern.ops.size() > 2) run->op_selective = false;
  }
}

/// Best-of-N wall time for one query; stats come from the fastest run.
QueryRun RunQuery(AiqlEngine* engine, const std::string& suite,
                  const CatalogQuery& query, int repeat) {
  QueryRun run;
  run.suite = suite;
  run.id = query.id;
  run.wall_us = INT64_MAX;
  for (int i = 0; i < repeat; ++i) {
    QueryStats stats;
    size_t rows = 0;
    int64_t us = TimeUs([&] {
      auto result = engine->Execute(query.text);
      if (result.ok()) {
        rows = result->table.num_rows();
        stats = result->stats;
      } else {
        // A broken query must not masquerade as a fast successful run.
        run.failed = true;
        std::fprintf(stderr, "  %s %s FAILED: %s\n", suite.c_str(),
                     query.id.c_str(), result.status().ToString().c_str());
      }
    });
    if (us < run.wall_us) {
      run.wall_us = us;
      run.rows = rows;
      run.events_scanned = stats.events_scanned;
      run.events_matched = stats.events_matched;
      run.partitions_scanned = stats.partitions_scanned;
    }
  }
  ClassifyQuery(query.text, &run);
  return run;
}

StorageRun RunStorageBench(const std::vector<EventRecord>& records) {
  StorageRun run;
  AuditDatabase db{StorageOptions{}};
  Status seal_status;
  run.ingest_us = TimeUs([&] {
    for (const EventRecord& record : records) {
      (void)db.Append(record);
    }
    seal_status = db.Seal();
  });
  if (!seal_status.ok()) {
    std::fprintf(stderr, "storage bench seal FAILED: %s\n",
                 seal_status.ToString().c_str());
  }
  run.raw_events = db.stats().raw_events;
  run.stored_events = db.stats().total_events;
  run.partitions = db.stats().total_partitions;
  uint64_t sum = 0;
  run.scan_us = TimeUs([&] {
    ReadView view = db.OpenReadView();
    for (const auto& [key, partition] : view.partitions()) {
      for (uint64_t amount : partition->columns().amount) sum += amount;
    }
  });
  run.scan_checksum = sum;
  return run;
}

/// Minimal extraction of (suite/id -> wall_us) pairs from a previous run's
/// JSON. Only understands the schema this binary writes.
std::map<std::string, int64_t> ParseBaseline(const std::string& path) {
  std::map<std::string, int64_t> out;
  std::ifstream in(path);
  if (!in) {
    std::fprintf(stderr, "warning: cannot open baseline '%s'\n", path.c_str());
    return out;
  }
  std::stringstream buffer;
  buffer << in.rdbuf();
  std::string text = buffer.str();

  auto find_string = [&](const std::string& key, size_t from,
                         std::string* value) -> size_t {
    size_t pos = text.find("\"" + key + "\":", from);
    if (pos == std::string::npos) return std::string::npos;
    size_t open = text.find('"', pos + key.size() + 3);
    if (open == std::string::npos) return std::string::npos;
    size_t close = text.find('"', open + 1);
    if (close == std::string::npos) return std::string::npos;
    *value = text.substr(open + 1, close - open - 1);
    return close;
  };

  size_t pos = text.find("\"queries\":");
  while (pos != std::string::npos) {
    std::string suite, id;
    size_t after_suite = find_string("suite", pos, &suite);
    if (after_suite == std::string::npos) break;
    size_t after_id = find_string("id", after_suite, &id);
    if (after_id == std::string::npos) break;
    size_t wall = text.find("\"wall_us\":", after_id);
    if (wall == std::string::npos) break;
    out[suite + "/" + id] = std::strtoll(text.c_str() + wall + 10, nullptr, 10);
    pos = after_id;
  }
  return out;
}

/// Escapes a string for embedding in a JSON document (quotes, backslashes,
/// control characters). Labels come from the command line, so don't trust
/// them to be JSON-clean.
std::string JsonEscape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

double Geomean(const std::vector<double>& values) {
  if (values.empty()) return 0;
  double log_sum = 0;
  for (double v : values) log_sum += std::log(v);
  return std::exp(log_sum / static_cast<double>(values.size()));
}

void WriteStreamingJson(FILE* out, double rate,
                        const std::vector<StreamSuiteRun>& suites) {
  std::fprintf(out, "  \"streaming\": {\n");
  std::fprintf(out, "    \"rate_events_per_sec\": %.0f,\n", rate);
  std::fprintf(out, "    \"suites\": [\n");
  bool all_match = true;
  for (size_t si = 0; si < suites.size(); ++si) {
    const StreamSuiteRun& suite = suites[si];
    std::fprintf(out,
                 "      {\"suite\": \"%s\", \"records\": %llu, "
                 "\"ingest_wall_us\": %lld, \"partitions\": %llu, "
                 "\"partitions_sealed\": %llu,\n",
                 suite.suite.c_str(),
                 static_cast<unsigned long long>(suite.records),
                 static_cast<long long>(suite.ingest_wall_us),
                 static_cast<unsigned long long>(suite.partitions),
                 static_cast<unsigned long long>(suite.partitions_sealed));
    std::fprintf(out, "       \"queries\": [\n");
    for (size_t i = 0; i < suite.queries.size(); ++i) {
      const StreamQueryRun& q = suite.queries[i];
      int64_t mean = q.live_runs > 0 ? q.live_total_us / q.live_runs : 0;
      all_match = all_match && q.rows_match;
      std::fprintf(out,
                   "        {\"id\": \"%s\", \"live_runs\": %d, "
                   "\"live_mean_us\": %lld, \"live_max_us\": %lld, "
                   "\"final_wall_us\": %lld, \"rows\": %zu, "
                   "\"expected_rows\": %zu, \"rows_match\": %s%s}%s\n",
                   q.id.c_str(), q.live_runs, static_cast<long long>(mean),
                   static_cast<long long>(q.live_max_us),
                   static_cast<long long>(q.final_wall_us), q.final_rows,
                   q.expected_rows, q.rows_match ? "true" : "false",
                   q.failed ? ", \"failed\": true" : "",
                   i + 1 < suite.queries.size() ? "," : "");
    }
    std::fprintf(out, "       ]}%s\n", si + 1 < suites.size() ? "," : "");
  }
  std::fprintf(out, "    ],\n");
  std::fprintf(out, "    \"all_rows_match\": %s\n",
               all_match ? "true" : "false");
  std::fprintf(out, "  },\n");
}

// ---------------------------------------------------------------------------
// Retention mode (--retention): the fig4 + fig5 record streams replayed into
// fully demoted TieredStores whose cold-cache budget is capped at 25% of the
// measured all-hot footprint. Exit gates: ingest throughput of at least
// AIQL_BENCH_RETENTION_MIN_RATE records/s (default 50k), canonicalized row
// identity against the all-hot engines on every query, cache charge bounded
// by budget + one oversized partition, and a flat RSS profile across the
// cold query sweeps.
// ---------------------------------------------------------------------------

uint64_t ProcStatusKb(const char* key) {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind(key, 0) == 0) {
      return std::strtoull(line.c_str() + std::strlen(key), nullptr, 10);
    }
  }
  return 0;
}

/// Order-insensitive fingerprint of a result table (rows rendered, sorted,
/// then chain-hashed). This is the row-identity contract for tiers: sealed
/// partitions sort ties unstably, so merged/cold partitions may permute
/// tied rows — identity means the same row multiset.
uint64_t RowsFingerprint(const ResultTable& table) {
  std::vector<std::string> rendered;
  rendered.reserve(table.rows.size());
  for (const auto& row : table.rows) {
    std::string r;
    for (const auto& cell : row) {
      r += ValueToString(cell);
      r += '\x1f';
    }
    rendered.push_back(std::move(r));
  }
  std::sort(rendered.begin(), rendered.end());
  uint64_t hash = 1469598103934665603ull;
  for (const std::string& r : rendered) {
    for (char c : r) {
      hash ^= static_cast<unsigned char>(c);
      hash *= 1099511628211ull;
    }
    hash ^= 0x9e3779b97f4a7c15ull;
  }
  return hash;
}

struct RetentionQueryRun {
  std::string id;
  int64_t wall_us = 0;  ///< first cold sweep (partitions re-materialize)
  size_t rows = 0;
  bool identical = false;  ///< fingerprint matches the all-hot engine
};

struct RetentionSuiteRun {
  std::string suite;
  uint64_t records = 0;
  int64_t ingest_wall_us = 0;
  double ingest_rate = 0;      ///< records/s into the tiered store
  uint64_t all_hot_bytes = 0;  ///< sealed-partition footprint, all hot
  uint64_t budget_bytes = 0;   ///< cold cache budget (25% of all-hot)
  uint64_t largest_partition_bytes = 0;
  uint64_t cold_partitions = 0;
  uint64_t demotions = 0;
  uint64_t merges = 0;
  uint64_t evictions = 0;
  uint64_t reopens = 0;
  uint64_t max_charged_bytes = 0;  ///< peak cache charge seen in sweeps
  std::vector<RetentionQueryRun> queries;
  /// Sampled after every query execution across all sweeps.
  std::vector<uint64_t> rss_series_kb;
  std::vector<uint64_t> resident_series;
  bool failed = false;
};

struct RetentionBench {
  std::vector<RetentionSuiteRun> suites;
  double min_rate = 0;
  bool rate_ok = false;
  bool rows_identical = false;
  bool budget_respected = false;
  bool rss_flat = false;
  bool failed = true;
};

RetentionSuiteRun RunRetentionSuite(const std::string& suite,
                                    const std::vector<EventRecord>& records,
                                    const std::vector<CatalogQuery>& queries,
                                    const AuditDatabase& hot_db, int sweeps) {
  RetentionSuiteRun run;
  run.suite = suite;
  run.records = records.size();

  // The all-hot footprint this store would need with no eviction; the
  // budget deliberately holds only a quarter of it.
  for (const auto& [key, partition] : hot_db.ListSealedPartitions()) {
    uint64_t bytes = partition->MemoryFootprint();
    run.all_hot_bytes += bytes;
    run.largest_partition_bytes =
        std::max(run.largest_partition_bytes, bytes);
  }
  run.budget_bytes = run.all_hot_bytes / 4;

  std::string dir = "/tmp/aiql_bench_retention_" + suite + "_" +
                    std::to_string(static_cast<unsigned long>(getpid()));
  RetentionOptions retention;
  retention.dir = dir;
  retention.hot_buckets = -1;  // demote everything: worst case for reads
  retention.memory_budget_bytes = run.budget_bytes;
  retention.compact_min_partitions = 2;
  auto store = TieredStore::Create(StorageOptions{}, retention);
  if (!store.ok()) {
    std::fprintf(stderr, "  retention %s: open failed: %s\n", suite.c_str(),
                 store.status().ToString().c_str());
    run.failed = true;
    return run;
  }

  // Timed replay in ingest-sized batches, then seal + one compaction pass
  // that demotes every partition to the retention directory.
  constexpr size_t kBatch = 8192;
  run.ingest_wall_us = TimeUs([&] {
    for (size_t i = 0; i < records.size(); i += kBatch) {
      std::vector<EventRecord> batch(
          records.begin() + i,
          records.begin() + std::min(records.size(), i + kBatch));
      if (!(*store)->AppendBatch(std::move(batch)).ok()) run.failed = true;
    }
    if (!(*store)->Seal().ok()) run.failed = true;
  });
  run.ingest_rate = run.ingest_wall_us == 0
                        ? 0.0
                        : static_cast<double>(run.records) /
                              (static_cast<double>(run.ingest_wall_us) / 1e6);
  if (!(*store)->CompactOnce().ok()) run.failed = true;
  RetentionStats after = (*store)->stats();
  if (after.hot_partitions != 0) {
    std::fprintf(stderr, "  retention %s: %llu partitions still hot\n",
                 suite.c_str(),
                 static_cast<unsigned long long>(after.hot_partitions));
    run.failed = true;
  }

  // Row-identity sweeps: every catalog query against the all-hot engine
  // once, then `sweeps` passes over the cold store under the capped budget.
  AiqlEngine hot_engine(&hot_db);
  AiqlEngine cold_engine(store->get());
  for (const CatalogQuery& query : queries) {
    RetentionQueryRun q;
    q.id = query.id;
    auto hot = hot_engine.Execute(query.text);
    if (!hot.ok()) {
      std::fprintf(stderr, "  retention %s/%s hot FAILED: %s\n",
                   suite.c_str(), query.id.c_str(),
                   hot.status().ToString().c_str());
      run.failed = true;
      run.queries.push_back(q);
      continue;
    }
    uint64_t want = RowsFingerprint(hot->table);
    q.identical = true;
    for (int sweep = 0; sweep < sweeps; ++sweep) {
      size_t rows = 0;
      uint64_t got = 0;
      bool ok = true;
      int64_t us = TimeUs([&] {
        auto cold = cold_engine.Execute(query.text);
        if (cold.ok()) {
          rows = cold->table.num_rows();
          got = RowsFingerprint(cold->table);
        } else {
          ok = false;
          std::fprintf(stderr, "  retention %s/%s cold FAILED: %s\n",
                       suite.c_str(), query.id.c_str(),
                       cold.status().ToString().c_str());
        }
      });
      if (sweep == 0) {
        q.wall_us = us;
        q.rows = rows;
      }
      if (!ok || got != want) {
        q.identical = false;
        run.failed = true;
      }
      RetentionStats stats = (*store)->stats();
      run.max_charged_bytes =
          std::max(run.max_charged_bytes, stats.cache.charged_bytes);
      run.rss_series_kb.push_back(ProcStatusKb("VmRSS:"));
      run.resident_series.push_back(stats.cache.resident);
    }
    run.queries.push_back(std::move(q));
  }

  RetentionStats stats = (*store)->stats();
  run.cold_partitions = stats.cold_partitions;
  run.demotions = stats.demotions;
  run.merges = stats.merges;
  run.evictions = stats.cache.evictions;
  run.reopens = stats.reopens;

  store->reset();
  std::remove((dir + "/DATA").c_str());
  for (uint64_t seq = 0; seq <= 64; ++seq) {
    std::remove((dir + "/FOOTER." + std::to_string(seq)).c_str());
  }
  std::filesystem::remove(dir);
  return run;
}

void WriteRetentionJson(FILE* out, const RetentionBench& bench) {
  std::fprintf(out,
               "  \"retention\": {\"min_rate\": %.0f, \"rate_ok\": %s, "
               "\"rows_identical\": %s, \"budget_respected\": %s, "
               "\"rss_flat\": %s,\n",
               bench.min_rate, bench.rate_ok ? "true" : "false",
               bench.rows_identical ? "true" : "false",
               bench.budget_respected ? "true" : "false",
               bench.rss_flat ? "true" : "false");
  std::fprintf(out, "    \"suites\": [\n");
  for (size_t s = 0; s < bench.suites.size(); ++s) {
    const RetentionSuiteRun& suite = bench.suites[s];
    std::fprintf(
        out,
        "      {\"suite\": \"%s\", \"records\": %llu, \"ingest_us\": %lld, "
        "\"ingest_rate\": %.0f,\n"
        "       \"all_hot_bytes\": %llu, \"budget_bytes\": %llu, "
        "\"max_charged_bytes\": %llu,\n"
        "       \"cold_partitions\": %llu, \"demotions\": %llu, "
        "\"merges\": %llu, \"evictions\": %llu, \"reopens\": %llu,\n",
        suite.suite.c_str(), static_cast<unsigned long long>(suite.records),
        static_cast<long long>(suite.ingest_wall_us), suite.ingest_rate,
        static_cast<unsigned long long>(suite.all_hot_bytes),
        static_cast<unsigned long long>(suite.budget_bytes),
        static_cast<unsigned long long>(suite.max_charged_bytes),
        static_cast<unsigned long long>(suite.cold_partitions),
        static_cast<unsigned long long>(suite.demotions),
        static_cast<unsigned long long>(suite.merges),
        static_cast<unsigned long long>(suite.evictions),
        static_cast<unsigned long long>(suite.reopens));
    auto write_series = [out](const char* name,
                              const std::vector<uint64_t>& series,
                              const char* tail) {
      std::fprintf(out, "       \"%s\": [", name);
      for (size_t i = 0; i < series.size(); ++i) {
        std::fprintf(out, "%s%llu", i > 0 ? ", " : "",
                     static_cast<unsigned long long>(series[i]));
      }
      std::fprintf(out, "]%s\n", tail);
    };
    write_series("rss_series_kb", suite.rss_series_kb, ",");
    write_series("partitions_resident", suite.resident_series, ",");
    std::fprintf(out, "       \"queries\": [\n");
    for (size_t i = 0; i < suite.queries.size(); ++i) {
      const RetentionQueryRun& q = suite.queries[i];
      std::fprintf(out,
                   "         {\"id\": \"%s\", \"cold_us\": %lld, "
                   "\"rows\": %zu, \"identical\": %s}%s\n",
                   JsonEscape(q.id).c_str(),
                   static_cast<long long>(q.wall_us), q.rows,
                   q.identical ? "true" : "false",
                   i + 1 < suite.queries.size() ? "," : "");
    }
    std::fprintf(out, "       ]}%s\n",
                 s + 1 < bench.suites.size() ? "," : "");
  }
  std::fprintf(out, "    ]},\n");
}

void WriteJson(FILE* out, const std::string& label,
               const ScenarioOptions& options, int repeat,
               const std::vector<QueryRun>& runs, const StorageRun& storage,
               bool has_baseline, double stream_rate,
               const std::vector<StreamSuiteRun>* streaming,
               const SnapshotBench* snapshot,
               const ProvenanceBench* provenance, const ShardedBench* sharded,
               const ChaosBench* chaos, const RetentionBench* retention) {
  std::fprintf(out, "{\n");
  std::fprintf(out, "  \"bench\": \"aiql_scan_path\",\n");
  std::fprintf(out, "  \"label\": \"%s\",\n", JsonEscape(label).c_str());
  std::fprintf(out,
               "  \"config\": {\"seed\": %llu, \"clients\": %d, "
               "\"rate_per_host_per_hour\": %.0f, \"hours\": %.1f, "
               "\"repeat\": %d},\n",
               static_cast<unsigned long long>(options.seed),
               options.num_clients, options.events_per_host_per_hour,
               static_cast<double>(options.duration) / kHour, repeat);
  std::fprintf(out,
               "  \"storage\": {\"ingest_us\": %lld, \"scan_us\": %lld, "
               "\"raw_events\": %llu, \"stored_events\": %llu, "
               "\"partitions\": %llu, \"scan_checksum\": %llu},\n",
               static_cast<long long>(storage.ingest_us),
               static_cast<long long>(storage.scan_us),
               static_cast<unsigned long long>(storage.raw_events),
               static_cast<unsigned long long>(storage.stored_events),
               static_cast<unsigned long long>(storage.partitions),
               static_cast<unsigned long long>(storage.scan_checksum));

  if (snapshot != nullptr) WriteSnapshotJson(out, *snapshot);
  if (provenance != nullptr) WriteProvenanceJson(out, *provenance);
  if (sharded != nullptr) WriteShardedJson(out, *sharded);
  if (chaos != nullptr) WriteChaosJson(out, *chaos);
  if (retention != nullptr) WriteRetentionJson(out, *retention);

  std::fprintf(out, "  \"queries\": [\n");
  int64_t total_us = 0, baseline_total_us = 0;
  std::vector<double> speedups, selective_speedups, like_heavy_speedups;
  double worst_regression_pct = 0;
  std::string worst_regression_id;
  for (size_t i = 0; i < runs.size(); ++i) {
    const QueryRun& run = runs[i];
    total_us += run.wall_us;
    std::fprintf(out,
                 "    {\"suite\": \"%s\", \"id\": \"%s\", \"wall_us\": %lld, "
                 "\"rows\": %zu, \"events_scanned\": %llu, "
                 "\"events_matched\": %llu, \"partitions_scanned\": %llu, "
                 "\"patterns\": %d, \"op_selective\": %s, \"like_heavy\": %s",
                 run.suite.c_str(), run.id.c_str(),
                 static_cast<long long>(run.wall_us), run.rows,
                 static_cast<unsigned long long>(run.events_scanned),
                 static_cast<unsigned long long>(run.events_matched),
                 static_cast<unsigned long long>(run.partitions_scanned),
                 run.patterns, run.op_selective ? "true" : "false",
                 run.like_heavy ? "true" : "false");
    if (run.failed) std::fprintf(out, ", \"failed\": true");
    if (run.baseline_us.has_value()) {
      baseline_total_us += *run.baseline_us;
      double speedup = static_cast<double>(*run.baseline_us) /
                       static_cast<double>(std::max<int64_t>(run.wall_us, 1));
      speedups.push_back(speedup);
      if (run.op_selective && run.patterns >= 2) {
        selective_speedups.push_back(speedup);
      }
      if (run.like_heavy) like_heavy_speedups.push_back(speedup);
      double regression_pct = (1.0 / speedup - 1.0) * 100.0;
      if (regression_pct > worst_regression_pct) {
        worst_regression_pct = regression_pct;
        worst_regression_id = run.suite + "/" + run.id;
      }
      std::fprintf(out, ", \"baseline_wall_us\": %lld, \"speedup\": %.3f",
                   static_cast<long long>(*run.baseline_us), speedup);
    }
    std::fprintf(out, "}%s\n", i + 1 < runs.size() ? "," : "");
  }
  std::fprintf(out, "  ],\n");

  if (streaming != nullptr) WriteStreamingJson(out, stream_rate, *streaming);

  std::fprintf(out, "  \"summary\": {\"total_us\": %lld",
               static_cast<long long>(total_us));
  if (has_baseline) {
    std::fprintf(out,
                 ", \"baseline_total_us\": %lld, "
                 "\"geomean_speedup\": %.3f, "
                 "\"op_selective_multi_pattern_geomean_speedup\": %.3f, "
                 "\"like_heavy_geomean_speedup\": %.3f, "
                 "\"worst_regression_pct\": %.1f, "
                 "\"worst_regression_query\": \"%s\"",
                 static_cast<long long>(baseline_total_us), Geomean(speedups),
                 Geomean(selective_speedups), Geomean(like_heavy_speedups),
                 worst_regression_pct, worst_regression_id.c_str());
  }
  std::fprintf(out, "}\n}\n");
}

}  // namespace

int main(int argc, char** argv) {
  std::string out_path = "bench_out.json";
  std::string baseline_path;
  std::string label = "run";
  bool streaming = false;
  bool snapshot = false;
  bool provenance = false;
  bool sharded = false;
  bool chaos = false;
  bool retention = false;
  for (int i = 1; i < argc; ++i) {
    auto next = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    if (std::strcmp(argv[i], "--out") == 0) {
      if (const char* v = next()) out_path = v;
    } else if (std::strcmp(argv[i], "--baseline") == 0) {
      if (const char* v = next()) baseline_path = v;
    } else if (std::strcmp(argv[i], "--label") == 0) {
      if (const char* v = next()) label = v;
    } else if (std::strcmp(argv[i], "--streaming") == 0) {
      streaming = true;
    } else if (std::strcmp(argv[i], "--snapshot") == 0) {
      snapshot = true;
    } else if (std::strcmp(argv[i], "--provenance") == 0) {
      provenance = true;
    } else if (std::strcmp(argv[i], "--sharded") == 0) {
      sharded = true;
    } else if (std::strcmp(argv[i], "--chaos") == 0) {
      chaos = true;
    } else if (std::strcmp(argv[i], "--retention") == 0) {
      retention = true;
    } else {
      std::fprintf(stderr,
                   "usage: %s [--out file.json] [--baseline file.json] "
                   "[--label name] [--streaming] [--snapshot] "
                   "[--provenance] [--sharded] [--chaos] "
                   "[--retention]\n",
                   argv[0]);
      return 2;
    }
  }

  ScenarioOptions options = BenchScenarioOptions();
  int repeat =
      std::max(1, static_cast<int>(EnvDouble("AIQL_BENCH_REPEAT", 3)));

  std::fprintf(stderr,
               "bench_runner: clients=%d rate=%.0f hours=%.1f seed=%llu "
               "repeat=%d\n",
               options.num_clients, options.events_per_host_per_hour,
               static_cast<double>(options.duration) / kHour,
               static_cast<unsigned long long>(options.seed), repeat);

  std::vector<QueryRun> runs;

  // fig4: the 19 demo-attack investigation queries.
  DemoScenarioData demo = GenerateDemoScenario(options);
  auto demo_db = IngestRecords(demo.records, StorageOptions{});
  if (!demo_db.ok()) {
    std::fprintf(stderr, "demo ingest failed: %s\n",
                 demo_db.status().ToString().c_str());
    return 1;
  }
  {
    AiqlEngine engine(&*demo_db);
    for (const CatalogQuery& query : DemoInvestigationQueries(demo.truth)) {
      runs.push_back(RunQuery(&engine, "fig4", query, repeat));
      std::fprintf(stderr, "  fig4 %-6s %8lld us  rows=%zu\n",
                   runs.back().id.c_str(),
                   static_cast<long long>(runs.back().wall_us),
                   runs.back().rows);
    }
  }

  // fig5: the 26 ATC case-study queries (AIQL engine only — the SQL/graph
  // baselines are cross-engine comparisons, not scan-path trajectory).
  AtcScenarioData atc = GenerateAtcScenario(options);
  auto atc_db = IngestRecords(atc.records, StorageOptions{});
  if (!atc_db.ok()) {
    std::fprintf(stderr, "atc ingest failed: %s\n",
                 atc_db.status().ToString().c_str());
    return 1;
  }
  {
    AiqlEngine engine(&*atc_db);
    for (const CatalogQuery& query : AtcInvestigationQueries(atc.truth)) {
      runs.push_back(RunQuery(&engine, "fig5", query, repeat));
      std::fprintf(stderr, "  fig5 %-6s %8lld us  rows=%zu\n",
                   runs.back().id.c_str(),
                   static_cast<long long>(runs.back().wall_us),
                   runs.back().rows);
    }
  }

  // storage micro-bench: ingest + full scan on the demo record stream.
  StorageRun storage = RunStorageBench(demo.records);

  // Snapshot mode: v2 on-disk size and cold-start-to-first-result on the
  // demo database, plus a v2-served row-count verification of the whole
  // fig4 suite.
  SnapshotBench snapshot_bench;
  if (snapshot) {
    std::map<std::string, size_t> mem_rows;
    for (const QueryRun& run : runs) {
      mem_rows[run.suite + "/" + run.id] = run.rows;
    }
    snapshot_bench = RunSnapshotBench(
        *demo_db, DemoInvestigationQueries(demo.truth), mem_rows, "fig4");
    std::fprintf(stderr,
                 "snapshot: v2=%llu B cold-start %lld us (loaded %llu/%llu "
                 "partitions)\n",
                 static_cast<unsigned long long>(snapshot_bench.v2_bytes),
                 static_cast<long long>(snapshot_bench.v2_cold_start_us()),
                 static_cast<unsigned long long>(
                     snapshot_bench.v2_partitions_loaded),
                 static_cast<unsigned long long>(
                     snapshot_bench.v2_partitions_total));
  }

  // Provenance mode: backward track of the planted exfiltration chain from
  // the live database and from a lazily opened v2 snapshot, with per-hop
  // latency and partitions-materialized counts. Chain recovery gates the
  // exit code.
  ProvenanceBench provenance_bench;
  if (provenance) {
    provenance_bench = RunProvenanceBench();
    int64_t db_total = 0, snap_total = 0;
    for (Duration us : provenance_bench.db.hop_us) db_total += us;
    for (Duration us : provenance_bench.snapshot.hop_us) snap_total += us;
    std::fprintf(
        stderr,
        "provenance: db %zu nodes/%zu edges in %d hops (%lld us), "
        "snapshot %lld us loading %llu/%llu partitions, chain %s\n",
        provenance_bench.db.nodes, provenance_bench.db.edges,
        provenance_bench.db.hops, static_cast<long long>(db_total),
        static_cast<long long>(snap_total),
        static_cast<unsigned long long>(
            provenance_bench.snapshot_partitions_loaded),
        static_cast<unsigned long long>(
            provenance_bench.snapshot_partitions_total),
        provenance_bench.failed ? "NOT RECOVERED" : "recovered");
  }

  // Sharded mode: the fig4 suite and the multi-host campaign track through
  // 1/2/4/8-way agent-range shard maps; row counts and exact chain recovery
  // gate the exit code against the single-database runs above.
  ShardedBench sharded_bench;
  if (sharded) {
    std::map<std::string, size_t> single_rows;
    for (const QueryRun& run : runs) {
      single_rows[run.suite + "/" + run.id] = run.rows;
    }
    std::fprintf(stderr, "sharded: scatter/gather at 1/2/4/8 shards\n");
    sharded_bench =
        RunShardedBench(demo.records, DemoInvestigationQueries(demo.truth),
                        single_rows, runs, options, repeat);
  }

  // Chaos mode: failpoint fault-injection matrix over the single-pattern
  // fig4 queries at 4 shards — deadlines vs injected stalls, strict and
  // partial degraded execution, and snapshot read-fault retry. Every
  // scenario's governance contract gates the exit code.
  ChaosBench chaos_bench;
  if (chaos) {
    std::fprintf(stderr,
                 "chaos: failpoint matrix over fig4 at 4 shards "
                 "(50ms deadline vs 500ms injected stall)\n");
    chaos_bench =
        RunChaosBench(demo.records, DemoInvestigationQueries(demo.truth));
    std::fprintf(stderr, "  chaos: %zu queries x %zu scenario runs, %s\n",
                 chaos_bench.queries,
                 chaos_bench.runs.size(),
                 chaos_bench.failed ? "FAILED" : "all pass");
  }

  // Retention mode: both suites replayed into fully demoted tiered stores
  // with the cold cache capped at 25% of the all-hot footprint. Throughput,
  // row identity, cache charge, and RSS flatness gate the exit code.
  RetentionBench retention_bench;
  if (retention) {
    retention_bench.min_rate =
        EnvDouble("AIQL_BENCH_RETENTION_MIN_RATE", 50000);
    std::fprintf(stderr,
                 "retention: tiered replay at 25%% budget, min rate %.0f "
                 "records/s\n",
                 retention_bench.min_rate);
    int sweeps = 3;
    retention_bench.suites.push_back(
        RunRetentionSuite("fig4", demo.records,
                          DemoInvestigationQueries(demo.truth), *demo_db,
                          sweeps));
    retention_bench.suites.push_back(RunRetentionSuite(
        "fig5", atc.records, AtcInvestigationQueries(atc.truth), *atc_db,
        sweeps));
    retention_bench.rate_ok = true;
    retention_bench.rows_identical = true;
    retention_bench.budget_respected = true;
    retention_bench.rss_flat = true;
    for (const RetentionSuiteRun& suite : retention_bench.suites) {
      if (suite.failed) retention_bench.rows_identical = false;
      if (suite.ingest_rate < retention_bench.min_rate) {
        retention_bench.rate_ok = false;
      }
      // The cache may overshoot by at most one oversized partition (an
      // already-materialized partition is always admitted).
      if (suite.max_charged_bytes >
          suite.budget_bytes + suite.largest_partition_bytes) {
        retention_bench.budget_respected = false;
      }
      // Flat RSS: growth across the cold sweeps stays well under the
      // all-hot footprint (plus fixed allocator slop for small runs) —
      // i.e. eviction actually bounds memory instead of re-accumulating
      // every partition.
      if (!suite.rss_series_kb.empty()) {
        uint64_t first = suite.rss_series_kb.front();
        uint64_t peak = *std::max_element(suite.rss_series_kb.begin(),
                                          suite.rss_series_kb.end());
        uint64_t growth = (peak > first ? peak - first : 0) * 1024;
        if (growth > suite.all_hot_bytes / 2 + (64ull << 20)) {
          retention_bench.rss_flat = false;
        }
      }
      std::fprintf(
          stderr,
          "  retention %s: %llu records at %.0f rec/s, all-hot %llu B, "
          "budget %llu B, peak charge %llu B, %llu cold, %llu evictions, "
          "%llu reopens\n",
          suite.suite.c_str(),
          static_cast<unsigned long long>(suite.records), suite.ingest_rate,
          static_cast<unsigned long long>(suite.all_hot_bytes),
          static_cast<unsigned long long>(suite.budget_bytes),
          static_cast<unsigned long long>(suite.max_charged_bytes),
          static_cast<unsigned long long>(suite.cold_partitions),
          static_cast<unsigned long long>(suite.evictions),
          static_cast<unsigned long long>(suite.reopens));
    }
    retention_bench.failed =
        !(retention_bench.rate_ok && retention_bench.rows_identical &&
          retention_bench.budget_respected && retention_bench.rss_flat);
  }

  // Streaming mode: re-ingest each suite's records at a pinned rate on a
  // background thread, concurrent with the suite's queries; verify the
  // post-Seal row counts against the sealed-batch runs above.
  double stream_rate = EnvDouble("AIQL_BENCH_STREAM_RATE", 25000);
  std::vector<StreamSuiteRun> stream_suites;
  if (streaming) {
    std::map<std::string, size_t> expected_rows;
    for (const QueryRun& run : runs) {
      expected_rows[run.suite + "/" + run.id] = run.rows;
    }
    std::fprintf(stderr, "streaming: rate=%.0f records/s\n", stream_rate);
    stream_suites.push_back(
        RunStreamingSuite("fig4", demo.records,
                          DemoInvestigationQueries(demo.truth), expected_rows,
                          stream_rate));
    stream_suites.push_back(
        RunStreamingSuite("fig5", atc.records,
                          AtcInvestigationQueries(atc.truth), expected_rows,
                          stream_rate));
    for (const StreamSuiteRun& suite : stream_suites) {
      int mismatches = 0;
      for (const StreamQueryRun& q : suite.queries) {
        if (!q.rows_match) ++mismatches;
      }
      std::fprintf(stderr,
                   "  stream %s: %llu records in %.2fs, %d/%zu row "
                   "mismatches\n",
                   suite.suite.c_str(),
                   static_cast<unsigned long long>(suite.records),
                   static_cast<double>(suite.ingest_wall_us) / 1e6, mismatches,
                   suite.queries.size());
    }
  }

  bool has_baseline = false;
  if (!baseline_path.empty()) {
    auto baseline = ParseBaseline(baseline_path);
    for (QueryRun& run : runs) {
      auto it = baseline.find(run.suite + "/" + run.id);
      if (it != baseline.end()) {
        run.baseline_us = it->second;
        has_baseline = true;
      }
    }
  }

  FILE* out = std::fopen(out_path.c_str(), "w");
  if (out == nullptr) {
    std::fprintf(stderr, "cannot open '%s' for writing\n", out_path.c_str());
    return 1;
  }
  WriteJson(out, label, options, repeat, runs, storage, has_baseline,
            stream_rate, streaming ? &stream_suites : nullptr,
            snapshot ? &snapshot_bench : nullptr,
            provenance ? &provenance_bench : nullptr,
            sharded ? &sharded_bench : nullptr,
            chaos ? &chaos_bench : nullptr,
            retention ? &retention_bench : nullptr);
  std::fclose(out);
  std::fprintf(stderr, "wrote %s\n", out_path.c_str());

  if (snapshot && (snapshot_bench.failed || !snapshot_bench.rows_match ||
                   !snapshot_bench.all_query_rows_match)) {
    std::fprintf(stderr, "snapshot bench verification failed\n");
    return 1;
  }
  if (provenance && provenance_bench.failed) {
    std::fprintf(stderr, "provenance bench verification failed\n");
    return 1;
  }
  if (sharded && sharded_bench.failed) {
    std::fprintf(stderr, "sharded bench verification failed\n");
    return 1;
  }
  if (chaos && chaos_bench.failed) {
    std::fprintf(stderr, "chaos bench verification failed\n");
    return 1;
  }
  if (retention && retention_bench.failed) {
    std::fprintf(stderr,
                 "retention bench verification failed (rate_ok=%d "
                 "rows_identical=%d budget_respected=%d rss_flat=%d)\n",
                 retention_bench.rate_ok ? 1 : 0,
                 retention_bench.rows_identical ? 1 : 0,
                 retention_bench.budget_respected ? 1 : 0,
                 retention_bench.rss_flat ? 1 : 0);
    return 1;
  }
  int failures = 0;
  for (const QueryRun& run : runs) {
    if (run.failed) ++failures;
  }
  if (failures > 0) {
    std::fprintf(stderr, "%d quer%s failed to execute\n", failures,
                 failures == 1 ? "y" : "ies");
    return 1;
  }
  for (const StreamSuiteRun& suite : stream_suites) {
    if (suite.ingest_failed) {
      std::fprintf(stderr, "streaming ingest failed (%s)\n",
                   suite.suite.c_str());
      return 1;
    }
    for (const StreamQueryRun& q : suite.queries) {
      if (!q.rows_match) {
        std::fprintf(stderr,
                     "streaming row-count mismatch: %s/%s got %zu expected "
                     "%zu\n",
                     suite.suite.c_str(), q.id.c_str(), q.final_rows,
                     q.expected_rows);
        return 1;
      }
    }
  }
  return 0;
}
