// hot-investigation and cold-investigation: one analyst walks the fig4
// catalog (demo scenario), the fig5 catalog (ATC scenario) and three
// backward tracks from the demo attack's points of interest, in process,
// over all-hot AuditDatabases or fully demoted TieredStores.

#include <algorithm>
#include <filesystem>
#include <memory>

#include "query/parser.h"
#include "server/protocol.h"
#include "simulator/queries_c.h"
#include "storage/partition.h"
#include "storage/shard_map.h"
#include "storage/tiered.h"
#include "workloads.h"

namespace aiqlbench {

using namespace aiql;

namespace {

/// One scenario's store for one set-up round.
struct Store {
  std::unique_ptr<AuditDatabase> db;   // hot-investigation
  std::unique_ptr<TieredStore> tiered;  // cold-investigation
  std::string dir;
  std::vector<double> batch_ms;  ///< AppendBatch + Flush per batch
  Status status;
  uint64_t stored_events = 0;
  uint64_t partitions = 0;
  uint64_t all_hot_bytes = 0;
  uint64_t largest_partition_bytes = 0;
  uint64_t budget_bytes = 0;
  uint64_t dir_bytes = 0;

  const AuditDatabase& hot_db() const { return tiered ? tiered->db() : *db; }

  ~Store() {
    tiered.reset();
    if (!dir.empty()) {
      std::error_code ignored;
      std::filesystem::remove_all(dir, ignored);
    }
  }
};

/// Ingests `records` and seals.
void BuildStore(const std::vector<EventRecord>& records, Store* store) {
  AuditDatabase* db = nullptr;
  if (store->tiered != nullptr) {
    db = store->tiered->mutable_db();
  } else {
    store->db = std::make_unique<AuditDatabase>();
    db = store->db.get();
  }
  store->status = IngestInBatches(records, db, &store->batch_ms);
  if (store->status.ok()) store->status = db->Seal();
  if (!store->status.ok()) return;
  DatabaseStats stats = db->StatsSnapshot();
  store->stored_events = stats.total_events;
  store->partitions = stats.partitions_sealed;
  for (const auto& [key, partition] : db->ListSealedPartitions()) {
    uint64_t bytes = partition->MemoryFootprint();
    store->all_hot_bytes += bytes;
    store->largest_partition_bytes =
        std::max(store->largest_partition_bytes, bytes);
  }
}

uint64_t DirBytes(const std::string& dir) {
  uint64_t bytes = 0;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    if (entry.is_regular_file()) bytes += entry.file_size();
  }
  return bytes;
}

/// One catalog (fig4 or fig5) over one store.
struct Catalog {
  std::vector<CatalogQuery> queries;
  std::unique_ptr<AiqlEngine> engine;
  std::vector<uint64_t> reference;
  const Store* store = nullptr;
};

/// The whole pass: both catalogs, then the demo tracks.
struct Investigation {
  std::vector<Catalog> catalogs;  // [0] = demo (fig4), [1] = ATC (fig5)
  std::vector<TrackSpec> tracks;
  std::vector<TrackPrint> track_reference;
  bool cold = false;
  double peak_charged_mb = 0;
};

std::string NodeKey(const EntityStore& entities, const ProvenanceNode& node) {
  return EntityRefKey(MakeEntityRef(entities, node.type, node.id));
}

/// Takes the all-hot references: row fingerprints and canonical tracks.
bool TakeReference(Investigation* inv) {
  for (Catalog& catalog : inv->catalogs) {
    catalog.reference.clear();
    for (const CatalogQuery& query : catalog.queries) {
      auto result = catalog.engine->Execute(query.text);
      if (!result.ok()) {
        std::fprintf(stderr, "reference %s failed: %s\n", query.id.c_str(),
                     result.status().ToString().c_str());
        return false;
      }
      catalog.reference.push_back(RowsFingerprint(result->table));
    }
  }
  const Catalog& demo = inv->catalogs[0];
  const EntityStore& entities = demo.store->hot_db().entities();
  inv->track_reference.clear();
  for (const TrackSpec& track : inv->tracks) {
    auto result = demo.engine->Track(track.request);
    if (!result.ok()) {
      std::fprintf(stderr, "reference track %s failed: %s\n",
                   track.id.c_str(), result.status().ToString().c_str());
      return false;
    }
    inv->track_reference.push_back(FingerprintTrack(
        *result, [&](const ProvenanceNode& n) { return NodeKey(entities, n); }));
  }
  return true;
}

/// Sum of the cache counters of every cold store.
RetentionStats ColdStats(const Investigation& inv) {
  RetentionStats sum;
  for (const Catalog& catalog : inv.catalogs) {
    RetentionStats s = catalog.store->tiered->stats();
    sum.reopens += s.reopens;
    sum.cache.hits += s.cache.hits;
    sum.cache.misses += s.cache.misses;
    sum.cache.evictions += s.cache.evictions;
  }
  return sum;
}

/// Cold-cache gate: each store's charge stays within budget plus its
/// largest partition (one oversized admission).
void CheckCache(Investigation* inv, RunResult* result) {
  for (const Catalog& catalog : inv->catalogs) {
    PartitionCacheStats cache = catalog.store->tiered->cache()->stats();
    inv->peak_charged_mb = std::max(
        inv->peak_charged_mb, static_cast<double>(cache.charged_bytes) / 1e6);
    if (cache.charged_bytes > catalog.store->budget_bytes +
                                  catalog.store->largest_partition_bytes) {
      result->Fail("cold cache charge " + std::to_string(cache.charged_bytes) +
                   " exceeds budget " +
                   std::to_string(catalog.store->budget_bytes) +
                   " + largest partition");
    }
  }
}

/// One analyst pass. Latencies exclude the benchmark's own checks; the
/// pass time excludes them too, but includes traced-only work.
void RunPass(Investigation* inv, Tracer* tracer, LoopSamples* samples,
             RunResult* result) {
  auto pass_start = Clock::now();
  double verify_ms = 0;
  Span pass(tracer, "investigation");
  RetentionStats before;
  if (tracer->enabled()) {
    if (inv->cold) before = ColdStats(*inv);
    Span span(tracer, "storage.open_view");
    const Store& demo = *inv->catalogs[0].store;
    ReadView view =
        demo.tiered ? demo.tiered->OpenReadView() : demo.db->OpenReadView();
  }
  size_t position = 0;
  for (Catalog& catalog : inv->catalogs) {
    for (size_t i = 0; i < catalog.queries.size(); ++i, ++position) {
      const CatalogQuery& query = catalog.queries[i];
      if (tracer->enabled()) {
        Span span(tracer, "query.parse");
        auto parsed = ParseAiql(query.text);
        if (!parsed.ok()) result->Fail(query.id + " does not parse");
      }
      auto start = Clock::now();
      Result<QueryResult> run = Status::Internal("not run");
      {
        Span call(tracer, "query.call");
        run = catalog.engine->Execute(query.text);
        if (run.ok() && tracer->enabled()) {
          const QueryStats& s = run->stats;
          call.Count("plan_ms", static_cast<double>(s.plan_time) / 1e3);
          call.Count("exec_ms", static_cast<double>(s.exec_time) / 1e3);
          call.Count("stats_total_ms",
                     static_cast<double>(s.total_time()) / 1e3);
          call.Count("events_scanned", static_cast<double>(s.events_scanned));
          call.Count("events_matched", static_cast<double>(s.events_matched));
          call.Count("partitions_scanned",
                     static_cast<double>(s.partitions_scanned));
          call.Count("join_candidates",
                     static_cast<double>(s.join_candidates));
        }
      }
      auto done = Clock::now();
      samples->AddQuery(position, MsBetween(start, done));
      result->attempted += 1;
      if (!run.ok()) {
        result->Fail(query.id + ": " + run.status().ToString());
      } else if (run->table.num_rows() < query.min_expected_rows) {
        result->Fail(query.id + ": " + std::to_string(run->table.num_rows()) +
                     " rows, expected at least " +
                     std::to_string(query.min_expected_rows));
      } else if (RowsFingerprint(run->table) != catalog.reference[i]) {
        result->Fail(query.id + ": rows differ from the all-hot reference");
      }
      if (inv->cold) CheckCache(inv, result);
      verify_ms += MsBetween(done, Clock::now());
      if (run.ok() && tracer->enabled()) {
        // What the reply would cost on the wire (server.* rows).
        QueryReply reply;
        reply.table = std::move(run->table);
        reply.stats = run->stats;
        std::string payload = EncodeQueryOk(reply);
        Span span(tracer, "server.decode");
        span.Count("reply_bytes", static_cast<double>(payload.size()));
        auto decoded = DecodeResponse(payload);
        if (!decoded.ok()) result->Fail(query.id + ": reply does not decode");
      }
    }
  }
  const Catalog& demo = inv->catalogs[0];
  const EntityStore& entities = demo.store->hot_db().entities();
  for (size_t i = 0; i < inv->tracks.size(); ++i) {
    const TrackSpec& track = inv->tracks[i];
    auto start = Clock::now();
    Result<ProvenanceResult> run = Status::Internal("not run");
    {
      Span span(tracer, "provenance.track");
      run = demo.engine->Track(track.request);
      if (run.ok() && tracer->enabled()) {
        const ProvenanceStats& s = run->stats;
        Duration hop_us = 0;
        for (Duration us : s.hop_latency_us) hop_us += us;
        span.Count("hops", s.hops);
        span.Count("hop_ms", static_cast<double>(hop_us) / 1e3);
        span.Count("events_inspected", static_cast<double>(s.events_inspected));
        span.Count("partitions_selected",
                   static_cast<double>(s.partitions_selected));
      }
    }
    auto done = Clock::now();
    samples->AddTrack(i, MsBetween(start, done));
    result->attempted += 1;
    if (!run.ok()) {
      result->Fail("track " + track.id + ": " + run.status().ToString());
    } else if (!(FingerprintTrack(*run, [&](const ProvenanceNode& n) {
                   return NodeKey(entities, n);
                 }) == inv->track_reference[i])) {
      result->Fail("track " + track.id + ": graph differs from reference");
    }
    if (inv->cold) CheckCache(inv, result);
    verify_ms += MsBetween(done, Clock::now());
  }
  if (tracer->enabled() && inv->cold) {
    RetentionStats after = ColdStats(*inv);
    pass.Count("cache_hits",
               static_cast<double>(after.cache.hits - before.cache.hits));
    pass.Count("cache_misses",
               static_cast<double>(after.cache.misses - before.cache.misses));
    pass.Count("reopens", static_cast<double>(after.reopens - before.reopens));
    pass.Count("evictions", static_cast<double>(after.cache.evictions -
                                                 before.cache.evictions));
  }
  samples->pass_ms.push_back(MsBetween(pass_start, Clock::now()) - verify_ms);
}

}  // namespace

bool RunLocalInvestigation(const Options& options, bool cold,
                           RunResult* result) {
  const ScenarioOptions scenario = PinnedScenario(options);

  // --- generation (the simulator, not the system under test) -------------
  auto gen_start = Clock::now();
  DemoScenarioData demo;
  AtcScenarioData atc;
  OnThreads(2, [&](size_t i) {
    if (i == 0) demo = GenerateDemoScenario(scenario);
    else atc = GenerateAtcScenario(scenario);
  });
  const double generate_s = SecondsBetween(gen_start, Clock::now());
  const std::vector<EventRecord>* records[2] = {&demo.records, &atc.records};

  // --- store set-up, repeated; the last round's stores are measured ------
  std::vector<std::unique_ptr<Store>> stores;  // outlives the engines
  Investigation inv;
  inv.cold = cold;
  inv.tracks = DemoTracks(demo.truth);
  std::vector<double> round_s, ingest_s, demote_s, batch_ms;
  RssGrowth rss;  // the generated records stay allocated until the loop ends
  rss.Begin();
  for (int round = 0; round < kSetupRounds; ++round) {
    inv.catalogs.clear();
    stores.clear();
    auto round_start = Clock::now();
    double reference_s = 0;
    for (int s = 0; s < 2; ++s) {
      auto store = std::make_unique<Store>();
      if (cold) {
        store->dir = options.scratch_dir + "/" + options.workload + "-" +
                     std::to_string(s) + "-r" + std::to_string(round);
        std::error_code ignored;
        std::filesystem::remove_all(store->dir, ignored);
        RetentionOptions retention;
        retention.dir = store->dir;
        retention.hot_buckets = -1;  // demote everything
        auto tiered = TieredStore::Create(StorageOptions{}, retention);
        if (!tiered.ok()) {
          std::fprintf(stderr, "tiered store: %s\n",
                       tiered.status().ToString().c_str());
          return false;
        }
        store->tiered = std::move(*tiered);
      }
      stores.push_back(std::move(store));
    }
    OnThreads(2, [&](size_t s) { BuildStore(*records[s], stores[s].get()); });
    ingest_s.push_back(SecondsBetween(round_start, Clock::now()));
    for (const auto& store : stores) {
      if (!store->status.ok()) {
        std::fprintf(stderr, "ingest: %s\n", store->status.ToString().c_str());
        return false;
      }
      batch_ms.insert(batch_ms.end(), store->batch_ms.begin(),
                      store->batch_ms.end());
    }
    // One engine worker: queries and tracks run on the analyst's own
    // thread, with no partition-parallel pool. Pinned because a second
    // worker made run-to-run figures swing (README.md, "Noise").
    EngineOptions engine_options;
    engine_options.enable_parallelism = false;
    for (int s = 0; s < 2; ++s) {
      Catalog catalog;
      catalog.queries = s == 0 ? DemoInvestigationQueries(demo.truth)
                               : AtcInvestigationQueries(atc.truth);
      catalog.engine =
          cold ? std::make_unique<AiqlEngine>(stores[s]->tiered.get(),
                                              engine_options)
               : std::make_unique<AiqlEngine>(stores[s]->db.get(),
                                              engine_options);
      catalog.store = stores[s].get();
      inv.catalogs.push_back(std::move(catalog));
    }
    if (cold) {
      if (round == kSetupRounds - 1) {
        // All-hot reference, taken before demotion; not set-up time.
        auto ref_start = Clock::now();
        if (!TakeReference(&inv)) return false;
        reference_s = SecondsBetween(ref_start, Clock::now());
      }
      auto demote_start = Clock::now();
      std::vector<Status> demoted(2);
      OnThreads(2, [&](size_t s) {
        Store* store = stores[s].get();
        store->budget_bytes = store->all_hot_bytes / 4;
        store->tiered->cache()->SetBudget(store->budget_bytes);
        demoted[s] = store->tiered->CompactOnce();
      });
      demote_s.push_back(SecondsBetween(demote_start, Clock::now()));
      for (int s = 0; s < 2; ++s) {
        RetentionStats stats = stores[s]->tiered->stats();
        if (!demoted[s].ok() || stats.hot_partitions != 0) {
          std::fprintf(stderr, "demotion left %llu hot partitions: %s\n",
                       static_cast<unsigned long long>(stats.hot_partitions),
                       demoted[s].ToString().c_str());
          return false;
        }
        stores[s]->dir_bytes = DirBytes(stores[s]->dir);
      }
    }
    round_s.push_back(SecondsBetween(round_start, Clock::now()) - reference_s);
  }
  if (!cold && !TakeReference(&inv)) return false;
  if (options.corrupt_reference) inv.catalogs[0].reference[0] ^= 1;

  // --- warm-up pass (checked, not timed), then the measured loop --------
  if (!rss.ResetPeak()) {
    std::fprintf(stderr, "cannot reset the peak RSS\n");
    return false;
  }
  Tracer off(false), on(true);
  LoopSamples warmup, untraced, traced;
  RunPass(&inv, &off, &warmup, result);
  auto loop_start = Clock::now();
  auto deadline = loop_start + std::chrono::duration_cast<Clock::duration>(
                                   std::chrono::duration<double>(options.seconds));
  for (int pass = 0; Clock::now() < deadline; ++pass) {
    bool trace_pass = options.trace && pass % 2 == 1;
    RunPass(&inv, trace_pass ? &on : &off, trace_pass ? &traced : &untraced,
            result);
  }
  const double loop_s = SecondsBetween(loop_start, Clock::now());

  uint64_t stored_events = 0, partitions = 0, hot_bytes = 0, budget = 0,
           dir_bytes = 0;
  for (const auto& store : stores) {
    stored_events += store->stored_events;
    partitions += store->partitions;
    hot_bytes += store->all_hot_bytes;
    budget += store->budget_bytes;
    dir_bytes += store->dir_bytes;
  }
  LoopFigures figures = ComputeFigures({untraced});
  std::vector<std::pair<std::string, std::string>> record = {
      {"engine_workers", "1"},
      {"analysts", "1"},
      {"connections", "0"},
      {"setup_rounds", std::to_string(kSetupRounds)},
      {"raw_events",
       std::to_string(demo.records.size() + atc.records.size())},
      {"stored_events", std::to_string(stored_events)},
      {"partitions", std::to_string(partitions)},
      {"all_hot_bytes", std::to_string(hot_bytes)},
      {"cache_budget_bytes", std::to_string(budget)},
      {"retention_dir_bytes", std::to_string(dir_bytes)},
      {"measured_passes",
       std::to_string(untraced.pass_ms.size() + traced.pass_ms.size())},
      {"query_samples", std::to_string(untraced.queries())},
      {"track_samples", std::to_string(untraced.tracks())},
      {"pass_p50_ms", Num(figures.pass_p50_ms)},
      {"loop_s", Num(loop_s)}};
  for (auto& field : rss.RecordFields()) record.push_back(field);
  PrintRunRecord(options, record);

  if (!options.trace) {
    AddLoopMetrics(figures, result);
    result->Add("setup_s", generate_s + Median(round_s), "s");
    result->Add("rss_added_mb", rss.AddedMb(), "MB");
    result->Add("stored_bytes_per_event",
                static_cast<double>(cold ? dir_bytes : hot_bytes) /
                    static_cast<double>(stored_events),
                "bytes");
    return true;
  }
  Tracer::Table spans;
  on.Aggregate(&spans);
  PrintSpanTable(spans);
  LayerFigures layer;
  layer.generate_s = generate_s;
  layer.ingest_s = Median(ingest_s);
  double batch_sum = 0;
  for (double ms : batch_ms) batch_sum += ms;
  layer.append_ms = batch_ms.empty() ? 0 : batch_sum / batch_ms.size();
  layer.ingest_p50_ms = Median(batch_ms);
  layer.partitions_sealed = static_cast<double>(partitions);
  if (cold) {
    layer.demote_mb_per_s =
        static_cast<double>(hot_bytes) / 1e6 / Median(demote_s);
    layer.dir_bytes = static_cast<double>(dir_bytes);
    layer.peak_charged_mb = inv.peak_charged_mb;
  }
  AddLayerMetrics(spans, layer, result);
  AddOverheadMetrics(figures, ComputeFigures({traced}), result);
  return true;
}

}  // namespace aiqlbench
