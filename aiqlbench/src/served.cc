// served-ingest: two analysts drive an in-process AiqlServer over TCP
// while one writer streams the last two hours of the demo scenario into
// the server's 4-shard map at a pinned rate.

#include <sched.h>

#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <iterator>
#include <memory>

#include "common/net.h"
#include "query/parser.h"
#include "server/aiql_server.h"
#include "server/protocol.h"
#include "storage/partition.h"
#include "storage/shard_map.h"
#include "workloads.h"

namespace aiqlbench {

using namespace aiql;

namespace {

// Pinned load shape (README.md, "Noise" for why each is pinned).
constexpr size_t kShards = 4;
constexpr size_t kAnalysts = 2;
constexpr size_t kMaxConcurrentQueries = 2;
/// Partition parallelism 2: the query's own thread plus one pool worker
/// (ThreadPool::ParallelFor lets the caller take iterations).
constexpr size_t kEnginePoolThreads = 1;
/// The process runs on two CPUs. Hand-offs between the analysts, the
/// session and query threads then mostly stay on a CPU that is awake; on
/// an idle virtual CPU each one waits for the host (README.md, "Noise").
constexpr int kCpus = 2;
constexpr size_t kWriterBatch = 256;
constexpr Duration kPreload = 4 * kHour;
/// A track reply must hold the root and at least one cause.
constexpr size_t kMinTrackNodes = 2;

/// One analyst's TCP session.
class Client {
 public:
  Status Connect(uint16_t port) {
    AIQL_ASSIGN_OR_RETURN(conn_, ConnectTo("127.0.0.1", port));
    AIQL_ASSIGN_OR_RETURN(Response hello, Call(EncodeHello(), nullptr));
    if (hello.type != MsgType::kHelloOk) {
      return Status::Internal("handshake refused: " + hello.error.ToString());
    }
    return Status::OK();
  }

  /// One request/reply round trip; decoding is a "server.decode" span.
  Result<Response> Call(const std::string& request, Tracer* tracer) {
    AIQL_RETURN_IF_ERROR(conn_.WriteFrame(request));
    AIQL_ASSIGN_OR_RETURN(std::string payload, conn_.ReadFrame());
    if (tracer == nullptr) return DecodeResponse(payload);
    Span span(tracer, "server.decode");
    span.Count("reply_bytes", static_cast<double>(payload.size()));
    return DecodeResponse(payload);
  }

 private:
  Connection conn_;
};

/// The served system: shard databases, their map, the server and one
/// connection per analyst. Members tear down in reverse order.
struct ShardWorld {
  std::vector<std::unique_ptr<AuditDatabase>> dbs;
  ShardMap map;
  std::unique_ptr<AiqlServer> server;
  std::vector<Client> clients;
};

/// Single-store reference of one catalog query / track.
struct QueryReference {
  uint64_t fingerprint = 0;
  uint64_t events_scanned = 0;
};
struct TrackReference {
  TrackPrint graph;
  uint64_t table = 0;  ///< fingerprint of the rendered node table
};

/// Shared, read-only state of the measured loop.
struct Served {
  std::vector<CatalogQuery> queries;
  std::vector<TrackSpec> tracks;
  std::vector<QueryReference> query_reference;
  std::vector<TrackReference> track_reference;
  uint64_t reference_events = 0;  ///< stored events of the single store
  const ShardMap* map = nullptr;
};

/// The integer before `tail` in `text` (0 when absent).
double NumberBefore(const std::string& text, const char* tail) {
  size_t at = text.find(tail);
  if (at == std::string::npos) return 0;
  size_t begin = at;
  while (begin > 0 && text[begin - 1] >= '0' && text[begin - 1] <= '9') {
    --begin;
  }
  return begin == at ? 0 : std::strtod(text.c_str() + begin, nullptr);
}

/// The number right after `head` in `text` (0 when absent).
double NumberAfter(const std::string& text, const char* head) {
  size_t at = text.find(head);
  if (at == std::string::npos) return 0;
  return std::strtod(text.c_str() + at + std::strlen(head), nullptr);
}

/// Provenance counts from the server's rendered track summary.
void CountTrackSummary(const std::string& summary, Span* span) {
  span->Count("hops", NumberBefore(summary, " hops"));
  span->Count("events_inspected", NumberBefore(summary, " postings inspected"));
  span->Count("partitions_selected", NumberBefore(summary, " partition scans"));
  span->Count("hop_ms", NumberAfter(summary, "(total ") / 1e3);
}

/// One analyst pass over the wire: the fig4 catalog, then the tracks.
/// Replies must be OK with at least the expected rows; the data grows
/// under the writer, so exact identity is checked after the run.
void RunPass(const Served& served, Client* client, Tracer* tracer,
             LoopSamples* samples, RunResult* result) {
  auto pass_start = Clock::now();
  Span pass(tracer, "investigation");
  if (tracer->enabled()) {
    Span span(tracer, "storage.open_view");
    std::vector<ReadView> views = served.map->OpenReadViews();
  }
  for (size_t position = 0; position < served.queries.size(); ++position) {
    const CatalogQuery& query = served.queries[position];
    if (tracer->enabled()) {
      Span span(tracer, "query.parse");
      auto parsed = ParseAiql(query.text);
      if (!parsed.ok()) result->Fail(query.id + " does not parse");
    }
    std::string request = EncodeTextRequest(MsgType::kQuery, query.text);
    auto start = Clock::now();
    Result<Response> reply = Status::Internal("not run");
    {
      Span call(tracer, "query.call");
      reply = client->Call(request, tracer);
      if (reply.ok() && reply->type == MsgType::kQueryOk &&
          tracer->enabled()) {
        const QueryStats& s = reply->query.stats;
        call.Count("plan_ms", static_cast<double>(s.plan_time) / 1e3);
        call.Count("exec_ms", static_cast<double>(s.exec_time) / 1e3);
        call.Count("stats_total_ms", static_cast<double>(s.total_time()) / 1e3);
        call.Count("events_scanned", static_cast<double>(s.events_scanned));
        call.Count("events_matched", static_cast<double>(s.events_matched));
        call.Count("partitions_scanned",
                   static_cast<double>(s.partitions_scanned));
        call.Count("join_candidates", static_cast<double>(s.join_candidates));
        call.Count("retried", NumberBefore(reply->query.degraded, " retried"));
      }
    }
    samples->AddQuery(position, MsBetween(start, Clock::now()));
    result->attempted += 1;
    if (!reply.ok()) {
      result->Fail(query.id + ": " + reply.status().ToString());
    } else if (reply->type != MsgType::kQueryOk) {
      result->Fail(query.id + ": " + reply->error.ToString());
    } else if (reply->query.table.num_rows() < query.min_expected_rows) {
      result->Fail(query.id + ": " +
                   std::to_string(reply->query.table.num_rows()) +
                   " rows, expected at least " +
                   std::to_string(query.min_expected_rows));
    }
  }
  for (size_t position = 0; position < served.tracks.size(); ++position) {
    const TrackSpec& track = served.tracks[position];
    TrackCommand command;
    command.request = track.request;
    std::string request = EncodeTrack(command);
    auto start = Clock::now();
    Result<Response> reply = Status::Internal("not run");
    {
      Span span(tracer, "provenance.track");
      reply = client->Call(request, nullptr);
      if (reply.ok() && reply->type == MsgType::kTrackOk &&
          tracer->enabled()) {
        CountTrackSummary(reply->track.summary, &span);
      }
    }
    samples->AddTrack(position, MsBetween(start, Clock::now()));
    result->attempted += 1;
    if (!reply.ok()) {
      result->Fail("track " + track.id + ": " + reply.status().ToString());
    } else if (reply->type != MsgType::kTrackOk) {
      result->Fail("track " + track.id + ": " + reply->error.ToString());
    } else if (reply->track.table.num_rows() < kMinTrackNodes) {
      result->Fail("track " + track.id + ": " +
                   std::to_string(reply->track.table.num_rows()) + " nodes");
    }
  }
  samples->pass_ms.push_back(MsBetween(pass_start, Clock::now()));
}

/// Builds the shard databases from the preload, the map and the server,
/// and connects the analysts. `ingest_s` receives the ingest wall time.
Status BuildWorld(const std::vector<ShardRange>& ranges,
                  const std::vector<EventRecord>& preload, ShardWorld* world,
                  double* ingest_s) {
  auto start = Clock::now();
  AIQL_ASSIGN_OR_RETURN(auto routed, RouteRecordsByAgent(ranges, preload));
  std::vector<Status> status(ranges.size());
  for (size_t s = 0; s < ranges.size(); ++s) {
    world->dbs.push_back(std::make_unique<AuditDatabase>());
  }
  // No seal: the shards keep ingesting during the run.
  OnThreads(ranges.size(), [&](size_t s) {
    status[s] = IngestInBatches(routed[s], world->dbs[s].get(), nullptr);
  });
  *ingest_s = SecondsBetween(start, Clock::now());
  for (size_t s = 0; s < ranges.size(); ++s) {
    AIQL_RETURN_IF_ERROR(status[s]);
    AIQL_RETURN_IF_ERROR(world->map.AddShard(world->dbs[s].get(), ranges[s]));
  }
  ServerOptions server_options;
  server_options.max_concurrent_queries = kMaxConcurrentQueries;
  EngineOptions engine_options;
  engine_options.num_threads = kEnginePoolThreads;
  world->server = std::make_unique<AiqlServer>(
      static_cast<const AuditDatabase*>(nullptr), &world->map, server_options,
      engine_options);
  AIQL_RETURN_IF_ERROR(world->server->Start());
  world->clients.resize(kAnalysts);
  for (Client& client : world->clients) {
    AIQL_RETURN_IF_ERROR(client.Connect(world->server->port()));
  }
  return Status::OK();
}

/// The open-loop writer: batch i is due at start + i * interval; its
/// latency runs from when it was due to when every shard committed it.
/// Each batch is copied before it is due and the copy moves into the
/// shards, so `batches` stays allocated for rss_added_mb's baseline.
struct Writer {
  std::vector<std::vector<std::vector<EventRecord>>> batches;  // [i][shard]
  std::vector<double> due_latency_ms;
  std::vector<double> append_ms;
  double max_late_ms = 0;
  Status status;

  void Run(ShardWorld* world, Clock::time_point start, double interval_s) {
    for (size_t i = 0; i < batches.size() && status.ok(); ++i) {
      std::vector<std::vector<EventRecord>> batch = batches[i];
      auto due = start + std::chrono::duration_cast<Clock::duration>(
                             std::chrono::duration<double>(interval_s * i));
      std::this_thread::sleep_until(due);
      auto begin = Clock::now();
      max_late_ms = std::max(max_late_ms, MsBetween(due, begin));
      for (size_t s = 0; s < batch.size() && status.ok(); ++s) {
        if (batch[s].empty()) continue;
        status = world->dbs[s]->AppendBatch(std::move(batch[s]));
        if (status.ok()) status = world->dbs[s]->Flush();
      }
      auto done = Clock::now();
      due_latency_ms.push_back(MsBetween(due, done));
      append_ms.push_back(MsBetween(begin, done));
    }
  }
};

/// Restricts the calling thread, and so every thread it starts, to the
/// first kCpus CPUs it may run on; returns how many it got, or 0.
int PinToCpus() {
  cpu_set_t allowed, pinned;
  if (sched_getaffinity(0, sizeof(allowed), &allowed) != 0) return 0;
  CPU_ZERO(&pinned);
  int taken = 0;
  for (int cpu = 0; cpu < CPU_SETSIZE && taken < kCpus; ++cpu) {
    if (CPU_ISSET(cpu, &allowed)) {
      CPU_SET(cpu, &pinned);
      ++taken;
    }
  }
  return sched_setaffinity(0, sizeof(pinned), &pinned) == 0 ? taken : 0;
}

uint64_t SealedPartitions(const ShardWorld& world) {
  uint64_t sealed = 0;
  for (const auto& db : world.dbs) sealed += db->StatsSnapshot().partitions_sealed;
  return sealed;
}

}  // namespace

bool RunServedIngest(const Options& options, RunResult* result) {
  const int cpus = PinToCpus();
  if (cpus == 0) {
    std::fprintf(stderr, "cannot set the CPU affinity\n");
    return false;
  }
  auto gen_start = Clock::now();
  DemoScenarioData demo = GenerateDemoScenario(PinnedScenario(options));
  const double generate_s = SecondsBetween(gen_start, Clock::now());

  // --- single-store reference over all six hours (benchmark work) --------
  Served served;
  served.queries = DemoInvestigationQueries(demo.truth);
  served.tracks = DemoTracks(demo.truth);
  {
    AuditDatabase reference_db;
    Status ingested = IngestInBatches(demo.records, &reference_db, nullptr);
    if (ingested.ok()) ingested = reference_db.Seal();
    if (!ingested.ok()) {
      std::fprintf(stderr, "reference ingest: %s\n",
                   ingested.ToString().c_str());
      return false;
    }
    served.reference_events = reference_db.StatsSnapshot().total_events;
    EngineOptions engine_options;
    engine_options.enable_parallelism = false;
    AiqlEngine engine(&reference_db, engine_options);
    for (const CatalogQuery& query : served.queries) {
      auto run = engine.Execute(query.text);
      if (!run.ok()) {
        std::fprintf(stderr, "reference %s: %s\n", query.id.c_str(),
                     run.status().ToString().c_str());
        return false;
      }
      served.query_reference.push_back(
          {RowsFingerprint(run->table), run->stats.events_scanned});
    }
    const EntityStore& entities = reference_db.entities();
    for (const TrackSpec& track : served.tracks) {
      auto run = engine.Track(track.request);
      if (!run.ok()) {
        std::fprintf(stderr, "reference track %s: %s\n", track.id.c_str(),
                     run.status().ToString().c_str());
        return false;
      }
      served.track_reference.push_back(
          {FingerprintTrack(*run,
                            [&](const ProvenanceNode& n) {
                              return EntityRefKey(
                                  MakeEntityRef(entities, n.type, n.id));
                            }),
           RowsFingerprint(RenderTrackTable(*run, entities))});
    }
  }
  if (options.corrupt_reference) served.query_reference[0].fingerprint ^= 1;

  // Preload hours 0-4 (the whole attack) plus each host's first record
  // past 4 h, so every hour-3 partition has rotated and sealed before the
  // first query; the writer streams the rest. Records move out of the
  // generator's vector, which is then freed.
  const Timestamp split = demo.window.start + kPreload;
  const size_t raw_events = demo.records.size();
  std::vector<EventRecord> preload, stream;
  std::vector<AgentId> rotated;
  AgentId min_agent = demo.records.front().agent_id, max_agent = min_agent;
  for (EventRecord& record : demo.records) {
    min_agent = std::min(min_agent, record.agent_id);
    max_agent = std::max(max_agent, record.agent_id);
    bool first_past_split =
        record.start_ts >= split &&
        std::find(rotated.begin(), rotated.end(), record.agent_id) ==
            rotated.end();
    if (first_past_split) rotated.push_back(record.agent_id);
    (record.start_ts < split || first_past_split ? preload : stream)
        .push_back(std::move(record));
  }
  std::vector<EventRecord>().swap(demo.records);
  const std::vector<ShardRange> ranges =
      EvenAgentRanges(kShards, min_agent, max_agent);

  // The writer's batches, routed ahead of time (load generation).
  Writer writer;
  const size_t stream_events = stream.size();
  for (size_t i = 0; i < stream.size(); i += kWriterBatch) {
    std::vector<EventRecord> chunk(
        std::make_move_iterator(stream.begin() + i),
        std::make_move_iterator(
            stream.begin() + std::min(stream.size(), i + kWriterBatch)));
    auto routed = RouteRecordsByAgent(ranges, chunk);
    if (!routed.ok()) return false;
    writer.batches.push_back(std::move(*routed));
  }
  std::vector<EventRecord>().swap(stream);
  // Offered rate: the stream spans the measured interval exactly.
  const double interval_s =
      options.seconds / static_cast<double>(std::max<size_t>(1, writer.batches.size()));
  const double writer_rate = static_cast<double>(stream_events) / options.seconds;

  // --- served system set-up, repeated; the last round is measured --------
  // The preload and the writer's batches stay allocated until the loop
  // ends.
  std::vector<double> round_s, ingest_s;
  std::unique_ptr<ShardWorld> world;
  RssGrowth rss;
  rss.Begin();
  for (int round = 0; round < kSetupRounds; ++round) {
    world.reset();
    auto round_start = Clock::now();
    world = std::make_unique<ShardWorld>();
    double ingest = 0;
    Status built = BuildWorld(ranges, preload, world.get(), &ingest);
    if (!built.ok()) {
      std::fprintf(stderr, "served set-up: %s\n", built.ToString().c_str());
      return false;
    }
    round_s.push_back(SecondsBetween(round_start, Clock::now()));
    ingest_s.push_back(ingest);
  }
  served.map = &world->map;
  if (!rss.ResetPeak()) {
    std::fprintf(stderr, "cannot reset the peak RSS\n");
    return false;
  }

  // --- warm-up pass per analyst, then the measured loop -------------------
  std::vector<RunResult> tallies(kAnalysts);
  OnThreads(kAnalysts, [&](size_t a) {
    Tracer off(false);
    LoopSamples warmup;
    RunPass(served, &world->clients[a], &off, &warmup, &tallies[a]);
  });
  const uint64_t sealed_before = SealedPartitions(*world);
  const ServerCounters counters_before = world->server->stats();
  std::vector<LoopSamples> untraced(kAnalysts), traced(kAnalysts);
  std::vector<std::unique_ptr<Tracer>> tracers;
  for (size_t a = 0; a < kAnalysts; ++a) {
    tracers.push_back(std::make_unique<Tracer>(true));
  }
  auto loop_start = Clock::now();
  auto deadline = loop_start + std::chrono::duration_cast<Clock::duration>(
                                   std::chrono::duration<double>(options.seconds));
  // The writer runs beside the analysts; analysts trace alternate passes,
  // out of phase with each other.
  OnThreads(kAnalysts + 1, [&](size_t a) {
    if (a == kAnalysts) {
      writer.Run(world.get(), loop_start, interval_s);
      return;
    }
    Tracer off(false);
    for (size_t pass = a; Clock::now() < deadline; ++pass) {
      bool trace_pass = options.trace && pass % 2 == 1;
      RunPass(served, &world->clients[a],
              trace_pass ? tracers[a].get() : &off,
              trace_pass ? &traced[a] : &untraced[a], &tallies[a]);
    }
  });
  const double loop_s = SecondsBetween(loop_start, Clock::now());
  for (const RunResult& tally : tallies) {
    result->attempted += tally.attempted;
    result->failed += tally.failed;
  }
  if (!writer.status.ok()) {
    std::fprintf(stderr, "writer: %s\n", writer.status.ToString().c_str());
    return false;
  }
  const uint64_t sealed_during = SealedPartitions(*world) - sealed_before;
  const ServerCounters counters = world->server->stats();

  // --- after the run: final seal, then exact identity --------------------
  for (const auto& db : world->dbs) {
    Status sealed = db->Seal();
    if (!sealed.ok()) {
      std::fprintf(stderr, "final seal: %s\n", sealed.ToString().c_str());
      return false;
    }
  }
  double sharded_scanned = 0, single_scanned = 0;
  Client& verifier = world->clients[0];
  for (size_t i = 0; i < served.queries.size(); ++i) {
    const CatalogQuery& query = served.queries[i];
    auto reply = verifier.Call(EncodeTextRequest(MsgType::kQuery, query.text),
                               nullptr);
    result->attempted += 1;
    if (!reply.ok() || reply->type != MsgType::kQueryOk) {
      result->Fail("final " + query.id + ": no reply");
    } else if (RowsFingerprint(reply->query.table) !=
               served.query_reference[i].fingerprint) {
      result->Fail("final " + query.id +
                   ": rows differ from the single-store reference");
    } else {
      sharded_scanned += static_cast<double>(reply->query.stats.events_scanned);
      single_scanned +=
          static_cast<double>(served.query_reference[i].events_scanned);
    }
  }
  EngineOptions engine_options;
  engine_options.num_threads = kEnginePoolThreads;
  AiqlEngine sharded(&world->map, engine_options);
  for (size_t i = 0; i < served.tracks.size(); ++i) {
    const TrackSpec& track = served.tracks[i];
    TrackCommand command;
    command.request = track.request;
    auto reply = verifier.Call(EncodeTrack(command), nullptr);
    result->attempted += 1;
    if (!reply.ok() || reply->type != MsgType::kTrackOk ||
        RowsFingerprint(reply->track.table) !=
            served.track_reference[i].table) {
      result->Fail("final track " + track.id +
                   ": served nodes differ from the single-store reference");
    }
    auto run = sharded.Track(track.request);
    result->attempted += 1;
    if (!run.ok() ||
        !(FingerprintTrack(*run,
                           [&](const ProvenanceNode& n) {
                             return EntityRefKey(MakeEntityRef(
                                 world->map.entities(n.shard), n.type, n.id));
                           }) == served.track_reference[i].graph)) {
      result->Fail("final track " + track.id +
                   ": sharded graph differs from the single-store reference");
    }
  }

  uint64_t stored_events = 0, hot_bytes = 0, partitions = 0;
  for (const auto& db : world->dbs) {
    stored_events += db->StatsSnapshot().total_events;
    for (const auto& [key, partition] : db->ListSealedPartitions()) {
      hot_bytes += partition->MemoryFootprint();
      partitions += 1;
    }
  }
  // The catalog is attack-focused; the event count covers the rest.
  result->attempted += 1;
  if (stored_events != served.reference_events) {
    result->Fail("final shards hold " + std::to_string(stored_events) +
                 " events, the single store " +
                 std::to_string(served.reference_events));
  }
  world.reset();  // stops the server and closes the connections

  LoopFigures figures = ComputeFigures(untraced);
  uint64_t queries = 0, tracks = 0;
  for (const LoopSamples& s : untraced) {
    queries += s.queries();
    tracks += s.tracks();
  }
  std::vector<std::pair<std::string, std::string>> record = {
      {"cpus", std::to_string(cpus)},
      {"shards", std::to_string(kShards)},
      {"analysts", std::to_string(kAnalysts)},
      {"connections", std::to_string(kAnalysts)},
      {"writer_threads", "1"},
      {"load_threads", std::to_string(kAnalysts + 1)},
      {"max_concurrent_queries", std::to_string(kMaxConcurrentQueries)},
      {"engine_workers", std::to_string(kEnginePoolThreads + 1)},
      {"setup_rounds", std::to_string(kSetupRounds)},
      {"raw_events", std::to_string(raw_events)},
      {"preload_events", std::to_string(preload.size())},
      {"stream_events", std::to_string(stream_events)},
      {"writer_rate_per_s", Num(writer_rate)},
      {"writer_batches", std::to_string(writer.batches.size())},
      {"writer_max_late_ms", Num(writer.max_late_ms)},
      {"stored_events", std::to_string(stored_events)},
      {"partitions", std::to_string(partitions)},
      {"all_hot_bytes", std::to_string(hot_bytes)},
      {"cache_budget_bytes", "0"},
      {"retention_dir_bytes", "0"},
      {"query_samples", std::to_string(queries)},
      {"track_samples", std::to_string(tracks)},
      {"pass_p50_ms", Num(figures.pass_p50_ms)},
      {"loop_s", Num(loop_s)}};
  for (auto& field : rss.RecordFields()) record.push_back(field);
  PrintRunRecord(options, record);

  if (!options.trace) {
    AddLoopMetrics(figures, result);
    result->Add("setup_s", generate_s + Median(round_s), "s");
    result->Add("rss_added_mb", rss.AddedMb(), "MB");
    result->Add("stored_bytes_per_event",
                static_cast<double>(hot_bytes) /
                    static_cast<double>(stored_events),
                "bytes");
    return true;
  }
  Tracer::Table spans;
  for (const auto& tracer : tracers) tracer->Aggregate(&spans);
  PrintSpanTable(spans);
  LayerFigures layer;
  layer.generate_s = generate_s;
  layer.ingest_s = Median(ingest_s);
  double append_sum = 0;
  for (double ms : writer.append_ms) append_sum += ms;
  layer.append_ms =
      writer.append_ms.empty() ? 0 : append_sum / writer.append_ms.size();
  layer.ingest_p50_ms = Median(writer.due_latency_ms);
  layer.partitions_sealed = static_cast<double>(sealed_during);
  if (single_scanned > 0) {
    layer.scan_amplification = sharded_scanned / single_scanned;
  }
  layer.retries = SpanCount(spans, "query.call", "retried");
  layer.rejected = static_cast<double>(counters.queries_rejected -
                                       counters_before.queries_rejected);
  AddLayerMetrics(spans, layer, result);
  AddOverheadMetrics(figures, ComputeFigures(traced), result);
  return true;
}

}  // namespace aiqlbench
