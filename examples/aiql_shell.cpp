// Interactive AIQL shell — the reproduction's stand-in for the paper's web
// UI (Fig. 3): a query input box, an execution-status area, a result table,
// and syntax checking for query debugging.
//
//   $ ./build/examples/aiql_shell              # demo scenario, interactive
//   $ echo 'proc p read file f return distinct p limit 5' |
//       ./build/examples/aiql_shell
//
// Commands:
//   .help              this text
//   .stats             database statistics
//   .check  <query>    syntax/semantic check only
//   .explain <query>   show the execution plan
//   .sql    <query>    show the equivalent SQL (normalized schema)
//   .cypher <query>    show the equivalent Cypher
//   track ...          iterative provenance tracking (see `track` below)
//   shards [<n>|off]   split the scenario into <n> agent-range shards and
//                      execute everything through the scatter/gather
//                      engine; 'off' returns to the single database;
//                      no argument prints the current layout
//   timeout <ms>|off   deadline for every following query/track
//   budget rows|nodes|bytes <n> | budget off
//                      per-query budgets (kResourceExhausted on breach)
//   partial on|off     degraded sharded execution: drop failed/slow shards
//                      and return annotated partial results (off = strict)
//   connect <host:port>  attach to a running aiql_server: queries, track,
//                      .stats/.check/.explain and the timeout/budget/
//                      partial/shards options all run server-side over the
//                      wire protocol until 'disconnect'
//   disconnect         back to the local in-process engine
//   .quit              exit
//
// Exits nonzero when any query, track, or check failed — scripts piping
// queries in can gate on the exit code.
//
// track backward|forward proc|file|ip "<like>" [at "<time>"] [depth N]
//       [fanout N] [nodes N] [hop <N> <sec|min|hour>] [dot|cypher]
//   expands the dependency graph hop by hop from the matching entities,
//   e.g.:  track backward ip "66.77.88.%" depth 8 hop 30 min
// Anything else is executed as an AIQL query (single line or until an
// empty line when the first line does not contain 'return').

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "common/net.h"
#include "common/string_utils.h"
#include "common/table_printer.h"
#include "engine/aiql_engine.h"
#include "graph/cypher_gen.h"
#include "graph/graph_store.h"
#include "query/parser.h"
#include "server/protocol.h"
#include "simulator/scenario.h"
#include "sql/translator.h"
#include "storage/shard_map.h"

using namespace aiql;

namespace {

void PrintStats(const AuditDatabase& db) {
  const DatabaseStats& stats = db.stats();
  std::printf("raw events      : %llu\n",
              static_cast<unsigned long long>(stats.raw_events));
  std::printf("stored events   : %llu  (dedup ratio %.2fx)\n",
              static_cast<unsigned long long>(stats.total_events),
              stats.total_events > 0
                  ? static_cast<double>(stats.raw_events) /
                        static_cast<double>(stats.total_events)
                  : 0.0);
  std::printf("partitions      : %llu\n",
              static_cast<unsigned long long>(stats.total_partitions));
  std::printf("processes/files/connections: %zu / %zu / %zu\n",
              db.entities().processes().size(), db.entities().files().size(),
              db.entities().networks().size());
  if (stats.total_events > 0) {
    std::printf("time range      : %s .. %s\n",
                FormatTimestamp(stats.min_ts).c_str(),
                FormatTimestamp(stats.max_ts).c_str());
  }
}

/// Sharded execution state: per-shard databases under one ShardMap. Null
/// `ShardedSetup` in the shell loop means plain single-database mode.
struct ShardedSetup {
  std::vector<ShardRange> ranges;
  std::vector<std::unique_ptr<AuditDatabase>> dbs;
  ShardMap map;
};

std::unique_ptr<ShardedSetup> BuildShards(
    const std::vector<EventRecord>& records, size_t num_shards) {
  AgentId min_agent = UINT32_MAX, max_agent = 0;
  for (const EventRecord& record : records) {
    min_agent = std::min(min_agent, record.agent_id);
    max_agent = std::max(max_agent, record.agent_id);
  }
  if (min_agent > max_agent) {
    std::printf("!! no records to shard\n");
    return nullptr;
  }
  auto setup = std::make_unique<ShardedSetup>();
  setup->ranges = EvenAgentRanges(num_shards, min_agent, max_agent);
  auto routed = RouteRecordsByAgent(setup->ranges, records);
  if (!routed.ok()) {
    std::printf("!! %s\n", routed.status().ToString().c_str());
    return nullptr;
  }
  for (size_t s = 0; s < num_shards; ++s) {
    auto db = IngestRecords((*routed)[s], StorageOptions{});
    if (!db.ok()) {
      std::printf("!! shard %zu ingest failed: %s\n", s,
                  db.status().ToString().c_str());
      return nullptr;
    }
    setup->dbs.push_back(std::make_unique<AuditDatabase>(std::move(*db)));
    Status added = setup->map.AddShard(setup->dbs.back().get(),
                                       setup->ranges[s]);
    if (!added.ok()) {
      std::printf("!! %s\n", added.ToString().c_str());
      return nullptr;
    }
  }
  return setup;
}

void PrintShardInfo(const ShardedSetup& setup) {
  TablePrinter printer({"shard", "agents", "events", "partitions"});
  for (size_t s = 0; s < setup.map.num_shards(); ++s) {
    const ShardRange& range = setup.map.range(s);
    const DatabaseStats& stats = setup.dbs[s]->stats();
    printer.AddRow({std::to_string(s),
                    "[" + std::to_string(range.begin) + ", " +
                        std::to_string(range.end) + ")",
                    std::to_string(stats.total_events),
                    std::to_string(stats.total_partitions)});
  }
  std::printf("%s", printer.ToString().c_str());
  std::printf("-- %zu shards, %llu events total; queries scatter/gather\n",
              setup.map.num_shards(),
              static_cast<unsigned long long>(setup.map.TotalEvents()));
}

/// Splits a track command line into tokens, keeping quoted strings whole.
std::vector<std::string> TokenizeTrack(const std::string& text) {
  std::vector<std::string> tokens;
  size_t i = 0;
  while (i < text.size()) {
    if (std::isspace(static_cast<unsigned char>(text[i]))) {
      ++i;
      continue;
    }
    if (text[i] == '"') {
      size_t close = text.find('"', i + 1);
      if (close == std::string::npos) close = text.size();
      tokens.push_back(text.substr(i + 1, close - i - 1));
      i = close + 1;
      continue;
    }
    size_t end = i;
    while (end < text.size() &&
           !std::isspace(static_cast<unsigned char>(text[end]))) {
      ++end;
    }
    tokens.push_back(text.substr(i, end - i));
    i = end;
  }
  return tokens;
}

/// Wall-clock elapsed milliseconds since `start`, printed after every
/// query/track so analysts see real latency, governed or not.
double ElapsedMs(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration_cast<std::chrono::duration<double, std::milli>>(
             std::chrono::steady_clock::now() - start)
      .count();
}

/// Bounded positive integer through the shared checked parser: trailing
/// garbage and out-of-range saturation (strtoll's silent LLONG_MAX on
/// ERANGE) are both rejections, not values.
bool ParsePositiveInt(const std::string& text, int64_t* out) {
  auto parsed = ParseInt64(text);
  if (!parsed.ok() || *parsed <= 0 || *parsed > 1000000000000LL) {
    return false;
  }
  *out = *parsed;
  return true;
}

/// Parses `track backward file "%db.bak%" [at "..."] [depth N] [fanout N]
/// [nodes N] [hop N unit] [dot|cypher]` into a TrackCommand that executes
/// identically against the local engine or a connected server. Returns
/// false (after printing the problem) on a malformed command.
bool ParseTrackCommand(const std::string& args, TrackCommand* command) {
  std::vector<std::string> tokens = TokenizeTrack(args);
  if (tokens.size() < 3) {
    std::printf("usage: track backward|forward proc|file|ip \"<like>\" "
                "[at \"<time>\"] [depth N] [fanout N] [nodes N] "
                "[hop <N> <sec|min|hour>] [dot|cypher]\n");
    return false;
  }
  TrackRequest& request = command->request;
  std::string direction = ToLower(tokens[0]);
  if (direction == "backward") {
    request.options.backward = true;
  } else if (direction == "forward") {
    request.options.backward = false;
  } else {
    std::printf("!! expected 'backward' or 'forward', got '%s'\n",
                tokens[0].c_str());
    return false;
  }
  std::string type = ToLower(tokens[1]);
  if (type == "proc" || type == "process") {
    request.type = EntityType::kProcess;
  } else if (type == "file") {
    request.type = EntityType::kFile;
  } else if (type == "ip" || type == "net") {
    request.type = EntityType::kNetwork;
  } else {
    std::printf("!! expected 'proc', 'file' or 'ip', got '%s'\n",
                tokens[1].c_str());
    return false;
  }
  request.name_like = tokens[2];

  for (size_t i = 3; i < tokens.size(); ++i) {
    std::string key = ToLower(tokens[i]);
    // Parses the next token as a bounded positive integer without
    // consuming it on failure, so error messages name the right option.
    auto next_int = [&](int64_t* out) {
      if (i + 1 >= tokens.size() || !ParsePositiveInt(tokens[i + 1], out)) {
        return false;
      }
      ++i;
      return true;
    };
    int64_t value = 0;
    if (key == "at") {
      if (i + 1 >= tokens.size()) {
        std::printf("!! 'at' expects a \"<time>\" argument\n");
        return false;
      }
      auto ts = ParseTimestamp(tokens[++i]);
      if (!ts.ok()) {
        std::printf("!! bad timestamp: %s\n", ts.status().ToString().c_str());
        return false;
      }
      request.anchor = *ts;
    } else if (key == "depth" || key == "fanout" || key == "nodes") {
      if (!next_int(&value)) {
        std::printf("!! '%s' expects a positive integer\n", key.c_str());
        return false;
      }
      if (key == "depth") {
        request.options.max_depth = static_cast<int>(std::min<int64_t>(
            value, 1000000));
      } else if (key == "fanout") {
        request.options.max_fanout = static_cast<size_t>(value);
      } else {
        request.options.max_nodes = static_cast<size_t>(value);
      }
    } else if (key == "hop") {
      if (!next_int(&value) || i + 1 >= tokens.size()) {
        std::printf("!! 'hop' expects '<N> <sec|min|hour>'\n");
        return false;
      }
      std::string unit = ToLower(tokens[++i]);
      Duration scale = unit == "sec" || unit == "s"    ? kSecond
                       : unit == "min" || unit == "m"  ? kMinute
                       : unit == "hour" || unit == "h" ? kHour
                                                       : 0;
      if (scale == 0) {
        std::printf("!! bad hop window unit '%s'\n", unit.c_str());
        return false;
      }
      if (value > INT64_MAX / scale) {
        std::printf("!! hop window overflows; use a smaller value\n");
        return false;
      }
      request.options.hop_window = value * scale;
    } else if (key == "dot") {
      command->want_dot = true;
    } else if (key == "cypher") {
      command->want_cypher = true;
    } else {
      std::printf("!! unknown track option '%s'\n", tokens[i].c_str());
      return false;
    }
  }
  return true;
}

/// Runs a parsed track command against the local engine. Node names render
/// through the entity store of the node's shard; the dot/cypher exporters
/// need a one-shard engine (node ids span several stores otherwise).
/// Returns false on failure (shell exit code).
bool RunTrack(AiqlEngine* engine, const TrackCommand& command) {
  const TrackRequest& request = command.request;
  bool want_dot = command.want_dot, want_cypher = command.want_cypher;

  auto start = std::chrono::steady_clock::now();
  auto result = engine->Track(request);
  double elapsed_ms = ElapsedMs(start);
  if (!result.ok()) {
    std::printf("!! %s\n", result.status().ToString().c_str());
    return false;
  }
  const ShardMap& shards = engine->shards();
  if (want_dot || want_cypher) {
    if (shards.num_shards() != 1) {
      std::printf("!! dot/cypher export is single-database only; "
                  "run 'shards off' first\n");
      return false;
    }
    const EntityStore& store = shards.entities(0);
    std::printf("%s", want_dot ? ProvenanceToDot(*result, store).c_str()
                               : ProvenanceToCypher(*result, store).c_str());
    return true;
  }

  TablePrinter printer({"depth", "type", "entity", "bound"});
  for (const ProvenanceNode& node : result->nodes) {
    printer.AddRow({std::to_string(node.depth),
                    EntityTypeToString(node.type),
                    shards.entities(node.shard).EntityName(node.type, node.id),
                    node.bound == INT64_MAX || node.bound == INT64_MIN
                        ? "-"
                        : FormatTimestamp(node.bound)});
  }
  std::printf("%s", printer.ToString().c_str());
  Duration total_us = 0;
  for (Duration us : result->stats.hop_latency_us) total_us += us;
  std::printf("-- %zu nodes (%zu roots), %zu edges in %d hops%s; "
              "%llu postings inspected, %llu partition scans",
              result->nodes.size(), result->num_roots, result->edges.size(),
              result->stats.hops,
              result->stats.truncated ? " (TRUNCATED by budget)" : "",
              static_cast<unsigned long long>(result->stats.events_inspected),
              static_cast<unsigned long long>(
                  result->stats.partitions_selected));
  std::printf("; hop latency us:");
  for (Duration us : result->stats.hop_latency_us) {
    std::printf(" %lld", static_cast<long long>(us));
  }
  std::printf(" (total %lld); elapsed %.1f ms\n",
              static_cast<long long>(total_us), elapsed_ms);
  if (!result->stats.truncated_expansions.empty()) {
    uint64_t dropped = 0;
    for (const TruncatedExpansion& cut : result->stats.truncated_expansions) {
      dropped += cut.dropped;
    }
    std::printf("-- %zu frontier expansion(s) truncated by budget "
                "(%llu candidate events dropped)\n",
                result->stats.truncated_expansions.size(),
                static_cast<unsigned long long>(dropped));
  }
  for (const ShardTrackStatus& shard : result->stats.shard_status) {
    std::printf("-- shard %u: %s%s after %d attempt(s)\n", shard.shard,
                shard.dropped ? "DROPPED " : "recovered",
                shard.dropped ? shard.status.ToString().c_str() : "",
                shard.attempts);
  }
  return true;
}

bool Execute(AiqlEngine* engine, const std::string& query) {
  auto start = std::chrono::steady_clock::now();
  auto result = engine->Execute(query);
  double elapsed_ms = ElapsedMs(start);
  if (!result.ok()) {
    std::printf("!! %s (after %.1f ms)\n",
                result.status().ToString().c_str(), elapsed_ms);
    return false;
  }
  std::printf("%s", result->table.ToString(40).c_str());
  std::printf("-- %zu rows in %s (parse %s, plan %s, exec %s); "
              "%llu events scanned on %llu partitions, %d threads; "
              "elapsed %.1f ms\n",
              result->table.num_rows(),
              FormatDuration(result->stats.total_time()).c_str(),
              FormatDuration(result->stats.parse_time).c_str(),
              FormatDuration(result->stats.plan_time).c_str(),
              FormatDuration(result->stats.exec_time).c_str(),
              static_cast<unsigned long long>(result->stats.events_scanned),
              static_cast<unsigned long long>(
                  result->stats.partitions_scanned),
              result->stats.threads_used, elapsed_ms);
  // Degraded sharded execution: name every dropped/retried shard so a
  // partial table is never mistaken for a complete one.
  std::string degraded = result->degraded.ToString();
  if (!degraded.empty()) std::printf("-- %s\n", degraded.c_str());
  return true;
}

/// One attached aiql_server session (the `connect` command). Strictly
/// synchronous: every call writes one request frame and reads exactly one
/// response frame.
struct RemoteClient {
  Connection conn;
  std::string endpoint;

  Result<Response> Call(const std::string& frame) {
    AIQL_RETURN_IF_ERROR(conn.WriteFrame(frame));
    AIQL_ASSIGN_OR_RETURN(std::string reply, conn.ReadFrame());
    return DecodeResponse(reply);
  }
};

void PrintTextBlock(const std::string& text) {
  std::printf("%s", text.c_str());
  if (text.empty() || text.back() != '\n') std::printf("\n");
}

/// Renders one server response the way the matching local command would.
/// Returns false for error responses (shell exit code).
bool RenderResponse(const Response& response, double elapsed_ms) {
  switch (response.type) {
    case MsgType::kError:
      std::printf("!! %s (after %.1f ms)\n",
                  response.error.ToString().c_str(), elapsed_ms);
      return false;
    case MsgType::kQueryOk: {
      const QueryReply& reply = response.query;
      std::printf("%s", reply.table.ToString(40).c_str());
      std::printf("-- %zu rows in %s (parse %s, plan %s, exec %s); "
                  "%llu events scanned on %llu partitions, %d threads; "
                  "round-trip %.1f ms\n",
                  reply.table.num_rows(),
                  FormatDuration(reply.stats.total_time()).c_str(),
                  FormatDuration(reply.stats.parse_time).c_str(),
                  FormatDuration(reply.stats.plan_time).c_str(),
                  FormatDuration(reply.stats.exec_time).c_str(),
                  static_cast<unsigned long long>(
                      reply.stats.events_scanned),
                  static_cast<unsigned long long>(
                      reply.stats.partitions_scanned),
                  reply.stats.threads_used, elapsed_ms);
      if (!reply.degraded.empty()) {
        std::printf("-- %s\n", reply.degraded.c_str());
      }
      return true;
    }
    case MsgType::kTrackOk: {
      const TrackReply& reply = response.track;
      if (!reply.text.empty()) {
        std::printf("%s", reply.text.c_str());
        return true;
      }
      std::printf("%s",
                  reply.table.ToString(
                      std::max<size_t>(reply.table.num_rows(), 1)).c_str());
      PrintTextBlock(reply.summary);
      std::printf("-- round-trip %.1f ms\n", elapsed_ms);
      return true;
    }
    case MsgType::kCheckOk:
      std::printf("ok: valid %s query\n", response.text.c_str());
      return true;
    case MsgType::kStatsOk:
      PrintTextBlock(response.text);
      // Structured tail (absent from pre-retention servers): render the
      // decoded fields so budget drift is visible even if the server's
      // text rendering ever diverges from its counters.
      if (response.stats_fields.has_fields) {
        const StatsFields& f = response.stats_fields;
        std::string budget = f.cache_budget_bytes == 0
                                 ? "unlimited"
                                 : std::to_string(f.cache_budget_bytes);
        std::printf("tiers: %llu hot / %llu cold partitions; cache %llu/%s "
                    "bytes, %llu resident, %llu hits, %llu misses, "
                    "%llu evictions\n",
                    static_cast<unsigned long long>(f.hot_partitions),
                    static_cast<unsigned long long>(f.cold_partitions),
                    static_cast<unsigned long long>(f.cache_charged_bytes),
                    budget.c_str(),
                    static_cast<unsigned long long>(f.cache_resident),
                    static_cast<unsigned long long>(f.cache_hits),
                    static_cast<unsigned long long>(f.cache_misses),
                    static_cast<unsigned long long>(f.cache_evictions));
        std::printf("compactor: %llu passes, %llu merges, %llu demotions, "
                    "%llu tombstones, %llu commits, %llu reopens, "
                    "%llu entities aged\n",
                    static_cast<unsigned long long>(f.compactor_passes),
                    static_cast<unsigned long long>(f.merges),
                    static_cast<unsigned long long>(f.demotions),
                    static_cast<unsigned long long>(f.tombstones),
                    static_cast<unsigned long long>(f.commits),
                    static_cast<unsigned long long>(f.reopens),
                    static_cast<unsigned long long>(f.entities_aged));
      }
      return true;
    case MsgType::kExplainOk:
    case MsgType::kOptionOk:
      PrintTextBlock(response.text);
      return true;
    case MsgType::kHelloOk:
      std::printf("connected: %s\n", response.text.c_str());
      return true;
    case MsgType::kPong:
      std::printf("pong\n");
      return true;
    default:
      std::printf("!! unexpected response type %d\n",
                  static_cast<int>(response.type));
      return false;
  }
}

/// Round-trips one request frame and renders the reply. A transport or
/// protocol failure (as opposed to a server-reported error, which keeps
/// the session) drops back to the local engine.
bool RemoteCall(std::unique_ptr<RemoteClient>* remote,
                const std::string& frame) {
  auto start = std::chrono::steady_clock::now();
  auto response = (*remote)->Call(frame);
  double elapsed_ms = ElapsedMs(start);
  if (!response.ok()) {
    std::printf("!! %s; disconnected from %s\n",
                response.status().ToString().c_str(),
                (*remote)->endpoint.c_str());
    remote->reset();
    return false;
  }
  return RenderResponse(*response, elapsed_ms);
}

}  // namespace

int main(int argc, char** argv) {
  std::printf("AIQL shell — attack investigation over system monitoring "
              "data\n");
  std::printf("loading the demo enterprise scenario...\n");
  ScenarioOptions options;
  options.num_clients = 4;
  if (argc > 1) options.events_per_host_per_hour = std::stod(argv[1]);
  DemoScenarioData data = GenerateDemoScenario(options);
  auto db = IngestRecords(data.records, StorageOptions{});
  if (!db.ok()) {
    std::fprintf(stderr, "ingest failed: %s\n",
                 db.status().ToString().c_str());
    return 1;
  }
  PrintStats(*db);
  std::printf("attack ground truth: web=%u client=%u dc=%u db=%u "
              "attacker=%s\ntype .help for commands\n\n",
              data.truth.web_server, data.truth.client,
              data.truth.domain_controller, data.truth.database_server,
              data.truth.attacker_ip.c_str());

  // Governance state: every engine rebuild (shards on/off, limit changes)
  // re-applies these options; all-zero limits keep the ungoverned path.
  EngineOptions engine_options;
  std::unique_ptr<ShardedSetup> sharded;  // null = single-database mode
  std::unique_ptr<RemoteClient> remote;   // non-null = attached to a server
  auto engine = std::make_unique<AiqlEngine>(&*db, engine_options);
  auto rebuild_engine = [&] {
    engine = sharded != nullptr
                 ? std::make_unique<AiqlEngine>(&sharded->map, engine_options)
                 : std::make_unique<AiqlEngine>(&*db, engine_options);
  };
  bool had_error = false;  // any failed query/track/check -> exit nonzero
  std::string line;
  while (true) {
    std::printf("aiql> ");
    std::fflush(stdout);
    if (!std::getline(std::cin, line)) break;
    std::string trimmed(TrimString(line));
    if (trimmed.empty()) continue;

    if (trimmed == ".quit" || trimmed == ".exit") break;
    if (trimmed == ".help") {
      std::printf(".stats | .check <q> | .explain <q> | .sql <q> | "
                  ".cypher <q> | shards [<n>|off] | .quit\n");
      std::printf("track backward|forward proc|file|ip \"<like>\" "
                  "[at \"<time>\"] [depth N] [fanout N] [nodes N] "
                  "[hop <N> <sec|min|hour>] [dot|cypher]\n");
      std::printf("timeout <ms>|off | budget rows|nodes|bytes <n> | "
                  "budget off | partial on|off\n");
      std::printf("connect <host:port> | disconnect   (run against a "
                  "remote aiql_server)\n");
      continue;
    }
    if (StartsWith(trimmed, "connect ")) {
      std::string endpoint(TrimString(trimmed.substr(std::strlen("connect"))));
      size_t colon = endpoint.rfind(':');
      int64_t port = 0;
      if (colon == std::string::npos || colon == 0 ||
          !ParsePositiveInt(endpoint.substr(colon + 1), &port) ||
          port > 65535) {
        std::printf("!! usage: connect <host:port>\n");
        had_error = true;
        continue;
      }
      auto conn = ConnectTo(endpoint.substr(0, colon),
                            static_cast<uint16_t>(port));
      if (!conn.ok()) {
        std::printf("!! %s\n", conn.status().ToString().c_str());
        had_error = true;
        continue;
      }
      auto client = std::make_unique<RemoteClient>();
      client->conn = std::move(*conn);
      client->endpoint = endpoint;
      remote = std::move(client);
      if (!RemoteCall(&remote, EncodeHello())) had_error = true;
      continue;
    }
    if (trimmed == "disconnect") {
      if (remote != nullptr) {
        std::printf("disconnected from %s; back to the local engine\n",
                    remote->endpoint.c_str());
        remote.reset();
      } else {
        std::printf("not connected\n");
      }
      continue;
    }
    if (StartsWith(trimmed, "track ")) {
      TrackCommand command;
      if (!ParseTrackCommand(trimmed.substr(std::strlen("track ")),
                             &command)) {
        had_error = true;
      } else if (remote != nullptr) {
        if (!RemoteCall(&remote, EncodeTrack(command))) had_error = true;
      } else if (!RunTrack(engine.get(), command)) {
        had_error = true;
      }
      continue;
    }
    if (trimmed == "timeout" || StartsWith(trimmed, "timeout ")) {
      std::string arg(TrimString(trimmed.substr(std::strlen("timeout"))));
      int64_t ms = 0;
      bool off = ToLower(arg) == "off";
      if (!off && !ParsePositiveInt(arg, &ms)) {
        std::printf("!! 'timeout' expects a positive millisecond count or "
                    "'off'\n");
        continue;
      }
      if (remote != nullptr) {
        if (!RemoteCall(&remote, EncodeSetOption("timeout_ms", arg))) {
          had_error = true;
        }
        continue;
      }
      engine_options.default_limits.timeout = std::chrono::milliseconds(ms);
      rebuild_engine();
      if (off) {
        std::printf("deadline off\n");
      } else {
        std::printf("deadline %lld ms per query\n",
                    static_cast<long long>(ms));
      }
      continue;
    }
    if (trimmed == "budget" || StartsWith(trimmed, "budget ")) {
      std::vector<std::string> args =
          TokenizeTrack(trimmed.substr(std::strlen("budget")));
      if (args.size() == 1 && ToLower(args[0]) == "off") {
        if (remote != nullptr) {
          if (!RemoteCall(&remote, EncodeSetOption("budget_off", ""))) {
            had_error = true;
          }
          continue;
        }
        QueryLimits& limits = engine_options.default_limits;
        limits.max_rows = limits.max_nodes = limits.max_bytes = 0;
        rebuild_engine();
        std::printf("budgets off\n");
        continue;
      }
      int64_t value = 0;
      std::string kind = args.empty() ? "" : ToLower(args[0]);
      if (args.size() != 2 || !ParsePositiveInt(args[1], &value) ||
          (kind != "rows" && kind != "nodes" && kind != "bytes")) {
        std::printf("!! usage: budget rows|nodes|bytes <n> | budget off\n");
        continue;
      }
      if (remote != nullptr) {
        if (!RemoteCall(&remote, EncodeSetOption(kind, args[1]))) {
          had_error = true;
        }
        continue;
      }
      QueryLimits& limits = engine_options.default_limits;
      if (kind == "rows") {
        limits.max_rows = static_cast<uint64_t>(value);
      } else if (kind == "nodes") {
        limits.max_nodes = static_cast<uint64_t>(value);
      } else {
        limits.max_bytes = static_cast<uint64_t>(value);
      }
      rebuild_engine();
      std::printf("budget: %s <= %lld per query\n", kind.c_str(),
                  static_cast<long long>(value));
      continue;
    }
    if (trimmed == "partial" || StartsWith(trimmed, "partial ")) {
      std::string arg(
          ToLower(TrimString(trimmed.substr(std::strlen("partial")))));
      if (arg != "on" && arg != "off") {
        std::printf("!! usage: partial on|off\n");
        continue;
      }
      if (remote != nullptr) {
        if (!RemoteCall(&remote, EncodeSetOption("partial", arg))) {
          had_error = true;
        }
        continue;
      }
      engine_options.default_limits.shard_policy =
          arg == "on" ? ShardPolicy::kPartial : ShardPolicy::kStrict;
      rebuild_engine();
      std::printf("degraded sharded execution %s (%s)\n", arg.c_str(),
                  arg == "on" ? "failed shards drop, results annotated"
                              : "any shard failure fails the query");
      continue;
    }
    if (trimmed == "shards" || StartsWith(trimmed, "shards ")) {
      std::string arg(TrimString(trimmed.substr(std::strlen("shards"))));
      if (remote != nullptr) {
        // The server's shard layout is fixed; sessions only toggle between
        // it and the single database.
        if (!RemoteCall(&remote, EncodeSetOption("shards", arg))) {
          had_error = true;
        }
        continue;
      }
      if (arg.empty()) {
        if (sharded != nullptr) {
          PrintShardInfo(*sharded);
        } else {
          std::printf("single-database mode; 'shards <n>' to shard\n");
        }
        continue;
      }
      if (ToLower(arg) == "off") {
        sharded.reset();
        rebuild_engine();
        std::printf("back to single-database mode\n");
        continue;
      }
      int64_t value = 0;
      if (!ParsePositiveInt(arg, &value) || value > 64) {
        std::printf("!! 'shards' expects a count in [1, 64] or 'off'\n");
        continue;
      }
      auto setup = BuildShards(data.records, static_cast<size_t>(value));
      if (setup == nullptr) continue;
      sharded = std::move(setup);
      rebuild_engine();
      PrintShardInfo(*sharded);
      continue;
    }
    if (trimmed == ".stats") {
      if (remote != nullptr) {
        if (!RemoteCall(&remote, EncodeBare(MsgType::kStats))) {
          had_error = true;
        }
        continue;
      }
      PrintStats(*db);
      if (sharded != nullptr) PrintShardInfo(*sharded);
      continue;
    }
    auto run_sub = [&](const char* cmd) -> std::string {
      return std::string(TrimString(trimmed.substr(std::strlen(cmd))));
    };
    if (StartsWith(trimmed, ".check ")) {
      if (remote != nullptr) {
        if (!RemoteCall(&remote, EncodeTextRequest(MsgType::kCheck,
                                                   run_sub(".check ")))) {
          had_error = true;
        }
        continue;
      }
      auto kind = engine->Check(run_sub(".check "));
      if (kind.ok()) {
        std::printf("ok: valid %s query\n", QueryKindToString(*kind));
      } else {
        std::printf("!! %s\n", kind.status().ToString().c_str());
        had_error = true;
      }
      continue;
    }
    if (StartsWith(trimmed, ".explain ")) {
      if (remote != nullptr) {
        if (!RemoteCall(&remote, EncodeTextRequest(MsgType::kExplain,
                                                   run_sub(".explain ")))) {
          had_error = true;
        }
        continue;
      }
      auto plan = engine->Explain(run_sub(".explain "));
      if (!plan.ok()) had_error = true;
      std::printf("%s\n", plan.ok() ? plan->c_str()
                                    : plan.status().ToString().c_str());
      continue;
    }
    if (StartsWith(trimmed, ".sql ")) {
      auto parsed = ParseAiql(run_sub(".sql "));
      if (!parsed.ok()) {
        std::printf("!! %s\n", parsed.status().ToString().c_str());
        continue;
      }
      auto sql = TranslateToSql(*parsed, SqlSchemaMode::kNormalized);
      std::printf("%s\n", sql.ok() ? sql->sql.c_str()
                                   : sql.status().ToString().c_str());
      continue;
    }
    if (StartsWith(trimmed, ".cypher ")) {
      auto parsed = ParseAiql(run_sub(".cypher "));
      if (!parsed.ok()) {
        std::printf("!! %s\n", parsed.status().ToString().c_str());
        continue;
      }
      auto cypher = TranslateToCypher(*parsed);
      std::printf("%s\n", cypher.ok()
                              ? cypher->cypher.c_str()
                              : cypher.status().ToString().c_str());
      continue;
    }

    // Multi-line query entry: keep reading until 'return' has been seen.
    std::string query = trimmed;
    while (ToLower(query).find("return") == std::string::npos) {
      std::printf("  ... ");
      std::fflush(stdout);
      std::string more;
      if (!std::getline(std::cin, more)) break;
      if (TrimString(more).empty()) break;
      query += "\n" + more;
    }
    if (remote != nullptr) {
      if (!RemoteCall(&remote, EncodeTextRequest(MsgType::kQuery, query))) {
        had_error = true;
      }
    } else if (!Execute(engine.get(), query)) {
      had_error = true;
    }
  }
  std::printf("bye\n");
  return had_error ? 2 : 0;
}
