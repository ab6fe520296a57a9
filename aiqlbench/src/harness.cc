#include "harness.h"

#include <malloc.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>

#include "common/time_utils.h"

namespace aiqlbench {

using namespace aiql;

ScenarioOptions PinnedScenario(const Options& options) {
  ScenarioOptions scenario;
  scenario.num_clients = 5;
  scenario.events_per_host_per_hour = options.tiny ? 500 : 20000;
  scenario.duration = 6 * kHour;
  scenario.seed = options.seed;
  return scenario;
}

std::vector<TrackSpec> DemoTracks(const DemoAttackTruth& truth) {
  std::vector<TrackSpec> tracks(3);
  tracks[0].id = "attacker-ip";
  tracks[0].request.type = EntityType::kNetwork;
  tracks[0].request.name_like = truth.attacker_ip;
  tracks[1].id = "alluser.pw";
  tracks[1].request.type = EntityType::kFile;
  tracks[1].request.name_like = "%alluser.pw";
  tracks[2].id = "db.bak";
  tracks[2].request.type = EntityType::kFile;
  tracks[2].request.name_like = "%db.bak";
  return tracks;
}

Status IngestInBatches(const std::vector<EventRecord>& records,
                       AuditDatabase* db, std::vector<double>* batch_ms) {
  for (size_t i = 0; i < records.size(); i += kIngestBatch) {
    std::vector<EventRecord> batch(
        records.begin() + i,
        records.begin() + std::min(records.size(), i + kIngestBatch));
    auto start = Clock::now();
    AIQL_RETURN_IF_ERROR(db->AppendBatch(std::move(batch)));
    AIQL_RETURN_IF_ERROR(db->Flush());
    if (batch_ms != nullptr) batch_ms->push_back(MsBetween(start, Clock::now()));
  }
  return Status::OK();
}

double Percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  double rank = p * static_cast<double>(values.size() - 1);
  size_t lo = static_cast<size_t>(std::floor(rank));
  size_t hi = std::min(lo + 1, values.size() - 1);
  double frac = rank - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

namespace {

void AddAt(std::vector<std::vector<double>>* by_position, size_t position,
           double ms) {
  if (by_position->size() <= position) by_position->resize(position + 1);
  (*by_position)[position].push_back(ms);
}

void AppendAt(const std::vector<std::vector<double>>& from,
              std::vector<std::vector<double>>* to) {
  if (to->size() < from.size()) to->resize(from.size());
  for (size_t i = 0; i < from.size(); ++i) {
    (*to)[i].insert((*to)[i].end(), from[i].begin(), from[i].end());
  }
}

uint64_t CountAt(const std::vector<std::vector<double>>& by_position) {
  uint64_t n = 0;
  for (const auto& at : by_position) n += at.size();
  return n;
}

}  // namespace

void LoopSamples::AddQuery(size_t position, double ms) {
  AddAt(&query_ms, position, ms);
}
void LoopSamples::AddTrack(size_t position, double ms) {
  AddAt(&track_ms, position, ms);
}
uint64_t LoopSamples::queries() const { return CountAt(query_ms); }
uint64_t LoopSamples::tracks() const { return CountAt(track_ms); }

void LoopSamples::Append(const LoopSamples& other) {
  AppendAt(other.query_ms, &query_ms);
  AppendAt(other.track_ms, &track_ms);
  pass_ms.insert(pass_ms.end(), other.pass_ms.begin(), other.pass_ms.end());
}

LoopFigures ComputeFigures(const std::vector<LoopSamples>& per_analyst) {
  LoopSamples all;
  for (const LoopSamples& analyst : per_analyst) all.Append(analyst);
  LoopFigures figures;
  for (const auto& at : all.query_ms) {
    double median = Median(at);
    figures.query_mean_ms += median / static_cast<double>(all.query_ms.size());
    figures.investigation_ms += median;
  }
  std::vector<double> tracks;
  for (const auto& at : all.track_ms) {
    tracks.insert(tracks.end(), at.begin(), at.end());
    figures.investigation_ms += Median(at);
  }
  figures.track_p50_ms = Median(std::move(tracks));
  figures.pass_p50_ms = Median(all.pass_ms);
  return figures;
}

namespace {

/// A resident-set figure from /proc/self/status, in MB.
double ProcStatusMb(const char* key) {
  std::ifstream status("/proc/self/status");
  std::string line;
  size_t key_len = std::strlen(key);
  while (std::getline(status, line)) {
    if (line.compare(0, key_len, key) == 0) {
      return std::strtod(line.c_str() + key_len, nullptr) / 1024.0;
    }
  }
  return 0;
}

}  // namespace

void RssGrowth::Begin() {
  malloc_trim(0);
  baseline_mb_ = ProcStatusMb("VmRSS:");
}

bool RssGrowth::ResetPeak() {
  malloc_trim(0);
  // Linux: writing 5 to clear_refs resets VmHWM to the current RSS.
  std::ofstream clear_refs("/proc/self/clear_refs");
  clear_refs << "5";
  clear_refs.close();
  reset_mb_ = ProcStatusMb("VmRSS:");
  return !clear_refs.fail();
}

double RssGrowth::AddedMb() const {
  return ProcStatusMb("VmHWM:") - baseline_mb_;
}

std::vector<std::pair<std::string, std::string>> RssGrowth::RecordFields()
    const {
  return {{"rss_baseline_mb", Num(baseline_mb_)},
          {"rss_loop_start_mb", Num(reset_mb_)},
          {"rss_peak_mb", Num(ProcStatusMb("VmHWM:"))}};
}

namespace {

uint64_t HashSorted(std::vector<std::string> items) {
  std::sort(items.begin(), items.end());
  uint64_t hash = 1469598103934665603ull;
  for (const std::string& item : items) {
    for (char c : item) {
      hash ^= static_cast<unsigned char>(c);
      hash *= 1099511628211ull;
    }
    hash ^= 0x9e3779b97f4a7c15ull;
    hash *= 1099511628211ull;
  }
  return hash;
}

}  // namespace

uint64_t RowsFingerprint(const ResultTable& table) {
  std::vector<std::string> rendered;
  rendered.reserve(table.rows.size());
  for (const auto& row : table.rows) {
    std::string r;
    for (const Value& cell : row) {
      r += ValueToString(cell);
      r += '\x1f';
    }
    rendered.push_back(std::move(r));
  }
  return HashSorted(std::move(rendered));
}

TrackPrint FingerprintTrack(const ProvenanceResult& result,
                            const NodeKeyFn& key_of) {
  std::vector<std::string> names;
  names.reserve(result.nodes.size());
  std::vector<std::string> nodes;
  for (const ProvenanceNode& node : result.nodes) {
    names.push_back(key_of(node));
    nodes.push_back(std::to_string(static_cast<int>(node.type)) + '\x1f' +
                    names.back() + '\x1f' + std::to_string(node.depth) +
                    '\x1f' + std::to_string(node.bound));
  }
  std::vector<std::string> edges;
  for (const ProvenanceEdge& edge : result.edges) {
    edges.push_back(names[edge.from] + '\x1f' + names[edge.to] + '\x1f' +
                    std::to_string(static_cast<int>(edge.event.op)) + '\x1f' +
                    std::to_string(edge.event.start_ts) + '\x1f' +
                    std::to_string(edge.event.end_ts) + '\x1f' +
                    std::to_string(edge.hop));
  }
  TrackPrint print;
  print.num_nodes = nodes.size();
  print.num_edges = edges.size();
  print.nodes = HashSorted(std::move(nodes));
  print.edges = HashSorted(std::move(edges));
  return print;
}

ResultTable RenderTrackTable(const ProvenanceResult& result,
                             const EntityStore& entities) {
  ResultTable table;
  table.columns = {"depth", "type", "entity", "bound"};
  for (const ProvenanceNode& node : result.nodes) {
    table.rows.push_back(
        {std::to_string(node.depth), std::string(EntityTypeToString(node.type)),
         entities.EntityName(node.type, node.id),
         node.bound == INT64_MAX || node.bound == INT64_MIN
             ? std::string("-")
             : FormatTimestamp(node.bound)});
  }
  return table;
}

// --- tracing ----------------------------------------------------------------

int Tracer::Begin(const char* name) {
  if (!enabled_) return -1;
  spans_.push_back(Record{name, current_, Clock::now(), {}, {}});
  current_ = static_cast<int>(spans_.size()) - 1;
  return current_;
}

void Tracer::End(int id) {
  if (id < 0) return;
  spans_[id].end = Clock::now();
  current_ = spans_[id].parent;
}

void Tracer::Count(int id, const char* key, double value) {
  if (id < 0) return;
  spans_[id].counts.emplace_back(key, value);
}

void Tracer::Aggregate(Table* table) const {
  std::vector<double> child_ms(spans_.size(), 0.0);
  for (size_t i = 0; i < spans_.size(); ++i) {
    if (spans_[i].parent >= 0) {
      child_ms[spans_[i].parent] += MsBetween(spans_[i].start, spans_[i].end);
    }
  }
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Record& span = spans_[i];
    Totals& totals = (*table)[span.name];
    double ms = MsBetween(span.start, span.end);
    totals.spans += 1;
    totals.total_ms += ms;
    totals.self_ms += ms - child_ms[i];
    for (const auto& [key, value] : span.counts) totals.counts[key] += value;
  }
}

double SpanMeanMs(const Tracer::Table& table, const std::string& name) {
  auto it = table.find(name);
  if (it == table.end() || it->second.spans == 0) return 0;
  return it->second.self_ms / static_cast<double>(it->second.spans);
}

double SpanTotalMs(const Tracer::Table& table, const std::string& name) {
  auto it = table.find(name);
  return it == table.end() ? 0 : it->second.total_ms;
}

double SpanCount(const Tracer::Table& table, const std::string& name,
                 const std::string& key) {
  auto it = table.find(name);
  if (it == table.end()) return 0;
  auto count = it->second.counts.find(key);
  return count == it->second.counts.end() ? 0 : count->second;
}

double SpanSpans(const Tracer::Table& table, const std::string& name) {
  auto it = table.find(name);
  return it == table.end() ? 0 : static_cast<double>(it->second.spans);
}

void PrintSpanTable(const Tracer::Table& table) {
  std::fprintf(stderr, "span table (traced passes):\n");
  std::fprintf(stderr, "  %-22s %10s %12s %12s\n", "span", "count",
               "total_ms", "self_ms");
  for (const auto& [name, totals] : table) {
    std::fprintf(stderr, "  %-22s %10llu %12.3f %12.3f", name.c_str(),
                 static_cast<unsigned long long>(totals.spans),
                 totals.total_ms, totals.self_ms);
    for (const auto& [key, value] : totals.counts) {
      std::fprintf(stderr, " %s=%.6g", key.c_str(), value);
    }
    std::fprintf(stderr, "\n");
  }
}

// --- results ----------------------------------------------------------------

void RunResult::Fail(const std::string& what) {
  failed += 1;
  if (failed <= 20) std::fprintf(stderr, "CHECK FAILED: %s\n", what.c_str());
}

void AddLoopMetrics(const LoopFigures& f, RunResult* result) {
  result->Add("query_mean_ms", f.query_mean_ms, "ms");
  result->Add("track_p50_ms", f.track_p50_ms, "ms");
  result->Add("investigation_ms", f.investigation_ms, "ms");
}

void AddLayerMetrics(const Tracer::Table& spans, const LayerFigures& f,
                     RunResult* result) {
  auto ratio = [](double num, double den) { return den > 0 ? num / den : 0.0; };
  double passes = SpanSpans(spans, "investigation");
  double queries = SpanSpans(spans, "query.call");
  double scanned = SpanCount(spans, "query.call", "events_scanned");
  double hits = SpanCount(spans, "investigation", "cache_hits");
  double misses = SpanCount(spans, "investigation", "cache_misses");

  result->Add("query.parse_ms", SpanMeanMs(spans, "query.parse"), "ms");
  result->Add("engine.plan_ms",
              ratio(SpanCount(spans, "query.call", "plan_ms"), queries), "ms");
  result->Add("engine.exec_ms",
              ratio(SpanCount(spans, "query.call", "exec_ms"), queries), "ms");
  result->Add("engine.events_scanned", ratio(scanned, passes), "count");
  result->Add("engine.partitions_scanned",
              ratio(SpanCount(spans, "query.call", "partitions_scanned"),
                    passes),
              "count");
  result->Add("engine.join_candidates",
              ratio(SpanCount(spans, "query.call", "join_candidates"), passes),
              "count");
  result->Add("engine.match_ratio",
              ratio(SpanCount(spans, "query.call", "events_matched"), scanned),
              "ratio");
  result->Add("provenance.hop_ms",
              ratio(SpanCount(spans, "provenance.track", "hop_ms"),
                    SpanCount(spans, "provenance.track", "hops")),
              "ms");
  result->Add("provenance.events_inspected",
              ratio(SpanCount(spans, "provenance.track", "events_inspected"),
                    passes),
              "count");
  result->Add("provenance.partitions_selected",
              ratio(SpanCount(spans, "provenance.track", "partitions_selected"),
                    passes),
              "count");
  result->Add("retention.cache_hit_ratio", ratio(hits, hits + misses),
              "ratio");
  result->Add("retention.reopens",
              ratio(SpanCount(spans, "investigation", "reopens"), passes),
              "count");
  result->Add("retention.evictions",
              ratio(SpanCount(spans, "investigation", "evictions"), passes),
              "count");
  result->Add("retention.peak_charged_mb", f.peak_charged_mb, "MB");
  result->Add("retention.demote_mb_per_s", f.demote_mb_per_s, "MB/s");
  result->Add("retention.dir_bytes", f.dir_bytes, "bytes");
  result->Add("storage.ingest_s", f.ingest_s, "s");
  result->Add("storage.append_ms", f.append_ms, "ms");
  result->Add("storage.ingest_p50_ms", f.ingest_p50_ms, "ms");
  result->Add("storage.partitions_sealed", f.partitions_sealed, "count");
  result->Add("storage.open_view_ms", SpanMeanMs(spans, "storage.open_view"),
              "ms");
  result->Add("simulator.generate_s", f.generate_s, "s");
  result->Add("shard.scan_amplification", f.scan_amplification, "ratio");
  result->Add("shard.retries", f.retries, "count");
  // Caller-observed query time outside the engine's own parse/plan/exec
  // stages: the wire round trip when served, the facade otherwise.
  result->Add("server.overhead_ms",
              ratio(SpanTotalMs(spans, "query.call") -
                        SpanCount(spans, "query.call", "stats_total_ms"),
                    queries),
              "ms");
  result->Add("server.decode_ms", SpanMeanMs(spans, "server.decode"), "ms");
  result->Add("server.reply_bytes",
              ratio(SpanCount(spans, "server.decode", "reply_bytes"),
                    SpanSpans(spans, "server.decode")),
              "bytes");
  result->Add("server.rejected", f.rejected, "count");
}

void AddOverheadMetrics(const LoopFigures& u, const LoopFigures& t,
                        RunResult* result) {
  auto pct = [](double untraced, double traced) {
    return untraced > 0 ? (traced / untraced - 1.0) * 100.0 : 0.0;
  };
  result->Add("trace.query_mean_overhead",
              pct(u.query_mean_ms, t.query_mean_ms), "%");
  result->Add("trace.track_p50_overhead", pct(u.track_p50_ms, t.track_p50_ms),
              "%");
  result->Add("trace.investigation_overhead",
              pct(u.investigation_ms, t.investigation_ms), "%");
}

std::string Num(double value) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  return buf;
}

void PrintRunRecord(
    const Options& options,
    const std::vector<std::pair<std::string, std::string>>& fields) {
  std::string out = "{\"workload\": \"" + options.workload +
                    "\", \"seed\": " + std::to_string(options.seed) +
                    ", \"seconds\": " + Num(options.seconds) +
                    ", \"trace\": " + (options.trace ? "1" : "0") +
                    ", \"commit\": \"" + options.commit +
                    "\", \"nproc\": " +
                    std::to_string(std::thread::hardware_concurrency()) +
                    ", \"scale\": \"" + (options.tiny ? "tiny" : "pinned") +
                    "\"";
  for (const auto& [key, value] : fields) {
    out += ", \"" + key + "\": " + value;
  }
  out += "}";
  std::fprintf(stderr, "run record: %s\n", out.c_str());
}

}  // namespace aiqlbench
