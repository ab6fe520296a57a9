// Shared pieces of the AIQL benchmark driver: run options, the pinned
// scenario, latency statistics, correctness fingerprints, the span tracer
// and the result printer. See ../README.md for what is measured and why.

#ifndef AIQLBENCH_HARNESS_H_
#define AIQLBENCH_HARNESS_H_

#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "engine/aiql_engine.h"
#include "simulator/queries_a.h"
#include "simulator/scenario.h"

namespace aiqlbench {

using Clock = std::chrono::steady_clock;

inline double MsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}
inline double SecondsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// Command-line options of one run.
struct Options {
  std::string workload;
  uint64_t seed = 42;
  double seconds = 10;
  bool trace = false;
  /// Directory for retention stores and other files the run writes.
  std::string scratch_dir = ".";
  /// Source revision recorded in the run record.
  std::string commit = "unknown";
  /// Smoke-test scale: same pipeline on a few thousand records per host.
  bool tiny = false;
  /// Flips one reference fingerprint after set-up (gate self-test).
  bool corrupt_reference = false;
};

/// Store set-ups repeated per run; setup_s reports their median.
inline constexpr int kSetupRounds = 3;
/// Records per set-up ingest commit.
inline constexpr size_t kIngestBatch = 4096;

/// Appends `records` to `db` in kIngestBatch commits (AppendBatch + Flush),
/// timing each commit into `batch_ms` when non-null. Does not seal.
aiql::Status IngestInBatches(const std::vector<aiql::EventRecord>& records,
                             aiql::AuditDatabase* db,
                             std::vector<double>* batch_ms);

/// Runs fn(i) for i in [0, n) on n threads and joins them.
template <typename Fn>
void OnThreads(size_t n, Fn fn) {
  std::vector<std::thread> threads;
  for (size_t i = 0; i < n; ++i) threads.emplace_back([&fn, i] { fn(i); });
  for (std::thread& thread : threads) thread.join();
}

/// The pinned scenario: 5 client hosts, 20,000 records per host per hour,
/// 6 hours (about 1.15M raw records per attack scenario); --tiny runs 500
/// records per host per hour.
aiql::ScenarioOptions PinnedScenario(const Options& options);

/// The demo attack's points of interest for backward tracking: the
/// connection to the attacker, the dumped password file, and the
/// exfiltrated database backup.
struct TrackSpec {
  std::string id;
  aiql::TrackRequest request;
};
std::vector<TrackSpec> DemoTracks(const aiql::DemoAttackTruth& truth);

// --- statistics -----------------------------------------------------------

/// Percentile `p` in [0, 1] by linear interpolation between closest ranks.
double Percentile(std::vector<double> values, double p);
inline double Median(std::vector<double> values) {
  return Percentile(std::move(values), 0.5);
}

/// Latency samples of one set of analyst passes, by the operation's
/// position in the pass (every pass runs the same operations in order).
struct LoopSamples {
  std::vector<std::vector<double>> query_ms;
  std::vector<std::vector<double>> track_ms;
  std::vector<double> pass_ms;  ///< wall time per pass (run record only)

  void AddQuery(size_t position, double ms);
  void AddTrack(size_t position, double ms);
  uint64_t queries() const;
  uint64_t tracks() const;
  void Append(const LoopSamples& other);
};

/// The loop's end-to-end figures over every analyst's samples. Each is
/// built from per-operation medians: on the measurement VM most passes
/// carry a stall or two of host interference on some operation, and how
/// many moves with the host's regime, not with the program (README.md,
/// Noise). A pass's own median wall time is kept for the run record.
struct LoopFigures {
  /// Mean over the catalog's queries of each query's median latency.
  double query_mean_ms = 0;
  /// Median over all track samples (three tracks, so it falls inside the
  /// middle one's distribution).
  double track_p50_ms = 0;
  /// One pass at each operation's median: the sum over the pass's queries
  /// and tracks of their median latencies.
  double investigation_ms = 0;
  double pass_p50_ms = 0;
};
LoopFigures ComputeFigures(const std::vector<LoopSamples>& per_analyst);

/// Memory held by the system under test while it serves: the peak RSS of
/// the warm-up and measured passes over the RSS before the first set-up
/// round. Inputs the benchmark keeps must stay allocated from Begin() to
/// the end of the loop, so they cancel out.
class RssGrowth {
 public:
  /// Takes the baseline, after returning freed heap pages to the kernel.
  void Begin();
  /// Resets the peak to the current RSS, so set-up peaks do not count;
  /// false when the kernel refuses.
  bool ResetPeak();
  /// Peak RSS since ResetPeak() minus the baseline, in MB.
  double AddedMb() const;
  /// Run-record fields: the baseline, the RSS at ResetPeak() and the peak.
  std::vector<std::pair<std::string, std::string>> RecordFields() const;

 private:
  double baseline_mb_ = 0;
  double reset_mb_ = 0;
};

// --- correctness fingerprints --------------------------------------------

/// Order-insensitive fingerprint of a result table: rows rendered, sorted
/// and hashed (ties may be permuted across tiers and shards).
uint64_t RowsFingerprint(const aiql::ResultTable& table);

/// Canonical provenance graph: nodes as (type, entity key, depth, bound)
/// and edges as (from, to, op, start, end, hop), each set hashed.
struct TrackPrint {
  uint64_t nodes = 0;
  uint64_t edges = 0;
  size_t num_nodes = 0;
  size_t num_edges = 0;
  bool operator==(const TrackPrint&) const = default;
};
using NodeKeyFn = std::function<std::string(const aiql::ProvenanceNode&)>;
TrackPrint FingerprintTrack(const aiql::ProvenanceResult& result,
                            const NodeKeyFn& key_of);

/// The node table the server renders for a track reply (depth, type,
/// entity, bound), so in-process references compare with wire replies.
aiql::ResultTable RenderTrackTable(const aiql::ProvenanceResult& result,
                                   const aiql::EntityStore& entities);

// --- tracing ----------------------------------------------------------------

/// Per-thread span recorder. Disabled tracers record nothing and read no
/// clock. Spans nest by scope; each carries counts attached at its
/// boundary. Spans stay in memory until Aggregate().
class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}

  bool enabled() const { return enabled_; }
  int Begin(const char* name);
  void End(int id);
  void Count(int id, const char* key, double value);

  struct Totals {
    uint64_t spans = 0;
    double total_ms = 0;
    double self_ms = 0;  ///< duration minus the time child spans cover
    std::map<std::string, double> counts;
  };
  using Table = std::map<std::string, Totals>;

  /// Sums spans by name into `table`.
  void Aggregate(Table* table) const;

 private:
  struct Record {
    const char* name;
    int parent;
    Clock::time_point start, end;
    std::vector<std::pair<const char*, double>> counts;
  };
  bool enabled_;
  int current_ = -1;
  std::vector<Record> spans_;
};

/// RAII span.
class Span {
 public:
  Span(Tracer* tracer, const char* name)
      : tracer_(tracer), id_(tracer->Begin(name)) {}
  ~Span() { tracer_->End(id_); }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;
  void Count(const char* key, double value) { tracer_->Count(id_, key, value); }

 private:
  Tracer* tracer_;
  int id_;
};

/// Accessors over an aggregated span table; 0 for a span that never ran.
/// SpanMeanMs is the mean self time, SpanCount the summed count `key`.
double SpanMeanMs(const Tracer::Table& table, const std::string& name);
double SpanTotalMs(const Tracer::Table& table, const std::string& name);
double SpanCount(const Tracer::Table& table, const std::string& name,
                 const std::string& key);
double SpanSpans(const Tracer::Table& table, const std::string& name);

/// Writes the aggregated span table to stderr.
void PrintSpanTable(const Tracer::Table& table);

// --- results ----------------------------------------------------------------

/// One run's outcome: operation counts and the metric set to print.
struct RunResult {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<std::pair<std::string, std::pair<double, std::string>>> metrics;

  void Add(const std::string& name, double value, const std::string& unit) {
    metrics.push_back({name, {value, unit}});
  }
  /// Records a failed check with its reason on stderr.
  void Fail(const std::string& what);
};

/// Adds the end-to-end loop figures (untraced runs).
void AddLoopMetrics(const LoopFigures& figures, RunResult* result);

/// Per-layer figures measured outside the analyst passes (set-up, writer,
/// verification) that AddLayerMetrics reports beside the span table.
struct LayerFigures {
  double generate_s = 0;
  double ingest_s = 0;
  double append_ms = 0;
  double ingest_p50_ms = 0;
  double partitions_sealed = 0;
  double demote_mb_per_s = 0;
  double dir_bytes = 0;
  double peak_charged_mb = 0;
  double scan_amplification = 1;
  double retries = 0;
  double rejected = 0;
};

/// Adds every per-layer metric (traced runs). Spans: "investigation" (one
/// analyst pass), "query.parse", "query.call" (counts: the QueryStats of
/// the reply), "server.decode", "provenance.track" (ProvenanceStats),
/// "storage.open_view".
void AddLayerMetrics(const Tracer::Table& spans, const LayerFigures& figures,
                     RunResult* result);

/// Adds one tracing-overhead metric per loop figure: the traced passes'
/// figure relative to the interleaved untraced passes', in percent
/// (positive = tracing made it worse).
void AddOverheadMetrics(const LoopFigures& untraced, const LoopFigures& traced,
                        RunResult* result);

/// Writes the run record (configuration and data sizes) to stderr.
void PrintRunRecord(const Options& options,
                    const std::vector<std::pair<std::string, std::string>>&
                        fields);

std::string Num(double value);

}  // namespace aiqlbench

#endif  // AIQLBENCH_HARNESS_H_
