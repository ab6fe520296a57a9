// Storage micro-benchmarks (paper §2.1 data stats / storage optimizations):
// ingest throughput with and without deduplication, dedup
// ratio on the simulated workload, scan throughput, and the LIKE matcher
// that underlies every entity constraint.
//
//   $ ./build/bench/bench_storage

#include <benchmark/benchmark.h>

#include "bench_common.h"
#include "common/like_matcher.h"
#include "simulator/scenario.h"

using namespace aiql;

namespace {

const std::vector<EventRecord>& SharedRecords() {
  static const std::vector<EventRecord>* records = [] {
    ScenarioOptions options;
    options.num_clients = 4;
    options.events_per_host_per_hour = 2000;
    options.duration = 2 * kHour;
    auto* data = new DemoScenarioData(GenerateDemoScenario(options));
    return &data->records;
  }();
  return *records;
}

void BM_IngestOptimized(benchmark::State& state) {
  const auto& records = SharedRecords();
  for (auto _ : state) {
    StorageOptions options;
    options.dedup_window = state.range(0) * kSecond;
    AuditDatabase db(options);
    for (const EventRecord& record : records) {
      benchmark::DoNotOptimize(db.Append(record).ok());
    }
    db.Seal();
    benchmark::DoNotOptimize(db.stats().total_events);
  }
  state.SetItemsProcessed(static_cast<int64_t>(records.size()) *
                          state.iterations());
  state.SetLabel("dedup=" + std::to_string(state.range(0)) + "s");
}
BENCHMARK(BM_IngestOptimized)
    ->Arg(3)  // full optimizations
    ->Arg(0)  // no dedup
    ->Unit(benchmark::kMillisecond);

void BM_DedupRatio(benchmark::State& state) {
  const auto& records = SharedRecords();
  double ratio = 1;
  for (auto _ : state) {
    StorageOptions options;
    options.dedup_window = state.range(0) * kSecond;
    AuditDatabase db(options);
    for (const EventRecord& record : records) {
      (void)db.Append(record);
    }
    db.Seal();
    ratio = static_cast<double>(db.stats().raw_events) /
            static_cast<double>(db.stats().total_events);
  }
  state.counters["dedup_ratio"] = ratio;
  state.SetLabel("window=" + std::to_string(state.range(0)) + "s");
}
BENCHMARK(BM_DedupRatio)->Arg(1)->Arg(3)->Arg(10)->Arg(30)->Unit(
    benchmark::kMillisecond);

void BM_PartitionScan(benchmark::State& state) {
  static const AuditDatabase* db = [] {
    auto result = IngestRecords(SharedRecords(), StorageOptions{});
    return new AuditDatabase(std::move(result).value());
  }();
  uint64_t sum = 0;
  for (auto _ : state) {
    ReadView view = db->OpenReadView();
    for (const auto& [key, partition] : view.partitions()) {
      for (uint64_t amount : partition->columns().amount) sum += amount;
    }
  }
  benchmark::DoNotOptimize(sum);
  state.SetItemsProcessed(
      static_cast<int64_t>(db->stats().total_events) * state.iterations());
}
BENCHMARK(BM_PartitionScan)->Unit(benchmark::kMillisecond);

void BM_LikeMatcher(benchmark::State& state) {
  // "C:\Windows\\%": escaped backslash, then the '%' wildcard (a bare "\%"
  // would match a literal percent sign).
  const char* patterns[] = {"%cmd.exe", "C:\\Windows\\\\%", "%info%stealer%",
                            "backup_.dmp"};
  LikeMatcher matcher(patterns[state.range(0)]);
  const std::string inputs[] = {
      "C:\\Windows\\System32\\cmd.exe",
      "/var/www/html/info_stealer.sh",
      "C:\\SQLBackup\\backup1.dmp",
      "C:\\Users\\alice\\Documents\\report.docx",
  };
  size_t hits = 0;
  for (auto _ : state) {
    for (const std::string& input : inputs) {
      hits += matcher.Matches(input) ? 1 : 0;
    }
  }
  benchmark::DoNotOptimize(hits);
  state.SetItemsProcessed(4 * state.iterations());
  state.SetLabel(patterns[state.range(0)]);
}
BENCHMARK(BM_LikeMatcher)->DenseRange(0, 3);

void BM_EntityIndexLookup(benchmark::State& state) {
  static const AuditDatabase* db = [] {
    auto result = IngestRecords(SharedRecords(), StorageOptions{});
    return new AuditDatabase(std::move(result).value());
  }();
  LikeMatcher matcher("%powershell%");
  for (auto _ : state) {
    auto ids = db->entities().FindProcessesByExe(matcher);
    benchmark::DoNotOptimize(ids.size());
  }
}
BENCHMARK(BM_EntityIndexLookup);

}  // namespace

BENCHMARK_MAIN();
