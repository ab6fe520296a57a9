// Scan-kernel micro-benchmarks: throughput of the two partition scan
// strategies — posting-list merge and batch-at-a-time columnar kernels —
// under selective and unselective candidate sets, plus the dictionary-match
// cache behind the id-set predicates.
//
//   $ ./build/bench/bench_scan

#include <benchmark/benchmark.h>

#include "bench_common.h"
#include "common/like_matcher.h"
#include "engine/scan.h"
#include "simulator/scenario.h"

using namespace aiql;

namespace {

const AuditDatabase& SharedDb() {
  static const AuditDatabase* db = [] {
    ScenarioOptions options;
    options.num_clients = 4;
    options.events_per_host_per_hour = 20000;  // high-rate: dense partitions
    options.duration = 2 * kHour;
    DemoScenarioData data = GenerateDemoScenario(options);
    auto result = IngestRecords(data.records, StorageOptions{});
    return new AuditDatabase(std::move(result).value());
  }();
  return *db;
}

/// Candidate set over process ids keeping roughly 1/`keep_one_in` entities;
/// 0 = unconstrained (no candidate set).
CompiledPattern ScanPattern(const AuditDatabase& db, OpMask mask,
                            uint32_t keep_one_in) {
  CompiledPattern pattern;
  pattern.op_mask = mask;
  pattern.subject.type = EntityType::kProcess;
  pattern.object.type = EntityType::kFile;
  if (keep_one_in > 0) {
    size_t universe = db.entities().NumEntities(EntityType::kProcess);
    EntitySet candidates(universe);
    for (size_t id = 0; id < universe; id += keep_one_in) {
      candidates.Add(static_cast<uint32_t>(id));
    }
    pattern.subject.candidates = std::move(candidates);
    pattern.subject.has_constraints = true;
  }
  return pattern;
}

/// One full sweep over every sealed partition with the given op mask.
/// state.range(0): 0 = unselective (all ops, no candidates),
///                 1 = selective candidates (all ops, 1-in-16 processes).
void ScanSweep(benchmark::State& state, OpMask mask) {
  const AuditDatabase& db = SharedDb();
  CompiledPattern pattern =
      ScanPattern(db, mask, state.range(0) == 0 ? 0 : 16);
  uint64_t inspected = 0;
  size_t matches = 0;
  for (auto _ : state) {
    inspected = 0;
    matches = 0;
    ReadView view = db.OpenReadView();
    for (const auto& [key, partition] : view.partitions()) {
      std::vector<EventRef> out;
      inspected += ScanPartition(*partition, pattern,
                                 TimeRange{INT64_MIN, INT64_MAX}, false, &out);
      matches += out.size();
    }
    benchmark::DoNotOptimize(matches);
  }
  state.SetItemsProcessed(static_cast<int64_t>(inspected) *
                          state.iterations());
  state.SetLabel((state.range(0) == 0 ? "unselective" : "selective") +
                 std::string(" matches=") + std::to_string(matches));
}

// Wide op mask => the columnar batch kernels.
void BM_ColumnarBatchKernel(benchmark::State& state) {
  ScanSweep(state, static_cast<OpMask>(0x1FF));
}
BENCHMARK(BM_ColumnarBatchKernel)->Arg(0)->Arg(1)->Unit(benchmark::kMillisecond);

// Single rare op => the posting-list merge path.
void BM_PostingMerge(benchmark::State& state) {
  ScanSweep(state, OpBit(OpType::kExecute));
}
BENCHMARK(BM_PostingMerge)->Arg(0)->Arg(1)->Unit(benchmark::kMillisecond);

// Dictionary-match cache: cold = fresh cache each iteration (full dictionary
// sweep), warm = repeated pattern (version-checked hit, no matching).
void BM_DictionaryMatchCold(benchmark::State& state) {
  const AuditDatabase& db = SharedDb();
  LikeMatcher matcher("%powershell%");
  for (auto _ : state) {
    DictionaryMatchCache cache;
    auto match = cache.Match(db.entities().exe_names(), matcher);
    benchmark::DoNotOptimize(match->bits.Count());
  }
}
BENCHMARK(BM_DictionaryMatchCold);

void BM_DictionaryMatchWarm(benchmark::State& state) {
  const AuditDatabase& db = SharedDb();
  LikeMatcher matcher("%powershell%");
  for (auto _ : state) {
    auto match = db.entities().MatchDictionary(DictAttr::kExeName, matcher);
    benchmark::DoNotOptimize(match.get());
  }
}
BENCHMARK(BM_DictionaryMatchWarm);

}  // namespace

BENCHMARK_MAIN();
