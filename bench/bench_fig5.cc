// Figure 5 reproduction: log10-transformed execution time of the 26 ATC
// case-study queries (c1-1 .. c5-7) on three engines:
//   * AIQL            — optimized storage + optimized engine
//   * PostgreSQL      — generic SQL engine on *unoptimized* flat storage
//                       (raw denormalized audit_log, no dedup; baselines
//                       scan every event without pruning)
//   * Neo4j           — traversal-based graph engine
//
// Paper reference: AIQL 124x faster than PostgreSQL and 157x than Neo4j in
// total; Neo4j generally slower than PostgreSQL on multi-join behaviors.
//
//   $ ./build/bench/bench_fig5

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <string>

#include "bench_common.h"
#include "common/table_printer.h"
#include "engine/aiql_engine.h"
#include "graph/graph_executor.h"
#include "graph/graph_store.h"
#include "query/parser.h"
#include "simulator/queries_c.h"
#include "sql/catalog.h"
#include "sql/sql_executor.h"
#include "sql/translator.h"

using namespace aiql;
using namespace aiql_bench;

namespace {

template <typename Fn>
double TimeMs(Fn&& fn) {
  const auto start = std::chrono::steady_clock::now();
  fn();
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - start)
      .count();
}

/// Median of 5 timed runs after one warm-up. AIQL and Neo4j queries take
/// about a millisecond or less each, so a single timing is mostly noise.
template <typename Fn>
double MedianMs(Fn&& fn) {
  fn();
  double runs[5];
  for (double& run : runs) run = TimeMs(fn);
  std::nth_element(runs, runs + 2, runs + 5);
  return runs[2];
}

std::string FormatMs(double ms) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.3f", ms);
  return buf;
}

std::string Log10Text(double ms) {
  char buf[16];
  std::snprintf(buf, sizeof(buf), "%.2f", std::log10(std::max(ms, 1e-3) / 1e3));
  return buf;
}

}  // namespace

int main() {
  ScenarioOptions options = BenchScenarioOptions();
  std::printf("== Figure 5: AIQL vs PostgreSQL (w/o optimized storage) vs "
              "Neo4j ==\n");
  std::printf("generating ATC case-study scenario (clients=%d "
              "rate=%.0f/host/h)...\n",
              options.num_clients, options.events_per_host_per_hour);
  AtcScenarioData data = GenerateAtcScenario(options);

  // AIQL runs on the optimized store; the baselines get the raw
  // (undeduplicated) one and read all of it.
  auto optimized = IngestRecords(data.records, StorageOptions{});
  StorageOptions raw_options;
  raw_options.dedup_window = 0;
  auto raw = IngestRecords(data.records, raw_options);
  if (!optimized.ok() || !raw.ok()) {
    std::fprintf(stderr, "ingest failed\n");
    return 1;
  }
  std::printf("optimized store: %llu events; raw store: %llu events\n\n",
              static_cast<unsigned long long>(
                  optimized->stats().total_events),
              static_cast<unsigned long long>(raw->stats().total_events));

  AiqlEngine aiql_engine(&*optimized);
  FlatCatalog flat(&*raw);
  SqlExecutor sql_engine(&flat);
  GraphStore graph(&*raw);
  GraphExecutor graph_engine(&graph);

  TablePrinter table({"query", "aiql (ms)", "pg (ms)", "neo4j (ms)",
                      "log10 aiql s", "log10 pg s", "log10 neo4j s", "rows"});
  double aiql_total = 0, sql_total = 0, graph_total = 0;
  int graph_slower_than_pg = 0;
  bool mismatch = false;

  for (const CatalogQuery& query : AtcInvestigationQueries(data.truth)) {
    size_t aiql_rows = 0, sql_rows = 0, graph_rows = 0;
    const double aiql_ms = MedianMs([&] {
      auto result = aiql_engine.Execute(query.text);
      if (result.ok()) aiql_rows = result->table.num_rows();
    });

    auto parsed = ParseAiql(query.text);
    auto translated = TranslateToSql(*parsed, SqlSchemaMode::kFlat);
    if (!translated.ok()) {
      std::fprintf(stderr, "%s: %s\n", query.id.c_str(),
                   translated.status().ToString().c_str());
      return 1;
    }
    const double sql_ms = TimeMs([&] {
      auto result = sql_engine.Execute(translated->sql);
      if (result.ok()) sql_rows = result->table.num_rows();
    });
    const double graph_ms = MedianMs([&] {
      auto result = graph_engine.ExecuteAiql(query.text);
      if (result.ok()) graph_rows = result->table.num_rows();
    });
    if (sql_rows != aiql_rows || graph_rows != aiql_rows) mismatch = true;
    if (graph_ms > sql_ms) ++graph_slower_than_pg;

    aiql_total += aiql_ms;
    sql_total += sql_ms;
    graph_total += graph_ms;
    table.AddRow({query.id, FormatMs(aiql_ms), FormatMs(sql_ms),
                  FormatMs(graph_ms), Log10Text(aiql_ms), Log10Text(sql_ms),
                  Log10Text(graph_ms), std::to_string(aiql_rows)});
  }

  std::printf("%s", table.ToString().c_str());
  std::printf("\ntotals: AIQL %.3f ms | PostgreSQL %.1f ms (%.1fx) | "
              "Neo4j %.1f ms (%.1fx)\n",
              aiql_total, sql_total, sql_total / aiql_total, graph_total,
              graph_total / aiql_total);
  std::printf("paper: 124x (PostgreSQL), 157x (Neo4j); Neo4j generally "
              "slower than PostgreSQL\n");
  std::printf("Neo4j slower than PostgreSQL on %d of 26 queries\n",
              graph_slower_than_pg);
  if (mismatch) {
    std::printf("WARNING: row-count mismatch between engines detected\n");
    return 1;
  }
  return 0;
}
