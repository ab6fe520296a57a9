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

#include <cstdio>

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

  TablePrinter table({"query", "aiql (s)", "pg (s)", "neo4j (s)",
                      "log10 aiql", "log10 pg", "log10 neo4j", "rows"});
  int64_t aiql_total = 0, sql_total = 0, graph_total = 0;
  int graph_slower_than_pg = 0;
  bool mismatch = false;

  for (const CatalogQuery& query : AtcInvestigationQueries(data.truth)) {
    size_t aiql_rows = 0, sql_rows = 0, graph_rows = 0;
    int64_t aiql_us = TimeUs([&] {
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
    int64_t sql_us = TimeUs([&] {
      auto result = sql_engine.Execute(translated->sql);
      if (result.ok()) sql_rows = result->table.num_rows();
    });
    int64_t graph_us = TimeUs([&] {
      auto result = graph_engine.ExecuteAiql(query.text);
      if (result.ok()) graph_rows = result->table.num_rows();
    });
    if (sql_rows != aiql_rows || graph_rows != aiql_rows) mismatch = true;
    if (graph_us > sql_us) ++graph_slower_than_pg;

    aiql_total += aiql_us;
    sql_total += sql_us;
    graph_total += graph_us;
    char la[16], lp[16], ln[16];
    std::snprintf(la, sizeof(la), "%.2f", Log10Seconds(aiql_us));
    std::snprintf(lp, sizeof(lp), "%.2f", Log10Seconds(sql_us));
    std::snprintf(ln, sizeof(ln), "%.2f", Log10Seconds(graph_us));
    table.AddRow({query.id, FormatSeconds(aiql_us), FormatSeconds(sql_us),
                  FormatSeconds(graph_us), la, lp, ln,
                  std::to_string(aiql_rows)});
  }

  std::printf("%s", table.ToString().c_str());
  double aiql_s = static_cast<double>(aiql_total) / 1e6;
  std::printf("\ntotals: AIQL %.2f s | PostgreSQL %.2f s (%.0fx) | "
              "Neo4j %.2f s (%.0fx)\n",
              aiql_s, static_cast<double>(sql_total) / 1e6,
              static_cast<double>(sql_total) / (aiql_total > 0 ? aiql_total : 1),
              static_cast<double>(graph_total) / 1e6,
              static_cast<double>(graph_total) /
                  (aiql_total > 0 ? aiql_total : 1));
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
