// Robustness and cross-engine guarantees:
//  * the parser never crashes on arbitrary input (fuzz-ish sweep);
//  * the conciseness gap the paper reports holds across the catalogs;
//  * all three engines agree on the full ATC catalog (the invariant the
//    Figure 5 benchmark relies on).

#include <gtest/gtest.h>

#include <string>

#include "common/rng.h"
#include "engine/aiql_engine.h"
#include "graph/graph_executor.h"
#include "graph/graph_store.h"
#include "query/metrics.h"
#include "query/parser.h"
#include "simulator/queries_c.h"
#include "simulator/scenario.h"
#include "sql/catalog.h"
#include "sql/sql_executor.h"
#include "sql/translator.h"

namespace aiql {
namespace {

class ParserFuzzTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ParserFuzzTest, NeverCrashesOnArbitraryInput) {
  Rng rng(GetParam());
  const std::string vocab[] = {
      "proc",  "file",   "ip",   "read",  "write", "start",  "return",
      "with",  "before", "as",   "p1",    "f1",    "evt",    "distinct",
      "(",     ")",      "[",    "]",     ",",     "=",      "\"%x%\"",
      "42",    "||",     "->",   "<-",    "group", "by",     "having",
      "window", "step",  "min",  "sec",   ".",     "forward", ":",
      "agentid", "avg",  "*",    "+",     "/",     "limit",  "\"",
  };
  for (int iteration = 0; iteration < 300; ++iteration) {
    std::string query;
    size_t tokens = rng.Uniform(25);
    for (size_t i = 0; i < tokens; ++i) {
      query += vocab[rng.Uniform(std::size(vocab))];
      query += ' ';
    }
    // Must not crash; errors are fine (and must carry a message).
    auto parsed = ParseAiql(query);
    if (!parsed.ok()) {
      EXPECT_FALSE(parsed.status().message().empty());
    }
  }
}

TEST_P(ParserFuzzTest, NeverCrashesOnMutatedValidQuery) {
  Rng rng(GetParam() * 31);
  const std::string base =
      "(at \"05/10/2018\") agentid = 7 "
      "proc p1[\"%cmd.exe\"] start proc p2 as e1 "
      "proc p2 write file f as e2 with e1 before e2 "
      "return distinct p1, p2, f";
  for (int iteration = 0; iteration < 300; ++iteration) {
    std::string mutated = base;
    size_t edits = 1 + rng.Uniform(4);
    for (size_t e = 0; e < edits; ++e) {
      size_t pos = rng.Uniform(mutated.size());
      switch (rng.Uniform(3)) {
        case 0:
          mutated[pos] = static_cast<char>(32 + rng.Uniform(95));
          break;
        case 1:
          mutated.erase(pos, 1);
          break;
        default:
          mutated.insert(pos, 1, static_cast<char>(32 + rng.Uniform(95)));
      }
    }
    (void)ParseAiql(mutated);  // must not crash
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ParserFuzzTest,
                         ::testing::Values(11, 12, 13, 14));

TEST(ConcisenessGuard, SqlStaysSubstantiallyMoreVerbose) {
  ScenarioOptions options;
  options.num_clients = 2;
  AtcScenarioData atc = GenerateAtcScenario(options);
  size_t aiql_words = 0, sql_words = 0;
  size_t aiql_constraints = 0, sql_constraints = 0;
  for (const CatalogQuery& query : AtcInvestigationQueries(atc.truth)) {
    auto parsed = ParseAiql(query.text);
    ASSERT_TRUE(parsed.ok()) << query.id;
    QueryTextMetrics aiql_metrics = ComputeAiqlMetrics(*parsed);
    auto sql = TranslateToSql(*parsed, SqlSchemaMode::kNormalized);
    ASSERT_TRUE(sql.ok()) << query.id;
    aiql_words += aiql_metrics.words;
    sql_words += sql->metrics.words;
    aiql_constraints += aiql_metrics.constraints;
    sql_constraints += sql->metrics.constraints;
  }
  // Paper: >=3.0x constraints, 3.5x words. Guard a conservative 2x floor so
  // refactors cannot silently erode the gap.
  EXPECT_GT(sql_words, 2 * aiql_words);
  EXPECT_GT(sql_constraints, 2 * aiql_constraints);
}

TEST(CrossEngineTest, AllThreeEnginesAgreeOnTheAtcCatalog) {
  ScenarioOptions options;
  options.num_clients = 2;
  options.duration = 3 * kHour;
  options.events_per_host_per_hour = 300;
  AtcScenarioData data = GenerateAtcScenario(options);

  auto optimized = IngestRecords(data.records, StorageOptions{});
  StorageOptions raw_options;
  raw_options.dedup_window = 0;
  auto raw = IngestRecords(data.records, raw_options);
  ASSERT_TRUE(optimized.ok());
  ASSERT_TRUE(raw.ok());

  AiqlEngine aiql_engine(&*optimized);
  FlatCatalog flat(&*raw);
  SqlExecutor sql_engine(&flat);
  GraphStore graph(&*raw);
  GraphExecutor graph_engine(&graph);

  for (const CatalogQuery& query : AtcInvestigationQueries(data.truth)) {
    auto expected = aiql_engine.Execute(query.text);
    ASSERT_TRUE(expected.ok()) << query.id;
    expected->table.SortRows();

    auto parsed = ParseAiql(query.text);
    auto translated = TranslateToSql(*parsed, SqlSchemaMode::kFlat);
    ASSERT_TRUE(translated.ok()) << query.id;
    auto sql_result = sql_engine.Execute(translated->sql);
    ASSERT_TRUE(sql_result.ok())
        << query.id << ": " << sql_result.status().ToString();
    sql_result->table.SortRows();
    EXPECT_EQ(sql_result->table.num_rows(), expected->table.num_rows())
        << query.id << " (SQL)";

    auto graph_result = graph_engine.ExecuteAiql(query.text);
    ASSERT_TRUE(graph_result.ok())
        << query.id << ": " << graph_result.status().ToString();
    graph_result->table.SortRows();
    EXPECT_EQ(graph_result->table.num_rows(), expected->table.num_rows())
        << query.id << " (graph)";
    // Row-content equality for the graph engine (same projection code).
    EXPECT_EQ(graph_result->table, expected->table) << query.id;
  }
}

}  // namespace
}  // namespace aiql
