// Tests for the SQL baseline: mini-SQL parser, generic executor, AIQL->SQL
// translation, and differential equivalence against the AIQL engine on both
// the normalized and the flat (unoptimized) schema.

#include <gtest/gtest.h>

#include <atomic>
#include <functional>
#include <string>
#include <thread>

#include "engine/aiql_engine.h"
#include "query/parser.h"
#include "sql/catalog.h"
#include "sql/sql_executor.h"
#include "sql/sql_parser.h"
#include "sql/translator.h"
#include "storage/database.h"

namespace aiql {
namespace {

Timestamp T0() { return *MakeTimestamp(2018, 5, 10); }

EventRecord MakeEvent(AgentId agent, OpType op, Timestamp start,
                      ProcessRef subject, ObjectRef object,
                      uint64_t amount = 0) {
  EventRecord record;
  record.agent_id = agent;
  record.op = op;
  record.start_ts = start;
  record.end_ts = start + kSecond;
  record.amount = amount;
  record.subject = std::move(subject);
  record.object = std::move(object);
  return record;
}

class SqlTest : public ::testing::Test {
 protected:
  void SetUp() override {
    StorageOptions options;
    options.dedup_window = 0;  // these tests exercise SQL semantics, not dedup
    db_ = std::make_unique<AuditDatabase>(options);
    Timestamp t = T0() + 8 * kHour;
    ProcessRef cmd{7, 100, "cmd.exe", "system"};
    ProcessRef osql{7, 101, "osql.exe", "system"};
    ProcessRef sqlservr{7, 102, "sqlservr.exe", "system"};
    ProcessRef sbblv{7, 103, "sbblv.exe", "system"};
    ProcessRef chrome{7, 110, "chrome.exe", "alice"};
    FileRef dump{7, "C:\\Temp\\backup1.dmp"};
    NetworkRef exfil{7, "10.0.0.7", "172.16.0.129", 49152, 443, "tcp"};
    NetworkRef web{7, "10.0.0.7", "93.184.216.34", 50000, 443, "tcp"};

    EXPECT_TRUE(db_->Append(MakeEvent(7, OpType::kStart, t, cmd, osql)).ok());
    EXPECT_TRUE(db_->Append(MakeEvent(7, OpType::kWrite, t + 2 * kMinute,
                                      sqlservr, dump, 1 << 20))
                    .ok());
    EXPECT_TRUE(db_->Append(MakeEvent(7, OpType::kRead, t + 5 * kMinute,
                                      sbblv, dump, 1 << 20))
                    .ok());
    EXPECT_TRUE(db_->Append(MakeEvent(7, OpType::kWrite, t + 6 * kMinute,
                                      sbblv, exfil, 900000))
                    .ok());
    for (int i = 0; i < 30; ++i) {
      EXPECT_TRUE(db_->Append(MakeEvent(7, OpType::kWrite, t + i * kSecond,
                                        chrome, web, 1000))
                      .ok());
    }
    db_->Seal();
    optimized_ = std::make_unique<OptimizedCatalog>(db_.get());
    flat_ = std::make_unique<FlatCatalog>(db_.get());
  }

  std::unique_ptr<AuditDatabase> db_;
  std::unique_ptr<OptimizedCatalog> optimized_;
  std::unique_ptr<FlatCatalog> flat_;
};

TEST_F(SqlTest, ParserHandlesBasicSelect) {
  auto select = ParseSql(
      "SELECT p.exe_name AS name, p.pid FROM process p "
      "WHERE p.exe_name LIKE '%cmd%' AND p.pid >= 100 LIMIT 5;");
  ASSERT_TRUE(select.ok()) << select.status().ToString();
  EXPECT_EQ((*select)->items.size(), 2u);
  EXPECT_EQ((*select)->items[0].alias, "name");
  EXPECT_EQ((*select)->from[0].table, "process");
  EXPECT_EQ((*select)->limit, 5);
}

TEST_F(SqlTest, ParserHandlesSubqueryAndLeftJoin) {
  auto select = ParseSql(
      "SELECT a.x FROM (SELECT p.pid AS x FROM process p) a "
      "LEFT JOIN (SELECT p.pid AS y FROM process p) b ON b.y = a.x - 1 "
      "WHERE COALESCE(a.x, 0) > 0");
  ASSERT_TRUE(select.ok()) << select.status().ToString();
  EXPECT_EQ((*select)->from.size(), 2u);
  EXPECT_TRUE((*select)->from[1].left_join);
}

TEST_F(SqlTest, ParserRejectsGarbage) {
  EXPECT_FALSE(ParseSql("SELECT FROM").ok());
  EXPECT_FALSE(ParseSql("SELECT x FROM (SELECT y FROM t)").ok());  // no alias
  EXPECT_FALSE(ParseSql("FROBNICATE x").ok());
  EXPECT_FALSE(ParseSql("SELECT x FROM t WHERE 'unterminated").ok());
}

TEST_F(SqlTest, ExecutorScansWithPredicates) {
  SqlExecutor executor(optimized_.get());
  auto result = executor.Execute(
      "SELECT p.exe_name FROM process p WHERE p.exe_name LIKE '%sql%'");
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_EQ(result->table.num_rows(), 2u);  // osql.exe + sqlservr.exe
}

TEST_F(SqlTest, ExecutorJoinsEventsWithEntities) {
  SqlExecutor executor(optimized_.get());
  auto result = executor.Execute(
      "SELECT DISTINCT s.exe_name, f.path "
      "FROM events e, process s, file f "
      "WHERE s.id = e.subject_id AND f.id = e.object_id "
      "AND e.object_type = 'file' AND e.op = 'read'");
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_EQ(result->table.num_rows(), 1u);
  EXPECT_EQ(ValueToString(result->table.rows[0][0]), "sbblv.exe");
}

TEST_F(SqlTest, ExecutorGroupByHaving) {
  SqlExecutor executor(optimized_.get());
  auto result = executor.Execute(
      "SELECT s.exe_name, COUNT(*) AS n, SUM(e.amount) AS total "
      "FROM events e, process s WHERE s.id = e.subject_id "
      "GROUP BY s.id, s.exe_name HAVING n > 5");
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_EQ(result->table.num_rows(), 1u);
  EXPECT_EQ(ValueToString(result->table.rows[0][0]), "chrome.exe");
  EXPECT_EQ(ValueToString(result->table.rows[0][1]), "30");
}

TEST_F(SqlTest, ExecutorWindowsTableFunction) {
  SqlExecutor executor(optimized_.get());
  auto result = executor.Execute(
      "SELECT w.idx, w.wstart FROM windows(0, 100, 50, 25) w");
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_EQ(result->table.num_rows(), 4u);  // starts 0, 25, 50, 75
  EXPECT_EQ(ValueToString(result->table.rows[3][1]), "75");
}

TEST_F(SqlTest, ExecutorLeftJoinNullExtension) {
  SqlExecutor executor(optimized_.get());
  auto result = executor.Execute(
      "SELECT a.pid, COALESCE(b.pid, -1) "
      "FROM (SELECT p.pid AS pid FROM process p) a "
      "LEFT JOIN (SELECT p.pid AS pid FROM process p WHERE p.pid = 100) b "
      "ON b.pid = a.pid");
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  int64_t minus_one = 0;
  for (const auto& row : result->table.rows) {
    if (ValueToString(row[1]) == "-1") ++minus_one;
  }
  EXPECT_EQ(result->table.num_rows(), 5u);
  EXPECT_EQ(minus_one, 4);  // all but pid=100 null-extended
}

TEST_F(SqlTest, FlatCatalogHasDenormalizedRows) {
  EXPECT_EQ(flat_->num_rows(), 34u);
  SqlExecutor executor(flat_.get());
  auto result = executor.Execute(
      "SELECT DISTINCT l.subject_exe FROM audit_log l "
      "WHERE l.op = 'write' AND l.dst_ip LIKE '172.16.0.129'");
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_EQ(result->table.num_rows(), 1u);
  EXPECT_EQ(ValueToString(result->table.rows[0][0]), "sbblv.exe");
}

TEST_F(SqlTest, ProcessScanRacesAWriterInterningProcesses) {
  // A writer thread interns new processes while the baseline scans the
  // process table: each scan reads one view, so it sees a prefix of the
  // table, ids dense from 0, with every row's strings intact. TSan reports
  // a scan that reads the table outside the view's lock.
  constexpr int kNewProcesses = 5000;
  constexpr int kMaxPasses = 100;
  AuditDatabase db;
  const OptimizedCatalog optimized(&db);
  std::atomic<bool> writer_done{false};
  std::thread writer([&] {
    const Timestamp t = T0() + 10 * kHour;
    for (int i = 0; i < kNewProcesses; ++i) {
      ProcessRef proc{7, static_cast<uint32_t>(5000 + i),
                      "new" + std::to_string(i) + ".exe", "bob"};
      EXPECT_TRUE(db.Append(MakeEvent(7, OpType::kStart, t + i * kSecond,
                                      proc, FileRef{7, "/tmp/x"}))
                      .ok());
      if (i % 8 == 0) {
        EXPECT_TRUE(db.Flush().ok());
      }
    }
    EXPECT_TRUE(db.Flush().ok());
    writer_done = true;
  });
  auto scan = [&](const std::function<void(std::vector<SqlValue>&&)>& fn) {
    EXPECT_TRUE(optimized.Scan("process", ScanHints{}, fn).ok());
  };
  size_t last = 0;
  for (int pass = 0; pass < kMaxPasses && !writer_done; ++pass) {
    int64_t next_id = 0;
    bool rows_ok = true;
    scan([&](std::vector<SqlValue>&& row) {
      const std::string& exe = std::get<std::string>(row[3]);
      rows_ok = rows_ok && std::get<int64_t>(row[0]) == next_id &&
                exe.find(".exe") != std::string::npos;
      ++next_id;
    });
    EXPECT_TRUE(rows_ok) << "pass " << pass;
    EXPECT_GE(static_cast<size_t>(next_id), last) << "pass " << pass;
    last = static_cast<size_t>(next_id);
  }
  writer.join();
  size_t rows = 0;
  scan([&](std::vector<SqlValue>&&) { ++rows; });
  EXPECT_EQ(rows, static_cast<size_t>(kNewProcesses));
}

// --- translator ---------------------------------------------------------------

constexpr const char* kExfilAiql = R"(
  (at "05/10/2018")
  agentid = 7
  proc p1["%cmd.exe"] start proc p2["%osql.exe"] as evt1
  proc p3["%sqlservr.exe"] write file f1["%backup1.dmp"] as evt2
  proc p4["%sbblv.exe"] read file f1 as evt3
  proc p4 read || write ip i1[dstip = "172.16.0.129"] as evt4
  with evt1 before evt2, evt2 before evt3, evt3 before evt4
  return distinct p1, p2, p3, f1, p4, i1
)";

TEST_F(SqlTest, TranslatorEmitsJoinsAndConstraints) {
  auto parsed = ParseAiql(kExfilAiql);
  ASSERT_TRUE(parsed.ok());
  auto translated = TranslateToSql(*parsed, SqlSchemaMode::kNormalized);
  ASSERT_TRUE(translated.ok()) << translated.status().ToString();
  const std::string& sql = translated->sql;
  EXPECT_NE(sql.find("FROM events e1"), std::string::npos);
  EXPECT_NE(sql.find("events e4"), std::string::npos);
  EXPECT_NE(sql.find("LIKE '%cmd.exe'"), std::string::npos);
  EXPECT_NE(sql.find("e1.end_ts <= e2.start_ts"), std::string::npos);
  EXPECT_GT(translated->metrics.constraints, 20u);
}

TEST_F(SqlTest, TranslatorReEncodesLikeEscapes) {
  // AIQL escape semantics ('\_' literal, bare '\' before other chars
  // ordinary) must become standard SQL escaping: ordinary backslashes
  // double and the operand gains an explicit ESCAPE '\' clause. Patterns
  // without backslashes stay untouched (no spurious ESCAPE).
  auto parsed = ParseAiql(
      "proc p[\"update\\_agent\"] write file f[\"%config\\SAM%\"] "
      "return p, f");
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  auto translated = TranslateToSql(*parsed, SqlSchemaMode::kNormalized);
  ASSERT_TRUE(translated.ok()) << translated.status().ToString();
  const std::string& sql = translated->sql;
  EXPECT_NE(sql.find("LIKE 'update\\_agent' ESCAPE '\\'"),
            std::string::npos)
      << sql;
  EXPECT_NE(sql.find("LIKE '%config\\\\SAM%' ESCAPE '\\'"),
            std::string::npos)
      << sql;

  // The mini-SQL front end accepts the emitted clause (and only '\').
  ASSERT_TRUE(
      ParseSql("SELECT p.exe_name FROM process p WHERE p.exe_name LIKE "
               "'update\\_agent' ESCAPE '\\'")
          .ok());
  EXPECT_FALSE(
      ParseSql("SELECT p.exe_name FROM process p WHERE p.exe_name LIKE "
               "'x%' ESCAPE '!'")
          .ok());
}

TEST_F(SqlTest, TranslatedSqlIsLessConciseThanAiql) {
  auto parsed = ParseAiql(kExfilAiql);
  ASSERT_TRUE(parsed.ok());
  QueryTextMetrics aiql_metrics = ComputeAiqlMetrics(*parsed);
  auto translated = TranslateToSql(*parsed, SqlSchemaMode::kNormalized);
  ASSERT_TRUE(translated.ok());
  EXPECT_GT(translated->metrics.constraints, aiql_metrics.constraints);
  EXPECT_GT(translated->metrics.words, aiql_metrics.words);
  EXPECT_GT(translated->metrics.chars, aiql_metrics.chars);
}

// Differential: AIQL engine vs generated SQL on both schemas.
class DifferentialTest : public SqlTest {
 protected:
  void CompareEngines(const std::string& aiql_text) {
    AiqlEngine engine(db_.get());
    auto aiql_result = engine.Execute(aiql_text);
    ASSERT_TRUE(aiql_result.ok()) << aiql_result.status().ToString();
    aiql_result->table.SortRows();

    auto parsed = ParseAiql(aiql_text);
    ASSERT_TRUE(parsed.ok());

    for (SqlSchemaMode mode :
         {SqlSchemaMode::kNormalized, SqlSchemaMode::kFlat}) {
      auto translated = TranslateToSql(*parsed, mode);
      ASSERT_TRUE(translated.ok()) << translated.status().ToString();
      const SqlCatalog* catalog =
          mode == SqlSchemaMode::kNormalized
              ? static_cast<const SqlCatalog*>(optimized_.get())
              : static_cast<const SqlCatalog*>(flat_.get());
      SqlExecutor executor(catalog);
      auto sql_result = executor.Execute(translated->sql);
      ASSERT_TRUE(sql_result.ok())
          << sql_result.status().ToString() << "\nSQL:\n" << translated->sql;
      sql_result->table.SortRows();
      ASSERT_EQ(sql_result->table.num_rows(), aiql_result->table.num_rows())
          << "mode=" << (mode == SqlSchemaMode::kFlat ? "flat" : "normalized")
          << "\nSQL:\n" << translated->sql;
      for (size_t r = 0; r < sql_result->table.rows.size(); ++r) {
        for (size_t c = 0; c < sql_result->table.rows[r].size(); ++c) {
          EXPECT_EQ(ValueToString(sql_result->table.rows[r][c]),
                    ValueToString(aiql_result->table.rows[r][c]))
              << "row " << r << " col " << c;
        }
      }
    }
  }
};

TEST_F(DifferentialTest, ExfiltrationQueryMatches) {
  CompareEngines(kExfilAiql);
}

TEST_F(DifferentialTest, SimpleScanMatches) {
  CompareEngines(
      "(at \"05/10/2018\") agentid = 7 "
      "proc p read file f return distinct p, f");
}

TEST_F(DifferentialTest, SharedSubjectMatches) {
  CompareEngines(
      "(at \"05/10/2018\") "
      "proc p read file f as e1 "
      "proc p write ip i as e2 "
      "with e1 before e2 "
      "return distinct p, f, i");
}

TEST_F(DifferentialTest, EventAttributesMatch) {
  CompareEngines(
      "(at \"05/10/2018\") "
      "proc p[\"%sbblv%\"] write ip i as e "
      "return p, i, e.amount");
}

TEST_F(DifferentialTest, AnomalyQueryMatches) {
  CompareEngines(R"(
    (at "05/10/2018")
    agentid = 7
    window = 1 min, step = 30 sec
    proc p write ip i as evt
    return p, avg(evt.amount) as amt, count(*) as n
    group by p
    having n >= 1
  )");
}

TEST_F(DifferentialTest, AnomalyWithHistoryMatches) {
  CompareEngines(R"(
    (at "05/10/2018")
    agentid = 7
    window = 1 min, step = 1 min
    proc p write ip i as evt
    return p, sum(evt.amount) as amt
    group by p
    having amt > amt[1] + amt[2]
  )");
}

TEST_F(DifferentialTest, DependencyQueryMatches) {
  CompareEngines(
      "(at \"05/10/2018\") "
      "forward: proc p3[\"%sqlservr%\"] ->[write] file f1 "
      "<-[read] proc p4 ->[write] ip i1 "
      "return p3, f1, p4, i1");
}

}  // namespace
}  // namespace aiql
