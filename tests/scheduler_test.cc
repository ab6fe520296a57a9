// Unit tests for pruning-power estimation and pattern scheduling.

#include "engine/scheduler.h"

#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdio>
#include <filesystem>

#include "query/analyzer.h"
#include "query/parser.h"
#include "storage/database.h"
#include "storage/snapshot.h"
#include "storage/tiered.h"

namespace aiql {
namespace {

Timestamp T0() { return *MakeTimestamp(2018, 5, 10); }

class SchedulerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    StorageOptions options;
    options.dedup_window = 0;
    db_ = std::make_unique<AuditDatabase>(options);
    // "noisy.exe" produces 500 write events; "rare.exe" produces 2.
    ProcessRef noisy{1, 10, "noisy.exe", "u"};
    ProcessRef rare{1, 11, "rare.exe", "u"};
    for (int i = 0; i < 500; ++i) {
      EventRecord record;
      record.agent_id = 1;
      record.op = OpType::kWrite;
      record.start_ts = T0() + i * kSecond;
      record.end_ts = record.start_ts + kSecond;
      record.subject = noisy;
      record.object = FileRef{1, "/bulk/file" + std::to_string(i % 40)};
      ASSERT_TRUE(db_->Append(record).ok());
    }
    for (int i = 0; i < 2; ++i) {
      EventRecord record;
      record.agent_id = 1;
      record.op = OpType::kRead;
      record.start_ts = T0() + i * kMinute;
      record.end_ts = record.start_ts + kSecond;
      record.subject = rare;
      record.object = FileRef{1, "/secret/key.pem"};
      ASSERT_TRUE(db_->Append(record).ok());
    }
    db_->Seal();
    view_ = db_->OpenReadView();
  }

  std::vector<CompiledPattern> Compile(const std::string& text,
                                       AnalyzedQuery* analyzed_out) {
    auto parsed = ParseAiql(text);
    EXPECT_TRUE(parsed.ok()) << parsed.status().ToString();
    auto analyzed = AnalyzeMultievent(*parsed->multievent, parsed->kind);
    EXPECT_TRUE(analyzed.ok()) << analyzed.status().ToString();
    *analyzed_out = *analyzed;
    // Keep the AST alive for the duration of the test via the static.
    parsed_storage_.push_back(std::move(parsed).value());
    analyzed_out->ast = parsed_storage_.back().multievent.get();
    auto compiled = CompilePatterns(*analyzed_out, db_->entities());
    EXPECT_TRUE(compiled.ok()) << compiled.status().ToString();
    return std::move(compiled).value();
  }

  std::unique_ptr<AuditDatabase> db_;
  ReadView view_;
  std::vector<ParsedQuery> parsed_storage_;
};

TEST_F(SchedulerTest, EstimatesReflectSelectivity) {
  AnalyzedQuery analyzed;
  auto patterns = Compile(
      "proc a[\"%noisy%\"] write file f1 as e1 "
      "proc b[\"%rare%\"] read file f2 as e2 "
      "return a, b",
      &analyzed);
  ASSERT_EQ(patterns.size(), 2u);
  double noisy_est =
      *EstimateCardinality(patterns[0], view_, analyzed.agent_filter);
  double rare_est =
      *EstimateCardinality(patterns[1], view_, analyzed.agent_filter);
  EXPECT_GT(noisy_est, rare_est);
  EXPECT_GE(noisy_est, 400);  // close to the true 500
  EXPECT_LE(rare_est, 10);    // close to the true 2
}

TEST_F(SchedulerTest, SchedulesMostSelectiveFirst) {
  AnalyzedQuery analyzed;
  auto patterns = Compile(
      "proc a[\"%noisy%\"] write file f1 as e1 "
      "proc b[\"%rare%\"] read file f2 as e2 "
      "return a, b",
      &analyzed);
  EngineOptions options;
  auto order =
      SchedulePatterns(&patterns, view_, analyzed.agent_filter, options);
  ASSERT_TRUE(order.ok()) << order.status().ToString();
  ASSERT_EQ(order->size(), 2u);
  EXPECT_EQ((*order)[0], 1u);  // the rare pattern runs first
  EXPECT_EQ((*order)[1], 0u);
}

TEST_F(SchedulerTest, ReorderingCanBeDisabled) {
  AnalyzedQuery analyzed;
  auto patterns = Compile(
      "proc a[\"%noisy%\"] write file f1 as e1 "
      "proc b[\"%rare%\"] read file f2 as e2 "
      "return a, b",
      &analyzed);
  EngineOptions options;
  options.enable_reordering = false;
  auto order =
      SchedulePatterns(&patterns, view_, analyzed.agent_filter, options);
  ASSERT_TRUE(order.ok()) << order.status().ToString();
  EXPECT_EQ((*order)[0], 0u);
  EXPECT_EQ((*order)[1], 1u);
}

TEST_F(SchedulerTest, OpMaskDrivesBaseEstimate) {
  AnalyzedQuery analyzed;
  // Unconstrained subjects: estimates come from per-op partition counts.
  auto patterns = Compile(
      "proc a write file f1 as e1 "
      "proc b read file f2 as e2 "
      "return a, b",
      &analyzed);
  double writes =
      *EstimateCardinality(patterns[0], view_, analyzed.agent_filter);
  double reads =
      *EstimateCardinality(patterns[1], view_, analyzed.agent_filter);
  EXPECT_NEAR(writes, 500, 50);
  EXPECT_NEAR(reads, 2, 1);
}

TEST_F(SchedulerTest, ObjectSelectivityScalesEstimate) {
  AnalyzedQuery analyzed;
  auto patterns = Compile(
      "proc a write file f1[\"/bulk/file1\"] as e1 "
      "proc b write file f2 as e2 "
      "return a, b",
      &analyzed);
  double constrained =
      *EstimateCardinality(patterns[0], view_, analyzed.agent_filter);
  double unconstrained =
      *EstimateCardinality(patterns[1], view_, analyzed.agent_filter);
  EXPECT_LT(constrained, unconstrained);
}

TEST_F(SchedulerTest, TimeWindowLimitsEstimate) {
  AnalyzedQuery analyzed;
  auto patterns = Compile(
      "(from \"05/11/2018\" to \"05/12/2018\") "
      "proc a write file f1 as e1 return a",
      &analyzed);
  // All data is on 05/10: nothing in range.
  EXPECT_EQ(*EstimateCardinality(patterns[0], view_, analyzed.agent_filter),
            0);
}

/// Six hours x two agents. Writes in every partition, reads only in even
/// hours, connects only in hour 3 of agent 2, and events at odd seconds, so
/// ranges that open mid-hour cut through partitions.
std::vector<EventRecord> BackingRecords() {
  std::vector<EventRecord> records;
  for (int hour = 0; hour < 6; ++hour) {
    for (AgentId agent : {1u, 2u}) {
      for (int i = 0; i < 30; ++i) {
        EventRecord record;
        record.agent_id = agent;
        record.op = (hour % 2 == 0 && i % 3 == 0) ? OpType::kRead
                                                   : OpType::kWrite;
        record.start_ts = T0() + hour * kHour + i * 2 * kMinute + kSecond;
        record.end_ts = record.start_ts + kSecond;
        record.subject =
            ProcessRef{agent, 10, i % 5 == 0 ? "rare.exe" : "noisy.exe", "u"};
        record.object = FileRef{agent, "/f" + std::to_string(i % 7)};
        records.push_back(record);
      }
      if (hour == 3 && agent == 2) {
        EventRecord record;
        record.agent_id = agent;
        record.op = OpType::kConnect;
        record.start_ts = T0() + hour * kHour + 7 * kMinute;
        record.end_ts = record.start_ts + kSecond;
        record.subject = ProcessRef{agent, 10, "noisy.exe", "u"};
        record.object =
            NetworkRef{agent, "10.0.0.2", "10.0.0.9", 4000, 443, "tcp"};
        records.push_back(record);
      }
    }
  }
  return records;
}

/// The same records served from a database, a lazy snapshot of it and a
/// fully demoted tiered store whose cold cache starts empty: plans must be
/// computed from directory statistics and agree exactly.
class SchedulerBackingTest : public ::testing::Test {
 protected:
  void SetUp() override {
    StorageOptions options;
    options.dedup_window = 0;
    db_ = std::make_unique<AuditDatabase>(options);
    ASSERT_TRUE(db_->AppendBatch(BackingRecords()).ok());
    ASSERT_TRUE(db_->Seal().ok());
    path_ = "/tmp/aiql_scheduler_test_" +
            std::to_string(static_cast<long>(getpid()));
    ASSERT_TRUE(SaveSnapshot(*db_, path_).ok());
    auto store = SnapshotStore::Open(path_);
    ASSERT_TRUE(store.ok()) << store.status().ToString();
    store_ = std::move(*store);
    RetentionOptions retention;
    retention.dir = path_ + ".tiered";
    retention.hot_buckets = -1;  // demote every sealed partition
    retention.memory_budget_bytes = 4096;
    auto tiered = TieredStore::Create(options, retention);
    ASSERT_TRUE(tiered.ok()) << tiered.status().ToString();
    tiered_ = std::move(*tiered);
    ASSERT_TRUE(tiered_->AppendBatch(BackingRecords()).ok());
    ASSERT_TRUE(tiered_->Seal().ok());
    ASSERT_TRUE(tiered_->CompactOnce().ok());
    ASSERT_EQ(tiered_->stats().hot_partitions, 0u);
    ASSERT_EQ(tiered_->stats().cold_partitions, 12u);
  }

  void TearDown() override {
    tiered_.reset();
    store_.reset();
    std::filesystem::remove_all(path_ + ".tiered");
    std::remove(path_.c_str());
  }

  /// Estimates of every pattern of `text` on `view`.
  std::vector<double> Estimates(const std::string& text,
                                const ReadView& view) {
    auto parsed = ParseAiql(text);
    EXPECT_TRUE(parsed.ok()) << parsed.status().ToString();
    if (!parsed.ok()) return {};
    auto analyzed = AnalyzeMultievent(*parsed->multievent, parsed->kind);
    EXPECT_TRUE(analyzed.ok()) << analyzed.status().ToString();
    if (!analyzed.ok()) return {};
    analyzed->ast = parsed->multievent.get();
    auto patterns = CompilePatterns(*analyzed, view.entities());
    EXPECT_TRUE(patterns.ok()) << patterns.status().ToString();
    if (!patterns.ok()) return {};
    auto order =
        SchedulePatterns(&*patterns, view, analyzed->agent_filter,
                         EngineOptions{});
    EXPECT_TRUE(order.ok()) << order.status().ToString();
    std::vector<double> out;
    for (const CompiledPattern& pattern : *patterns) {
      out.push_back(pattern.estimated_cardinality);
    }
    return out;
  }

  std::unique_ptr<AuditDatabase> db_;
  std::string path_;
  std::unique_ptr<SnapshotStore> store_;
  std::unique_ptr<TieredStore> tiered_;
};

TEST_F(SchedulerBackingTest, EstimatesAgreeAcrossBackings) {
  const std::string queries[] = {
      // Whole day: every partition lies inside the range.
      "(at \"05/10/2018\") proc a[\"%rare%\"] read file f1 as e1 "
      "proc b write file f2 as e2 proc c connect ip i as e3 return a, b, c",
      // A range cutting through hours 1 and 4.
      "(from \"01:30:00 05/10/2018\" to \"04:15:00 05/10/2018\") "
      "proc a read file f1 as e1 proc b[\"%noisy%\"] write file f2 as e2 "
      "proc c connect ip i as e3 return a, b, c",
      // One agent, and a window opening before the data.
      "(from \"05/09/2018\" to \"02:00:00 05/10/2018\") agentid = 2 "
      "proc a read || write file f[\"/f3\"] as e1 return a",
  };
  for (const std::string& query : queries) {
    SCOPED_TRACE(query);
    ReadView db_view = db_->OpenReadView();
    const std::vector<double> want = Estimates(query, db_view);
    ASSERT_FALSE(want.empty());
    EXPECT_GT(want[0] + want.back(), 0);
    EXPECT_EQ(Estimates(query, store_->OpenReadView()), want);
    EXPECT_EQ(Estimates(query, tiered_->OpenReadView()), want);
  }
  // The cut-through range materialized a partition to count exactly.
  EXPECT_GT(store_->loaded_partitions(), 0u);
}

TEST_F(SchedulerBackingTest, WholeDayPlanReadsOnlyTheDirectory) {
  const std::string query =
      "(at \"05/10/2018\") proc a[\"%rare%\"] read file f1 as e1 "
      "proc b write file f2 as e2 proc c connect ip i as e3 return a, b, c";
  ASSERT_EQ(Estimates(query, tiered_->OpenReadView()).size(), 3u);
  ASSERT_EQ(Estimates(query, store_->OpenReadView()).size(), 3u);
  const RetentionStats stats = tiered_->stats();
  EXPECT_EQ(stats.reopens, 0u);
  EXPECT_EQ(stats.cache.misses, 0u);
  EXPECT_EQ(stats.cache.insertions, 0u);
  EXPECT_EQ(store_->loaded_partitions(), 0u);
}

}  // namespace
}  // namespace aiql
