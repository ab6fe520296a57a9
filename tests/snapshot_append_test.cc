// SnapshotAppender unit tests: append + commit + read-back round trip,
// recovery from the newest valid footer, crash injection at the
// demotion-write and footer-commit failpoints (no partition loss, clean
// fallback to the previous commit), torn-footer fallback, and footer
// pruning.

#include <gtest/gtest.h>

#include <sys/stat.h>
#include <unistd.h>

#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "common/failpoint.h"
#include "common/time_utils.h"
#include "storage/database.h"
#include "storage/snapshot_append.h"

namespace aiql {
namespace {

Timestamp T0() { return *MakeTimestamp(2018, 5, 10); }

EventRecord Rec(AgentId agent, Timestamp start, const std::string& exe,
                const std::string& path) {
  EventRecord record;
  record.agent_id = agent;
  record.op = OpType::kWrite;
  record.start_ts = start;
  record.end_ts = start + kSecond;
  record.amount = 7;
  record.subject =
      ProcessRef{agent, static_cast<uint32_t>(100 + agent), exe, "root"};
  record.object = FileRef{agent, path};
  return record;
}

/// Sealed database with several (bucket, agent) partitions to demote.
AuditDatabase BuildSealedDb(int events_per_bucket = 25) {
  StorageOptions options;
  options.partition_duration = kHour;
  AuditDatabase db(options);
  for (AgentId agent = 1; agent <= 2; ++agent) {
    for (int hour = 0; hour < 3; ++hour) {
      for (int i = 0; i < events_per_bucket; ++i) {
        EXPECT_TRUE(db.Append(Rec(agent, T0() + hour * kHour + i * kMinute,
                                  "p" + std::to_string(agent),
                                  "/f" + std::to_string(i)))
                        .ok());
      }
    }
  }
  EXPECT_TRUE(db.Seal().ok());
  return db;
}

std::string ReadFile(const std::string& path) {
  std::string out;
  FILE* f = fopen(path.c_str(), "rb");
  if (f == nullptr) return out;
  char buffer[4096];
  size_t got;
  while ((got = fread(buffer, 1, sizeof(buffer), f)) > 0) {
    out.append(buffer, got);
  }
  fclose(f);
  return out;
}

bool EventsEqual(const Event& a, const Event& b) {
  return a.start_ts == b.start_ts && a.end_ts == b.end_ts &&
         a.amount == b.amount && a.subject == b.subject &&
         a.object == b.object && a.agent_id == b.agent_id &&
         a.merge_count == b.merge_count && a.op == b.op &&
         a.object_type == b.object_type;
}

class SnapshotAppendTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Failpoint::ClearAll();
    dir_ = std::string("/tmp/aiql_snapshot_append_test_") +
           std::to_string(reinterpret_cast<uintptr_t>(this));
    RemoveDir();
  }
  void TearDown() override {
    Failpoint::ClearAll();
    RemoveDir();
  }

  void RemoveDir() {
    std::remove((dir_ + "/DATA").c_str());
    for (uint64_t seq = 0; seq <= 64; ++seq) {
      std::remove(FooterPath(seq).c_str());
    }
    std::remove((dir_ + "/FOOTER.tmp").c_str());
    rmdir(dir_.c_str());
  }

  std::string FooterPath(uint64_t seq) const {
    return dir_ + "/FOOTER." + std::to_string(seq);
  }

  bool FooterExists(uint64_t seq) const {
    struct stat st;
    return stat(FooterPath(seq).c_str(), &st) == 0;
  }

  /// Appends every sealed partition of `db` and returns the dir entries.
  std::vector<snapfmt::PartitionDirEntry> AppendAll(
      SnapshotAppender* appender, const AuditDatabase& db) {
    std::vector<snapfmt::PartitionDirEntry> entries;
    for (const auto& [key, partition] : db.ListSealedPartitions()) {
      auto entry = appender->AppendPartition(
          std::get<0>(key), std::get<1>(key), std::get<2>(key), *partition);
      EXPECT_TRUE(entry.ok()) << entry.status().ToString();
      if (entry.ok()) entries.push_back(*entry);
    }
    return entries;
  }

  std::string dir_;
};

TEST_F(SnapshotAppendTest, AppendCommitReadBackRoundTrip) {
  AuditDatabase db = BuildSealedDb();
  auto sealed = db.ListSealedPartitions();
  ASSERT_FALSE(sealed.empty());

  auto appender = SnapshotAppender::Open(dir_);
  ASSERT_TRUE(appender.ok()) << appender.status().ToString();
  EXPECT_FALSE((*appender)->recovered().has_value());
  EXPECT_EQ((*appender)->footer_seq(), 0u);

  std::vector<snapfmt::PartitionDirEntry> entries =
      AppendAll(appender->get(), db);
  ASSERT_EQ(entries.size(), sealed.size());
  ASSERT_TRUE((*appender)
                  ->Commit(db.options(), db.stats(), db.entities(), entries)
                  .ok());
  EXPECT_EQ((*appender)->footer_seq(), 1u);

  // Read back every partition through the appender and compare rows.
  for (size_t i = 0; i < entries.size(); ++i) {
    auto loaded = (*appender)->ReadPartition(entries[i], db.entities());
    ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
    const EventPartition& got = **loaded;
    const EventPartition& want = *sealed[i].second;
    ASSERT_EQ(got.size(), want.size());
    for (size_t e = 0; e < want.size(); ++e) {
      EXPECT_TRUE(EventsEqual(got.Row(e), want.Row(e))) << "partition " << i
                                                        << " event " << e;
    }
    EXPECT_EQ(entries[i].events, want.size());
  }
}

TEST_F(SnapshotAppendTest, ReopenRecoversNewestCommit) {
  AuditDatabase db = BuildSealedDb();
  uint64_t expected_footer = 0;
  {
    auto appender = SnapshotAppender::Open(dir_);
    ASSERT_TRUE(appender.ok());
    auto entries = AppendAll(appender->get(), db);
    ASSERT_TRUE((*appender)
                    ->Commit(db.options(), db.stats(), db.entities(), entries)
                    .ok());
    // Second commit with the same directory: recovery must pick this one.
    ASSERT_TRUE((*appender)
                    ->Commit(db.options(), db.stats(), db.entities(), entries)
                    .ok());
    expected_footer = (*appender)->footer_seq();
  }

  auto reopened = SnapshotAppender::Open(dir_);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  ASSERT_TRUE((*reopened)->recovered().has_value());
  const SnapshotAppender::RecoveredState& state = *(*reopened)->recovered();
  EXPECT_EQ(state.footer_seq, expected_footer);
  EXPECT_EQ(state.partitions.size(), db.ListSealedPartitions().size());
  EXPECT_EQ(state.stats.total_events, db.stats().total_events);
  EXPECT_EQ(state.options.partition_duration,
            db.options().partition_duration);
  EXPECT_EQ(state.entities.processes(), db.entities().processes());

  // Every recovered partition reads back through the reopened appender.
  for (const snapfmt::PartitionDirEntry& entry : state.partitions) {
    auto loaded = (*reopened)->ReadPartition(entry, state.entities);
    ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
    EXPECT_EQ((*loaded)->size(), entry.events);
  }
}

TEST_F(SnapshotAppendTest, UncommittedAppendsInvisibleAfterReopen) {
  AuditDatabase db = BuildSealedDb();
  auto sealed = db.ListSealedPartitions();
  {
    auto appender = SnapshotAppender::Open(dir_);
    ASSERT_TRUE(appender.ok());
    // Commit only the first partition; append (but never commit) the rest.
    auto first = (*appender)->AppendPartition(
        std::get<0>(sealed[0].first), std::get<1>(sealed[0].first),
        std::get<2>(sealed[0].first), *sealed[0].second);
    ASSERT_TRUE(first.ok());
    ASSERT_TRUE((*appender)
                    ->Commit(db.options(), db.stats(), db.entities(), {*first})
                    .ok());
    for (size_t i = 1; i < sealed.size(); ++i) {
      ASSERT_TRUE((*appender)
                      ->AppendPartition(std::get<0>(sealed[i].first),
                                        std::get<1>(sealed[i].first),
                                        std::get<2>(sealed[i].first),
                                        *sealed[i].second)
                      .ok());
    }
  }
  auto reopened = SnapshotAppender::Open(dir_);
  ASSERT_TRUE(reopened.ok());
  ASSERT_TRUE((*reopened)->recovered().has_value());
  EXPECT_EQ((*reopened)->recovered()->partitions.size(), 1u);
}

TEST_F(SnapshotAppendTest, CommitFailpointFallsBackToPreviousFooter) {
  AuditDatabase db = BuildSealedDb();
  auto sealed = db.ListSealedPartitions();
  ASSERT_GE(sealed.size(), 2u);
  {
    auto appender = SnapshotAppender::Open(dir_);
    ASSERT_TRUE(appender.ok());
    auto entries = AppendAll(appender->get(), db);
    std::vector<snapfmt::PartitionDirEntry> first(entries.begin(),
                                                  entries.begin() + 1);
    ASSERT_TRUE((*appender)
                    ->Commit(db.options(), db.stats(), db.entities(), first)
                    .ok());

    // The injected crash point sits after the DATA fsync, before the new
    // footer becomes visible — the worst moment for a real crash.
    ASSERT_TRUE(
        Failpoint::Configure("retention.commit=error(IOError)").ok());
    Status failed =
        (*appender)->Commit(db.options(), db.stats(), db.entities(), entries);
    EXPECT_EQ(failed.code(), StatusCode::kIOError);
    Failpoint::ClearAll();
  }

  auto reopened = SnapshotAppender::Open(dir_);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  ASSERT_TRUE((*reopened)->recovered().has_value());
  const SnapshotAppender::RecoveredState& state = *(*reopened)->recovered();
  EXPECT_EQ(state.partitions.size(), 1u);
  // The committed partition survived intact — no partition loss.
  auto loaded = (*reopened)->ReadPartition(state.partitions[0],
                                           state.entities);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ((*loaded)->size(), sealed[0].second->size());

  // The directory stays writable: the next commit from the reopened
  // appender publishes everything.
  AuditDatabase db2 = BuildSealedDb();
  auto entries = AppendAll(reopened->get(), db2);
  ASSERT_TRUE((*reopened)
                  ->Commit(db2.options(), db2.stats(), db2.entities(), entries)
                  .ok());
}

TEST_F(SnapshotAppendTest, CorruptedDemotionWriteDetectedOnRead) {
  AuditDatabase db = BuildSealedDb();
  auto sealed = db.ListSealedPartitions();
  auto appender = SnapshotAppender::Open(dir_);
  ASSERT_TRUE(appender.ok());

  // The corrupt action flips one bit AFTER the checksum was computed, so
  // the segment lands on disk broken but carries a "clean" checksum ref.
  ASSERT_TRUE(
      Failpoint::Configure("retention.demote.write=corrupt@once").ok());
  auto entry = (*appender)->AppendPartition(
      std::get<0>(sealed[0].first), std::get<1>(sealed[0].first),
      std::get<2>(sealed[0].first), *sealed[0].second);
  ASSERT_TRUE(entry.ok()) << entry.status().ToString();
  auto loaded = (*appender)->ReadPartition(*entry, db.entities());
  EXPECT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kCorruption);

  // An injected write error aborts the append outright.
  ASSERT_TRUE(
      Failpoint::Configure("retention.demote.write=error(IOError)").ok());
  auto failed = (*appender)->AppendPartition(
      std::get<0>(sealed[1].first), std::get<1>(sealed[1].first),
      std::get<2>(sealed[1].first), *sealed[1].second);
  EXPECT_FALSE(failed.ok());
  EXPECT_EQ(failed.status().code(), StatusCode::kIOError);
}

TEST_F(SnapshotAppendTest, TornLatestFooterFallsBackToPrevious) {
  AuditDatabase db = BuildSealedDb();
  uint64_t last = 0;
  {
    auto appender = SnapshotAppender::Open(dir_);
    ASSERT_TRUE(appender.ok());
    auto entries = AppendAll(appender->get(), db);
    std::vector<snapfmt::PartitionDirEntry> first(entries.begin(),
                                                  entries.begin() + 1);
    ASSERT_TRUE((*appender)
                    ->Commit(db.options(), db.stats(), db.entities(), first)
                    .ok());
    ASSERT_TRUE((*appender)
                    ->Commit(db.options(), db.stats(), db.entities(), entries)
                    .ok());
    last = (*appender)->footer_seq();
  }
  // Tear the newest footer mid-file (a crashed rename/write).
  {
    FILE* f = fopen(FooterPath(last).c_str(), "r+b");
    ASSERT_NE(f, nullptr);
    fseek(f, 0, SEEK_END);
    long size = ftell(f);
    ASSERT_GT(size, 8);
    ASSERT_EQ(ftruncate(fileno(f), size / 2), 0);
    fclose(f);
  }
  auto reopened = SnapshotAppender::Open(dir_);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  ASSERT_TRUE((*reopened)->recovered().has_value());
  EXPECT_EQ((*reopened)->recovered()->footer_seq, last - 1);
  EXPECT_EQ((*reopened)->recovered()->partitions.size(), 1u);
}

TEST_F(SnapshotAppendTest, OtherFormatVersionWithCommitsIsRefusedUntouched) {
  AuditDatabase db = BuildSealedDb(5);
  {
    auto appender = SnapshotAppender::Open(dir_);
    ASSERT_TRUE(appender.ok());
    auto entries = AppendAll(appender->get(), db);
    ASSERT_TRUE((*appender)
                    ->Commit(db.options(), db.stats(), db.entities(), entries)
                    .ok());
  }
  // Rewrite the header's format version to 5, as a build writing varint
  // segment streams did.
  const uint32_t previous = 5;
  const std::string data_path = dir_ + "/DATA";
  {
    FILE* f = fopen(data_path.c_str(), "r+b");
    ASSERT_NE(f, nullptr);
    const char version[4] = {static_cast<char>(previous), 0, 0, 0};
    ASSERT_EQ(fseek(f, 8, SEEK_SET), 0);
    ASSERT_EQ(fwrite(version, 1, sizeof(version), f), sizeof(version));
    fclose(f);
  }
  const std::string before = ReadFile(data_path);
  ASSERT_GT(before.size(), snapfmt::kV2HeaderSize);

  auto reopened = SnapshotAppender::Open(dir_);
  ASSERT_FALSE(reopened.ok());
  EXPECT_EQ(reopened.status().code(), StatusCode::kCorruption);
  EXPECT_NE(reopened.status().message().find("version " +
                                             std::to_string(previous)),
            std::string::npos)
      << reopened.status().ToString();
  EXPECT_NE(reopened.status().message().find(
                "expected version " + std::to_string(snapfmt::kV2Version)),
            std::string::npos)
      << reopened.status().ToString();

  EXPECT_EQ(ReadFile(data_path), before);
}

TEST_F(SnapshotAppendTest, CommitPrunesOldFootersKeepingSafetyMargin) {
  AuditDatabase db = BuildSealedDb(5);
  auto appender = SnapshotAppender::Open(dir_);
  ASSERT_TRUE(appender.ok());
  auto entries = AppendAll(appender->get(), db);
  const uint64_t commits = SnapshotAppender::kKeepFooters + 4;
  for (uint64_t i = 0; i < commits; ++i) {
    ASSERT_TRUE((*appender)
                    ->Commit(db.options(), db.stats(), db.entities(), entries)
                    .ok());
  }
  EXPECT_EQ((*appender)->footer_seq(), commits);
  size_t present = 0;
  for (uint64_t seq = 1; seq <= commits; ++seq) {
    if (FooterExists(seq)) {
      ++present;
      EXPECT_GT(seq + SnapshotAppender::kKeepFooters, commits)
          << "footer " << seq << " should have been pruned";
    }
  }
  EXPECT_EQ(present, SnapshotAppender::kKeepFooters);
  EXPECT_TRUE(FooterExists(commits));
}

}  // namespace
}  // namespace aiql
