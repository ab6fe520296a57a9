// Unit tests for the storage engine: entity dedup, event merge-dedup,
// partitioning, statistics, scan selection, and snapshot persistence.

#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdio>
#include <filesystem>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "storage/database.h"
#include "storage/key_summary.h"
#include "storage/snapshot.h"
#include "storage/tiered.h"

namespace aiql {
namespace {

Timestamp T0() { return *MakeTimestamp(2018, 5, 10); }

EventRecord Rec(AgentId agent, OpType op, Timestamp start, uint64_t amount,
                std::string exe, ObjectRef object) {
  EventRecord record;
  record.agent_id = agent;
  record.op = op;
  record.start_ts = start;
  record.end_ts = start + kSecond;
  record.amount = amount;
  record.subject = ProcessRef{agent, 100, std::move(exe), "root"};
  record.object = std::move(object);
  return record;
}

TEST(EntityStoreTest, DeduplicatesEntities) {
  EntityStore store;
  ProcessRef p1{1, 100, "cmd.exe", "root"};
  EXPECT_EQ(store.InternProcess(p1), store.InternProcess(p1));
  EXPECT_EQ(store.processes().size(), 1u);
  // Different pid -> different entity.
  ProcessRef p2{1, 101, "cmd.exe", "root"};
  EXPECT_NE(store.InternProcess(p1), store.InternProcess(p2));
  // Same path on another agent -> different file entity.
  EXPECT_NE(store.InternFile(FileRef{1, "/etc/passwd"}),
            store.InternFile(FileRef{2, "/etc/passwd"}));
  EXPECT_EQ(store.paths().size(), 1u);  // but the string is interned once
}

TEST(EntityStoreTest, AttributeIndexLookups) {
  EntityStore store;
  store.InternProcess(ProcessRef{1, 1, "C:\\Windows\\cmd.exe", "root"});
  store.InternProcess(ProcessRef{1, 2, "C:\\Windows\\powershell.exe", "x"});
  store.InternProcess(ProcessRef{2, 3, "C:\\Windows\\cmd.exe", "y"});
  auto matches = store.FindProcessesByExe(LikeMatcher("%cmd.exe"));
  EXPECT_EQ(matches.size(), 2u);
  auto none = store.FindProcessesByExe(LikeMatcher("%bash%"));
  EXPECT_TRUE(none.empty());
}

TEST(DedupTest, MergesRepeatedEventsWithinWindow) {
  StorageOptions options;
  options.dedup_window = 3 * kSecond;
  AuditDatabase db(options);
  FileRef file{1, "/var/log/app.log"};
  // Ten 1-second writes back-to-back: merge into one event.
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(
        db.Append(Rec(1, OpType::kWrite, T0() + i * kSecond, 100, "a", file))
            .ok());
  }
  db.Seal();
  EXPECT_EQ(db.stats().raw_events, 10u);
  EXPECT_EQ(db.stats().total_events, 1u);
  const auto& partition = *db.partitions().begin()->second;
  ASSERT_EQ(partition.size(), 1u);
  EXPECT_EQ(partition.Row(0).amount, 1000u);  // amounts accumulate
  EXPECT_EQ(partition.Row(0).merge_count, 10u);
  EXPECT_EQ(partition.Row(0).end_ts, T0() + 9 * kSecond + kSecond);
}

TEST(DedupTest, GapBeyondWindowSplitsEvents) {
  StorageOptions options;
  options.dedup_window = 2 * kSecond;
  AuditDatabase db(options);
  FileRef file{1, "/tmp/x"};
  ASSERT_TRUE(db.Append(Rec(1, OpType::kWrite, T0(), 10, "a", file)).ok());
  ASSERT_TRUE(
      db.Append(Rec(1, OpType::kWrite, T0() + 10 * kSecond, 10, "a", file))
          .ok());
  db.Seal();
  EXPECT_EQ(db.stats().total_events, 2u);
}

TEST(DedupTest, GapNearTimestampLimitsDoesNotOverflow) {
  // start - tail.end would overflow int64 in both directions; the gap is
  // compared without forming it (UBSan flags the subtraction otherwise).
  StorageOptions options;
  options.dedup_window = 2 * kSecond;
  AuditDatabase db(options);
  FileRef file{1, "/tmp/far"};
  EventRecord wide = Rec(1, OpType::kWrite, -5'000'000'000'000'000'000, 10,
                         "a", file);
  wide.end_ts = INT64_MAX;
  ASSERT_TRUE(db.Append(wide).ok());
  // Starts inside the open-ended interval: merges.
  ASSERT_TRUE(db.Append(Rec(1, OpType::kWrite, wide.start_ts, 5, "a", file))
                  .ok());
  ASSERT_TRUE(db.Seal().ok());
  EXPECT_EQ(db.stats().raw_events, 2u);
  ASSERT_EQ(db.stats().total_events, 1u);
  const EventPartition& merged = *db.partitions().begin()->second;
  EXPECT_EQ(merged.Row(0).merge_count, 2u);
  EXPECT_EQ(merged.Row(0).amount, 15u);
  EXPECT_EQ(merged.Row(0).end_ts, INT64_MAX);

  // A gap wider than INT64_MAX never merges.
  EventPartition partition;
  Event early;
  early.start_ts = INT64_MIN + 1;
  early.end_ts = -5'000'000'000'000'000'000;
  Event late = early;
  late.start_ts = 5'000'000'000'000'000'000;
  late.end_ts = late.start_ts;
  EXPECT_FALSE(partition.Append(early, 2 * kSecond));
  EXPECT_FALSE(partition.Append(late, 2 * kSecond));
  partition.Seal();
  EXPECT_EQ(partition.size(), 2u);
  EXPECT_EQ(partition.raw_event_count(), 2u);
}

TEST(DedupTest, DifferentKeysNeverMerge) {
  StorageOptions options;
  options.dedup_window = 10 * kSecond;
  AuditDatabase db(options);
  ASSERT_TRUE(
      db.Append(Rec(1, OpType::kWrite, T0(), 1, "a", FileRef{1, "/f1"}))
          .ok());
  ASSERT_TRUE(
      db.Append(Rec(1, OpType::kWrite, T0() + kSecond, 1, "a",
                    FileRef{1, "/f2"}))
          .ok());
  ASSERT_TRUE(db.Append(Rec(1, OpType::kRead, T0() + 2 * kSecond, 1, "a",
                            FileRef{1, "/f1"}))
                  .ok());
  db.Seal();
  EXPECT_EQ(db.stats().total_events, 3u);
}

TEST(PartitionTest, TimeAndAgentPartitioning) {
  StorageOptions options;
  options.partition_duration = kHour;
  options.dedup_window = 0;
  AuditDatabase db(options);
  // Two agents x three hours.
  for (AgentId agent : {1u, 2u}) {
    for (int hour = 0; hour < 3; ++hour) {
      ASSERT_TRUE(db.Append(Rec(agent, OpType::kWrite, T0() + hour * kHour,
                                1, "a", FileRef{agent, "/f"}))
                      .ok());
    }
  }
  db.Seal();
  EXPECT_EQ(db.stats().total_partitions, 6u);

  ReadView view = db.OpenReadView();
  // Agent pruning.
  auto only_agent1 = view.SelectPartitions(TimeRange{INT64_MIN, INT64_MAX},
                                           std::vector<AgentId>{1}, kAllOps);
  ASSERT_TRUE(only_agent1.ok());
  EXPECT_EQ(only_agent1->size(), 3u);
  // Time pruning.
  auto first_hour = view.SelectPartitions(TimeRange{T0(), T0() + kHour},
                                          std::nullopt, kAllOps);
  ASSERT_TRUE(first_hour.ok());
  EXPECT_EQ(first_hour->size(), 2u);
}

TEST(PartitionTest, EventEndingAtTimelineEndKeepsItsPartition) {
  // The overlap test once formed max_ts + 1, which overflows when an event
  // ends at INT64_MAX and hid the whole partition from every query.
  StorageOptions options;
  options.dedup_window = 0;
  AuditDatabase db(options);
  EventRecord open_ended =
      Rec(1, OpType::kWrite, T0(), 1, "a", FileRef{1, "/forever"});
  open_ended.end_ts = INT64_MAX;
  ASSERT_TRUE(db.Append(open_ended).ok());
  ASSERT_TRUE(db.Append(Rec(1, OpType::kWrite, T0() + kSecond, 1, "a",
                            FileRef{1, "/brief"}))
                  .ok());
  ASSERT_TRUE(db.Seal().ok());
  const TimeRange day{T0(), T0() + kDay};
  ReadView view = db.OpenReadView();
  auto selected = view.SelectPartitions(day, std::nullopt, kAllOps);
  ASSERT_TRUE(selected.ok()) << selected.status().ToString();
  ASSERT_EQ(selected->size(), 1u);
  EXPECT_EQ((*selected)[0].second->size(), 2u);
  // A range that opens after both starts still overlaps the open end.
  auto late = view.SelectPartitions(TimeRange{T0() + kDay, INT64_MAX},
                                    std::nullopt, kAllOps);
  ASSERT_TRUE(late.ok());
  EXPECT_EQ(late->size(), 1u);

  // The same directory statistics persist and select from a snapshot.
  const std::string path = "/tmp/aiql_storage_test_open_ended_" +
                           std::to_string(static_cast<long>(getpid()));
  ASSERT_TRUE(SaveSnapshot(db, path).ok());
  auto store = SnapshotStore::Open(path);
  ASSERT_TRUE(store.ok()) << store.status().ToString();
  ReadView cold = (*store)->OpenReadView();
  auto from_snapshot = cold.SelectPartitions(day, std::nullopt, kAllOps);
  ASSERT_TRUE(from_snapshot.ok()) << from_snapshot.status().ToString();
  ASSERT_EQ(from_snapshot->size(), 1u);
  EXPECT_EQ((*from_snapshot)[0].second->size(), 2u);
  std::remove(path.c_str());
}

/// Hour 0 holds only writes to /w, hour 1 only reads of /r (agent 1).
std::vector<EventRecord> SplitOpRecords() {
  return {Rec(1, OpType::kWrite, T0(), 1, "a", FileRef{1, "/w"}),
          Rec(1, OpType::kWrite, T0() + kMinute, 1, "a", FileRef{1, "/w"}),
          Rec(1, OpType::kRead, T0() + kHour, 1, "a", FileRef{1, "/r"}),
          Rec(1, OpType::kRead, T0() + kHour + kMinute, 1, "a",
              FileRef{1, "/r"})};
}

TEST(PartitionTest, SelectionPrunesOnDirectoryStatistics) {
  StorageOptions options;
  options.dedup_window = 0;
  AuditDatabase db(options);
  ASSERT_TRUE(db.AppendBatch(SplitOpRecords()).ok());
  ASSERT_TRUE(db.Seal().ok());
  const std::string path = "/tmp/aiql_storage_test_prune_" +
                           std::to_string(static_cast<long>(getpid()));
  ASSERT_TRUE(SaveSnapshot(db, path).ok());
  auto store = SnapshotStore::Open(path);
  ASSERT_TRUE(store.ok()) << store.status().ToString();
  RetentionOptions retention;
  retention.dir = path + ".tiered";
  retention.hot_buckets = -1;
  auto tiered = TieredStore::Create(options, retention);
  ASSERT_TRUE(tiered.ok()) << tiered.status().ToString();
  ASSERT_TRUE((*tiered)->AppendBatch(SplitOpRecords()).ok());
  ASSERT_TRUE((*tiered)->Seal().ok());
  ASSERT_TRUE((*tiered)->CompactOnce().ok());
  ASSERT_EQ((*tiered)->stats().cold_partitions, 2u);

  const EntityStore& entities = db.entities();
  const EntityId w = entities.FindFile(FileRef{1, "/w"});
  const EntityId r = entities.FindFile(FileRef{1, "/r"});
  ASSERT_NE(w, kInvalidEntityId);
  ASSERT_NE(r, kInvalidEntityId);
  // One summary key group per file list.
  auto file_groups = [](std::vector<std::vector<EntityId>> files) {
    SummaryKeyGroups groups;
    for (std::vector<EntityId>& group : files) {
      groups.Add([group = std::move(group)](std::vector<uint64_t>* keys) {
        for (EntityId id : group) {
          keys->push_back(ObjectSummaryKey(EntityType::kFile, id));
        }
      });
    }
    return groups;
  };
  const TimeRange all{INT64_MIN, INT64_MAX};
  struct Backing {
    const char* name;
    ReadView view;
    bool cold;
  };
  std::vector<Backing> backings;
  backings.push_back({"database", db.OpenReadView(), false});
  backings.push_back({"snapshot", (*store)->OpenReadView(), true});
  backings.push_back({"tiered", (*tiered)->OpenReadView(), true});
  for (const Backing& backing : backings) {
    SCOPED_TRACE(backing.name);
    auto buckets = [&](OpMask ops, SummaryKeyGroups* keys) {
      std::vector<int64_t> out;
      auto selected =
          backing.view.SelectPartitions(all, std::nullopt, ops, keys);
      EXPECT_TRUE(selected.ok()) << selected.status().ToString();
      if (selected.ok()) {
        for (const auto& [key, partition] : *selected) {
          out.push_back(key.bucket);
        }
      }
      return out;
    };
    const int64_t hour0 = T0() / kHour;
    EXPECT_EQ(buckets(kAllOps, nullptr),
              (std::vector<int64_t>{hour0, hour0 + 1}));
    EXPECT_EQ(buckets(OpBit(OpType::kWrite), nullptr),
              std::vector<int64_t>{hour0});
    EXPECT_EQ(buckets(OpBit(OpType::kRead) | OpBit(OpType::kExecute), nullptr),
              std::vector<int64_t>{hour0 + 1});
    EXPECT_TRUE(buckets(OpBit(OpType::kConnect), nullptr).empty());
    // A hop for /w: a cold partition's summary rules hour 1 out; resident
    // partitions carry no summary and are probed exactly by the hop.
    const std::vector<int64_t> both{hour0, hour0 + 1};
    const std::vector<int64_t> hop_w =
        backing.cold ? std::vector<int64_t>{hour0} : both;
    SummaryKeyGroups only_w = file_groups({{w}});
    EXPECT_EQ(buckets(kAllOps, &only_w), hop_w);
    // A group matches on any of its keys; a partition must match every
    // group, so /w and /r as two groups rule out both cold partitions.
    SummaryKeyGroups w_or_r = file_groups({{w, r}});
    EXPECT_EQ(buckets(kAllOps, &w_or_r), both);
    SummaryKeyGroups w_and_r = file_groups({{w}, {r}});
    EXPECT_EQ(buckets(kAllOps, &w_and_r),
              backing.cold ? std::vector<int64_t>{} : both);
    // An empty group rules out every cold partition.
    SummaryKeyGroups none = file_groups({{}});
    EXPECT_EQ(buckets(kAllOps, &none),
              backing.cold ? std::vector<int64_t>{} : both);
  }
  backings.clear();
  tiered->reset();
  std::filesystem::remove_all(retention.dir);
  std::remove(path.c_str());
}


TEST(PartitionTest, HostileAgentIdsSelectExactlyTheirPartitions) {
  // Agents restrict a query only through partition selection, so ids at
  // the top of the 32-bit range must select exactly their own partitions,
  // from the live database and from persisted directories alike.
  const std::vector<AgentId> agents = {1, 4000000000u, UINT32_MAX};
  std::vector<EventRecord> records;
  for (AgentId agent : agents) {
    for (int hour = 0; hour < 2; ++hour) {
      records.push_back(Rec(agent, OpType::kWrite, T0() + hour * kHour, 1,
                            "a", FileRef{agent, "/f"}));
    }
  }
  StorageOptions options;
  options.dedup_window = 0;
  AuditDatabase db(options);
  ASSERT_TRUE(db.AppendBatch(records).ok());
  ASSERT_TRUE(db.Seal().ok());
  const std::string path = "/tmp/aiql_storage_test_hostile_agents_" +
                           std::to_string(static_cast<long>(getpid()));
  ASSERT_TRUE(SaveSnapshot(db, path).ok());
  auto store = SnapshotStore::Open(path);
  ASSERT_TRUE(store.ok()) << store.status().ToString();
  RetentionOptions retention;
  retention.dir = path + ".tiered";
  retention.hot_buckets = -1;
  auto tiered = TieredStore::Create(options, retention);
  ASSERT_TRUE(tiered.ok()) << tiered.status().ToString();
  ASSERT_TRUE((*tiered)->AppendBatch(records).ok());
  ASSERT_TRUE((*tiered)->Seal().ok());
  ASSERT_TRUE((*tiered)->CompactOnce().ok());
  ASSERT_EQ((*tiered)->stats().cold_partitions, 6u);

  const std::vector<AgentId> wanted = {4000000000u, UINT32_MAX};
  const int64_t hour0 = T0() / kHour;
  const std::vector<PartitionKey> expected = {
      {hour0, 4000000000u}, {hour0, UINT32_MAX},
      {hour0 + 1, 4000000000u}, {hour0 + 1, UINT32_MAX}};
  std::vector<std::pair<const char*, ReadView>> backings;
  backings.emplace_back("database", db.OpenReadView());
  backings.emplace_back("snapshot", (*store)->OpenReadView());
  backings.emplace_back("tiered", (*tiered)->OpenReadView());
  for (const auto& [name, view] : backings) {
    SCOPED_TRACE(name);
    auto selected = view.SelectPartitions(TimeRange{INT64_MIN, INT64_MAX},
                                          wanted, kAllOps);
    ASSERT_TRUE(selected.ok()) << selected.status().ToString();
    std::vector<PartitionKey> keys;
    for (const auto& [key, partition] : *selected) {
      keys.push_back(key);
      EXPECT_EQ(partition->agent_id(), key.agent_id);
      ASSERT_EQ(partition->size(), 1u);
      EXPECT_EQ(partition->Row(0).agent_id, key.agent_id);
    }
    EXPECT_EQ(keys, expected);
  }
  backings.clear();
  tiered->reset();
  std::filesystem::remove_all(retention.dir);
  std::remove(path.c_str());
}

TEST(PartitionTest, SealedPartitionIsSortedAndSearchable) {
  StorageOptions options;
  options.dedup_window = 0;
  AuditDatabase db(options);
  // Out-of-order arrival within one partition.
  for (int i : {5, 1, 3, 2, 4}) {
    ASSERT_TRUE(db.Append(Rec(1, OpType::kWrite, T0() + i * kMinute, 1, "a",
                              FileRef{1, "/f"}))
                    .ok());
  }
  db.Seal();
  const auto& partition = *db.partitions().begin()->second;
  for (size_t i = 1; i < partition.size(); ++i) {
    EXPECT_LE(partition.Row(i - 1).start_ts,
              partition.Row(i).start_ts);
  }
  EXPECT_EQ(partition.LowerBound(T0() + 3 * kMinute), 2u);
  EXPECT_EQ(partition.LowerBound(T0() + 10 * kMinute), 5u);
}

TEST(StorageTest, RejectsMalformedRecords) {
  AuditDatabase db;
  EventRecord bad = Rec(1, OpType::kWrite, T0(), 1, "a", FileRef{1, "/f"});
  bad.end_ts = bad.start_ts - 1;
  EXPECT_FALSE(db.Append(bad).ok());

  EventRecord no_exe = Rec(1, OpType::kWrite, T0(), 1, "", FileRef{1, "/f"});
  EXPECT_FALSE(db.Append(no_exe).ok());

  db.Seal();
  EXPECT_FALSE(
      db.Append(Rec(1, OpType::kWrite, T0(), 1, "a", FileRef{1, "/f"})).ok());
}

TEST(StorageTest, OpStatisticsTracked) {
  StorageOptions options;
  options.dedup_window = 0;
  AuditDatabase db(options);
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(db.Append(Rec(1, OpType::kRead, T0() + i * kMinute, 1,
                              "reader", FileRef{1, "/f"}))
                    .ok());
  }
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(db.Append(Rec(1, OpType::kWrite, T0() + i * kMinute, 1,
                              "writer", FileRef{1, "/f"}))
                    .ok());
  }
  db.Seal();
  EXPECT_EQ(db.stats().op_counts[static_cast<int>(OpType::kRead)], 5u);
  EXPECT_EQ(db.stats().op_counts[static_cast<int>(OpType::kWrite)], 3u);
  const auto& partition = *db.partitions().begin()->second;
  StringId reader = db.entities().exe_names().Lookup("reader");
  ASSERT_NE(reader, kInvalidStringId);
  EXPECT_EQ(partition.SubjectExeCount(reader), 5u);
}

class SnapshotTest : public ::testing::Test {
 protected:
  void SetUp() override {
    path_ = std::string("/tmp/aiql_snapshot_test_") +
            std::to_string(reinterpret_cast<uintptr_t>(this)) + ".snap";
  }
  void TearDown() override { std::remove(path_.c_str()); }
  std::string path_;
};

TEST_F(SnapshotTest, RoundTripPreservesEverything) {
  StorageOptions options;
  options.partition_duration = 30 * kMinute;
  AuditDatabase db(options);
  for (int i = 0; i < 200; ++i) {
    AgentId agent = 1 + (i % 3);
    ASSERT_TRUE(db.Append(Rec(agent, i % 2 == 0 ? OpType::kRead
                                                : OpType::kWrite,
                              T0() + i * kMinute, 10 + i,
                              "proc" + std::to_string(i % 7),
                              FileRef{agent, "/data/f" +
                                                 std::to_string(i % 11)}))
                    .ok());
  }
  db.Seal();
  ASSERT_TRUE(SaveSnapshot(db, path_).ok());

  auto loaded = LoadSnapshot(path_);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->stats().total_events, db.stats().total_events);
  EXPECT_EQ(loaded->stats().total_partitions, db.stats().total_partitions);
  EXPECT_EQ(loaded->entities().processes().size(),
            db.entities().processes().size());
  EXPECT_EQ(loaded->entities().files().size(), db.entities().files().size());
  EXPECT_TRUE(loaded->sealed());

  // Spot-check event equality partition by partition.
  auto orig_it = db.partitions().begin();
  auto load_it = loaded->partitions().begin();
  for (; orig_it != db.partitions().end(); ++orig_it, ++load_it) {
    ASSERT_EQ(orig_it->first, load_it->first);
    ASSERT_EQ(orig_it->second->size(), load_it->second->size());
    for (size_t i = 0; i < orig_it->second->size(); ++i) {
      const Event a = orig_it->second->Row(i);
      const Event b = load_it->second->Row(i);
      EXPECT_EQ(a.start_ts, b.start_ts);
      EXPECT_EQ(a.subject, b.subject);
      EXPECT_EQ(a.object, b.object);
      EXPECT_EQ(a.amount, b.amount);
    }
  }
}

TEST_F(SnapshotTest, RefusesUnsealedDatabase) {
  AuditDatabase db;
  ASSERT_TRUE(
      db.Append(Rec(1, OpType::kWrite, T0(), 1, "a", FileRef{1, "/f"})).ok());
  EXPECT_FALSE(SaveSnapshot(db, path_).ok());
}

TEST_F(SnapshotTest, DetectsCorruption) {
  AuditDatabase db;
  for (int i = 0; i < 50; ++i) {
    ASSERT_TRUE(db.Append(Rec(1, OpType::kWrite, T0() + i * kMinute, 1, "a",
                              FileRef{1, "/f"}))
                    .ok());
  }
  db.Seal();
  ASSERT_TRUE(SaveSnapshot(db, path_).ok());

  // Flip one byte in the middle.
  FILE* file = std::fopen(path_.c_str(), "r+b");
  ASSERT_NE(file, nullptr);
  std::fseek(file, 100, SEEK_SET);
  int c = std::fgetc(file);
  std::fseek(file, 100, SEEK_SET);
  std::fputc(c ^ 0xFF, file);
  std::fclose(file);

  auto loaded = LoadSnapshot(path_);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kCorruption);
}

TEST_F(SnapshotTest, RejectsMissingAndForeignFiles) {
  EXPECT_EQ(LoadSnapshot("/tmp/does_not_exist.snap").status().code(),
            StatusCode::kIOError);
  FILE* file = std::fopen(path_.c_str(), "wb");
  std::fputs("this is not a snapshot", file);
  std::fclose(file);
  EXPECT_EQ(LoadSnapshot(path_).status().code(), StatusCode::kCorruption);
}

}  // namespace
}  // namespace aiql
