// Tests for the sealed-partition read-path artifacts: the columnar view,
// per-operation posting lists with zone maps, time-clipped op counts,
// LowerBound edge cases, and the zero-copy pattern scan.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <map>
#include <string>
#include <tuple>
#include <vector>

#include "common/rng.h"
#include "engine/scan.h"
#include "storage/database.h"
#include "storage/snapshot.h"

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

/// A deterministic mixed-op database: several agents, several ops, several
/// hours, no dedup so row counts are predictable.
AuditDatabase MixedDatabase() {
  StorageOptions options;
  options.dedup_window = 0;
  AuditDatabase db(options);
  const OpType ops[] = {OpType::kRead, OpType::kWrite, OpType::kExecute,
                        OpType::kConnect};
  Rng rng(7);
  for (int i = 0; i < 500; ++i) {
    AgentId agent = 1 + (i % 3);
    OpType op = ops[rng.Uniform(4)];
    Timestamp start = T0() + static_cast<Duration>(rng.Uniform(5 * kHour));
    EXPECT_TRUE(db.Append(Rec(agent, op, start, 1 + i,
                              "exe" + std::to_string(i % 4),
                              FileRef{agent, "/f" + std::to_string(i % 9)}))
                    .ok());
  }
  db.Seal();
  return db;
}

TEST(ColumnarSealTest, ColumnsMirrorRowsAfterSeal) {
  AuditDatabase db = MixedDatabase();
  for (const auto& [key, partition] : db.partitions()) {
    ASSERT_TRUE(partition->sealed());
    const EventColumns& cols = partition->columns();
    ASSERT_EQ(cols.size(), partition->size());
    for (size_t i = 0; i < partition->size(); ++i) {
      const Event& row = partition->events()[i];
      EXPECT_EQ(cols.start_ts[i], row.start_ts);
      EXPECT_EQ(cols.end_ts[i], row.end_ts);
      EXPECT_EQ(cols.subject[i], row.subject);
      EXPECT_EQ(cols.object[i], row.object);
      EXPECT_EQ(cols.agent_id[i], row.agent_id);
      EXPECT_EQ(cols.amount[i], row.amount);
      EXPECT_EQ(cols.op[i], row.op);
      EXPECT_EQ(cols.object_type[i], row.object_type);
    }
  }
}

TEST(ColumnarSealTest, PostingListsMatchBruteForceScan) {
  AuditDatabase db = MixedDatabase();
  for (const auto& [key, partition] : db.partitions()) {
    for (int op = 0; op < kNumOpTypes; ++op) {
      const OpPostingList& list = partition->posting(static_cast<OpType>(op));
      // Brute force: indexes of every event with this op, ascending.
      std::vector<uint32_t> expected;
      Timestamp min_start = INT64_MAX, max_start = INT64_MIN;
      for (size_t i = 0; i < partition->size(); ++i) {
        const Event& event = partition->events()[i];
        if (event.op != static_cast<OpType>(op)) continue;
        expected.push_back(static_cast<uint32_t>(i));
        min_start = std::min(min_start, event.start_ts);
        max_start = std::max(max_start, event.start_ts);
      }
      EXPECT_EQ(list.indexes, expected);
      EXPECT_EQ(list.size(), partition->OpCount(static_cast<OpType>(op)));
      if (!expected.empty()) {
        EXPECT_EQ(list.min_start_ts, min_start);
        EXPECT_EQ(list.max_start_ts, max_start);
      }
    }
  }
}

TEST(ColumnarSealTest, OpCountInRangeMatchesBruteForce) {
  AuditDatabase db = MixedDatabase();
  const TimeRange ranges[] = {
      {INT64_MIN, INT64_MAX},
      {T0() + kHour, T0() + 2 * kHour},
      {T0() - kDay, T0()},            // entirely before the data
      {T0() + 10 * kHour, INT64_MAX}  // entirely after the data
  };
  const OpMask masks[] = {OpBit(OpType::kRead),
                          OpBit(OpType::kRead) | OpBit(OpType::kWrite),
                          OpBit(OpType::kConnect) | OpBit(OpType::kAccept),
                          static_cast<OpMask>(0x1FF)};
  for (const auto& [key, partition] : db.partitions()) {
    for (const TimeRange& range : ranges) {
      for (OpMask mask : masks) {
        uint64_t expected = 0;
        for (const Event& event : partition->events()) {
          if (OpMaskContains(mask, event.op) && range.Contains(event.start_ts))
            ++expected;
        }
        EXPECT_EQ(partition->OpCountInRange(mask, range), expected)
            << "mask=" << mask << " range=[" << range.start << ","
            << range.end << ")";
      }
    }
  }
}

TEST(ColumnarSealTest, SealArtifactsSurviveSnapshotRoundTrip) {
  // MixedDatabase appends in random time order, so bucket rotation splits
  // (bucket, agent) pairs into rollover partitions; the v2 snapshot format
  // round-trips each physical partition 1:1 (that is what makes lazy
  // per-partition loading possible). Every decoded artifact must equal the
  // hot partition's, and so must the memory footprint the partition cache
  // charges for it.
  AuditDatabase db = MixedDatabase();
  std::string path = "/tmp/aiql_columnar_roundtrip_test.snap";
  ASSERT_TRUE(SaveSnapshot(db, path).ok());
  auto loaded = LoadSnapshot(path);
  std::remove(path.c_str());
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->stats().total_events, db.stats().total_events);

  auto event_key = [](const Event& e) {
    return std::tuple(e.start_ts, e.end_ts, e.subject, e.object, e.agent_id,
                      e.amount, e.merge_count, static_cast<int>(e.op),
                      static_cast<int>(e.object_type));
  };
  auto expect_index_eq = [](const EntityPostingIndex& actual,
                            const EntityPostingIndex& expected) {
    EXPECT_EQ(actual.keys, expected.keys);
    EXPECT_EQ(actual.offsets, expected.offsets);
    EXPECT_EQ(actual.indexes, expected.indexes);
  };
  ASSERT_EQ(loaded->partitions().size(), db.partitions().size());
  auto orig_it = db.partitions().begin();
  for (const auto& [key, partition] : loaded->partitions()) {
    ASSERT_TRUE(partition->sealed());
    ASSERT_EQ(key, orig_it->first);
    const EventPartition& hot = *orig_it->second;
    ++orig_it;
    ASSERT_EQ(partition->size(), hot.size());
    for (size_t i = 0; i < hot.size(); ++i) {
      EXPECT_EQ(event_key(partition->events()[i]), event_key(hot.events()[i]));
    }

    const EventColumns& cols = partition->columns();
    const EventColumns& hot_cols = hot.columns();
    EXPECT_EQ(cols.start_ts, hot_cols.start_ts);
    EXPECT_EQ(cols.end_ts, hot_cols.end_ts);
    EXPECT_EQ(cols.subject, hot_cols.subject);
    EXPECT_EQ(cols.object, hot_cols.object);
    EXPECT_EQ(cols.agent_id, hot_cols.agent_id);
    EXPECT_EQ(cols.amount, hot_cols.amount);
    EXPECT_EQ(cols.op, hot_cols.op);
    EXPECT_EQ(cols.object_type, hot_cols.object_type);

    for (int op = 0; op < kNumOpTypes; ++op) {
      const OpPostingList& list = partition->posting(static_cast<OpType>(op));
      const OpPostingList& hot_list = hot.posting(static_cast<OpType>(op));
      EXPECT_EQ(list.indexes, hot_list.indexes);
      EXPECT_EQ(list.min_start_ts, hot_list.min_start_ts);
      EXPECT_EQ(list.max_start_ts, hot_list.max_start_ts);
      EXPECT_EQ(partition->OpCount(static_cast<OpType>(op)),
                hot.OpCount(static_cast<OpType>(op)));
    }
    EXPECT_EQ(partition->min_ts(), hot.min_ts());
    EXPECT_EQ(partition->max_ts(), hot.max_ts());
    expect_index_eq(partition->subject_index(), hot.subject_index());
    expect_index_eq(partition->object_index(), hot.object_index());
    EXPECT_EQ(partition->subject_exe_counts(), hot.subject_exe_counts());
    EXPECT_EQ(partition->raw_event_count(), hot.raw_event_count());
    EXPECT_EQ(partition->MemoryFootprint(), hot.MemoryFootprint());
    EXPECT_EQ(partition->OpCountInRange(0x1FF, TimeRange{INT64_MIN, INT64_MAX}),
              partition->size());
  }
}

TEST(LowerBoundTest, EmptyPartition) {
  EventPartition partition;
  partition.Seal();
  EXPECT_EQ(partition.LowerBound(INT64_MIN), 0u);
  EXPECT_EQ(partition.LowerBound(0), 0u);
  EXPECT_EQ(partition.LowerBound(INT64_MAX), 0u);
  EXPECT_EQ(partition.OpCountInRange(0x1FF, TimeRange{INT64_MIN, INT64_MAX}),
            0u);
}

TEST(LowerBoundTest, BeforeBetweenAndAfterAllEvents) {
  EventPartition partition;
  Event event;
  event.op = OpType::kRead;
  for (Timestamp t : {10, 20, 30}) {
    event.start_ts = t * kSecond;
    event.end_ts = t * kSecond + 1;
    partition.Append(event, 0);
  }
  partition.Seal();
  EXPECT_EQ(partition.LowerBound(0), 0u);                  // before all
  EXPECT_EQ(partition.LowerBound(10 * kSecond), 0u);       // first event
  EXPECT_EQ(partition.LowerBound(10 * kSecond + 1), 1u);   // between
  EXPECT_EQ(partition.LowerBound(30 * kSecond), 2u);       // last event
  EXPECT_EQ(partition.LowerBound(30 * kSecond + 1), 3u);   // after all
  EXPECT_EQ(partition.LowerBound(INT64_MAX), 3u);
}

// --- zero-copy scan ---------------------------------------------------------

CompiledPattern PatternFor(OpMask mask, EntityType object_type) {
  CompiledPattern pattern;
  pattern.op_mask = mask;
  pattern.subject.type = EntityType::kProcess;
  pattern.object.type = object_type;
  return pattern;
}

TEST(ZeroCopyScanTest, MatchesAliasPartitionStorage) {
  AuditDatabase db = MixedDatabase();
  CompiledPattern pattern =
      PatternFor(OpBit(OpType::kRead) | OpBit(OpType::kConnect),
                 EntityType::kFile);
  TimeRange range{T0(), T0() + 3 * kHour};
  for (const auto& [key, partition] : db.partitions()) {
    std::vector<const Event*> out;
    ScanPartition(*partition, pattern, range, nullptr, false, &out);
    const Event* base = partition->events().data();
    const Event* limit = base + partition->events().size();
    for (const Event* match : out) {
      // Pointer identity: every match points into partition.events().
      ASSERT_GE(match, base);
      ASSERT_LT(match, limit);
      size_t index = static_cast<size_t>(match - base);
      EXPECT_EQ(match, &partition->events()[index]);
    }
  }
}

TEST(ZeroCopyScanTest, AgreesWithBruteForceRowScan) {
  AuditDatabase db = MixedDatabase();
  const TimeRange range{T0() + 30 * kMinute, T0() + 4 * kHour};
  const OpMask masks[] = {OpBit(OpType::kExecute),  // rare op: posting path
                          static_cast<OpMask>(0x1FF)};  // all: columnar path
  for (OpMask mask : masks) {
    CompiledPattern pattern = PatternFor(mask, EntityType::kFile);
    for (const auto& [key, partition] : db.partitions()) {
      std::vector<const Event*> out;
      ScanPartition(*partition, pattern, range, nullptr, false, &out);
      std::vector<const Event*> expected;
      for (const Event& event : partition->events()) {
        if (range.Contains(event.start_ts) &&
            OpMaskContains(mask, event.op) &&
            event.object_type == EntityType::kFile) {
          expected.push_back(&event);
        }
      }
      // Same matches, same (ascending index) order, same addresses.
      EXPECT_EQ(out, expected);
    }
  }
}

TEST(ZeroCopyScanTest, UnsealedPartitionFallsBackToRowScan) {
  EventPartition partition;
  Event event;
  event.op = OpType::kWrite;
  event.object_type = EntityType::kFile;
  for (Timestamp t : {30, 10, 20}) {  // deliberately unsorted, not sealed
    event.start_ts = t * kSecond;
    event.end_ts = t * kSecond + 1;
    partition.Append(event, 0);
  }
  ASSERT_FALSE(partition.sealed());
  CompiledPattern pattern = PatternFor(OpBit(OpType::kWrite),
                                       EntityType::kFile);
  std::vector<const Event*> out;
  ScanPartition(partition, pattern, TimeRange{0, 25 * kSecond}, nullptr,
                false, &out);
  ASSERT_EQ(out.size(), 2u);  // 10s and 20s events, not silently zero
  for (const Event* match : out) {
    EXPECT_GE(match, partition.events().data());
    EXPECT_LT(match, partition.events().data() + partition.size());
  }
}

TEST(ZeroCopyScanTest, AgentFilterRestrictsMatches) {
  AuditDatabase db = MixedDatabase();
  CompiledPattern pattern =
      PatternFor(static_cast<OpMask>(0x1FF), EntityType::kFile);
  AgentFilterSet only_agent2{std::vector<AgentId>{2}};
  for (const auto& [key, partition] : db.partitions()) {
    std::vector<const Event*> out;
    ScanPartition(*partition, pattern, TimeRange{INT64_MIN, INT64_MAX},
                  &only_agent2, false, &out);
    for (const Event* match : out) {
      EXPECT_EQ(match->agent_id, 2u);
    }
  }
}

}  // namespace
}  // namespace aiql
