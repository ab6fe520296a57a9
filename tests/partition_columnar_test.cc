// Tests for the sealed-partition read-path artifacts: the event columns
// (Row(i) reproduces every ingested event after seal, snapshot reopen and
// compaction merge), per-operation posting lists with zone maps,
// time-clipped op counts, LowerBound edge cases, and the zero-copy pattern
// scan.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <map>
#include <string>
#include <tuple>
#include <vector>

#include <unistd.h>

#include "common/rng.h"
#include "engine/scan.h"
#include "storage/database.h"
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

// --- Row(i) reproduces the ingested events ----------------------------------

/// One stored event as the test models it, with entities by their
/// store-independent identity (process pid, file path).
using EventKey = std::tuple<Timestamp, Timestamp, uint64_t, uint32_t, int,
                            int, AgentId, uint32_t, std::string>;

/// Agents the dedup groups cycle through; UINT32_MAX is the widest id.
constexpr AgentId kDedupAgents[] = {1, 7, UINT32_MAX};

/// Groups of back-to-back writes that dedup merges into one event each
/// (merge_count = group size), spread round-robin over kDedupAgents. Hour 0
/// is written, hour 1 rotates every agent's stream (sealing hour 0), then
/// late hour-0 groups land in a second hour-0 partition per agent, and
/// hour 2 rotates again — so each agent's hour 0 has two sibling partitions
/// for merge compaction to fold. `model` receives the expected stored
/// events.
std::vector<EventRecord> DedupRecords(std::vector<EventKey>* model) {
  std::vector<EventRecord> records;
  int group = 0;
  auto add_groups = [&](int hour, int count) {
    for (int g = 0; g < count; ++g, ++group) {
      const AgentId agent = kDedupAgents[group % 3];
      const uint32_t size = 1 + static_cast<uint32_t>(group % 4);
      const std::string path = "/dedup/f" + std::to_string(group);
      const Timestamp start = T0() + hour * kHour + group * kMinute;
      uint64_t amount = 0;
      for (uint32_t k = 0; k < size; ++k) {
        EventRecord record =
            Rec(agent, OpType::kWrite, start + k * kSecond, 10 + group + k,
                "writer", FileRef{agent, path});
        amount += record.amount;
        records.push_back(std::move(record));
      }
      model->emplace_back(start, start + size * kSecond, amount, size,
                          static_cast<int>(OpType::kWrite),
                          static_cast<int>(EntityType::kFile), agent, 100,
                          path);
    }
  };
  add_groups(0, 6);
  add_groups(1, 3);
  add_groups(0, 5);  // late: a second hour-0 partition
  add_groups(2, 2);
  std::sort(model->begin(), model->end());
  return records;
}

StorageOptions DedupOptions() {
  StorageOptions options;
  options.partition_duration = kHour;
  options.dedup_window = 3 * kSecond;
  return options;
}

/// Every event of `partitions`, gathered through Row(i), in model form and
/// sorted; each partition's rows must ascend, carry the partition's agent,
/// and its raw count must be the sum of its merge counts.
std::vector<EventKey> StoredEvents(
    const std::map<PartitionMapKey, std::unique_ptr<EventPartition>>&
        partitions,
    const EntityStore& entities) {
  std::vector<EventKey> out;
  for (const auto& [key, partition] : partitions) {
    EXPECT_TRUE(partition->sealed());
    uint64_t raw = 0;
    for (size_t i = 0; i < partition->size(); ++i) {
      const Event e = partition->Row(i);
      if (i > 0) {
        EXPECT_LE(partition->Row(i - 1).start_ts, e.start_ts);
      }
      raw += e.merge_count;
      EXPECT_EQ(e.agent_id, std::get<1>(key));
      EXPECT_EQ(e.object_type, EntityType::kFile);
      out.emplace_back(e.start_ts, e.end_ts, e.amount, e.merge_count,
                       static_cast<int>(e.op),
                       static_cast<int>(e.object_type), e.agent_id,
                       entities.processes()[e.subject].pid,
                       std::string(entities.paths().Get(
                           entities.files()[e.object].path)));
    }
    EXPECT_EQ(raw, partition->raw_event_count());
  }
  std::sort(out.begin(), out.end());
  return out;
}

TEST(ColumnarRowTest, RowsReproduceIngestedEventsAfterSeal) {
  std::vector<EventKey> model;
  AuditDatabase db(DedupOptions());
  ASSERT_TRUE(db.AppendBatch(DedupRecords(&model)).ok());
  ASSERT_TRUE(db.Seal().ok());
  // Per agent: hour 0 twice and hour 1; agents 1 and UINT32_MAX reach
  // hour 2.
  EXPECT_EQ(db.stats().total_partitions, 11u);
  EXPECT_EQ(StoredEvents(db.partitions(), db.entities()), model);
}

TEST(ColumnarRowTest, RowsReproduceIngestedEventsAfterSnapshotReopen) {
  std::vector<EventKey> model;
  AuditDatabase db(DedupOptions());
  ASSERT_TRUE(db.AppendBatch(DedupRecords(&model)).ok());
  ASSERT_TRUE(db.Seal().ok());
  std::string path = "/tmp/aiql_columnar_rows_test." +
                     std::to_string(getpid()) + ".snap";
  ASSERT_TRUE(SaveSnapshot(db, path).ok());
  auto loaded = LoadSnapshot(path);
  std::remove(path.c_str());
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(StoredEvents(loaded->partitions(), loaded->entities()), model);
}

TEST(ColumnarRowTest, RowsReproduceIngestedEventsAfterCompactionMerge) {
  std::vector<EventKey> model;
  std::vector<EventRecord> records = DedupRecords(&model);
  const std::string dir = "/tmp/aiql_columnar_rows_tiered." +
                          std::to_string(getpid());
  RetentionOptions retention;
  retention.dir = dir;
  retention.hot_buckets = 1000;  // no demotion: isolate merging
  retention.compact_min_partitions = 2;
  {
    auto store = TieredStore::Create(DedupOptions(), retention);
    ASSERT_TRUE(store.ok()) << store.status().ToString();
    ASSERT_TRUE((*store)->AppendBatch(std::move(records)).ok());
    ASSERT_TRUE((*store)->Seal().ok());
    ASSERT_TRUE((*store)->CompactOnce().ok());
    // Each agent's two hour-0 siblings.
    EXPECT_EQ((*store)->stats().merges, 3u);
    EXPECT_EQ((*store)->stats().hot_partitions, 8u);
    const AuditDatabase& db = (*store)->db();
    EXPECT_EQ(StoredEvents(db.partitions(), db.entities()), model);
  }
  std::remove((dir + "/DATA").c_str());
  for (int seq = 0; seq < 8; ++seq) {
    std::remove((dir + "/FOOTER." + std::to_string(seq)).c_str());
  }
  rmdir(dir.c_str());
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
        const Event event = partition->Row(i);
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
        for (size_t i = 0; i < partition->size(); ++i) {
          const Event event = partition->Row(i);
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
      EXPECT_EQ(event_key(partition->Row(i)), event_key(hot.Row(i)));
    }

    const EventColumns& cols = partition->columns();
    const EventColumns& hot_cols = hot.columns();
    EXPECT_EQ(cols.start_ts, hot_cols.start_ts);
    EXPECT_EQ(cols.end_ts, hot_cols.end_ts);
    EXPECT_EQ(cols.subject, hot_cols.subject);
    EXPECT_EQ(cols.object, hot_cols.object);
    EXPECT_EQ(partition->agent_id(), hot.agent_id());
    EXPECT_EQ(cols.amount, hot_cols.amount);
    EXPECT_EQ(cols.merge_count, hot_cols.merge_count);
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

TEST(ZeroCopyScanTest, MatchesReferencePartitionRows) {
  AuditDatabase db = MixedDatabase();
  CompiledPattern pattern =
      PatternFor(OpBit(OpType::kRead) | OpBit(OpType::kConnect),
                 EntityType::kFile);
  TimeRange range{T0(), T0() + 3 * kHour};
  for (const auto& [key, partition] : db.partitions()) {
    std::vector<EventRef> out;
    ScanPartition(*partition, pattern, range, false, &out);
    for (size_t i = 0; i < out.size(); ++i) {
      // Every match names this partition and one of its rows, ascending.
      EXPECT_EQ(out[i].partition, partition.get());
      ASSERT_LT(out[i].row, partition->size());
      if (i > 0) {
        EXPECT_LT(out[i - 1].row, out[i].row);
      }
      EXPECT_EQ(out[i].start_ts(), partition->Row(out[i].row).start_ts);
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
      std::vector<EventRef> out;
      ScanPartition(*partition, pattern, range, false, &out);
      std::vector<EventRef> expected;
      for (uint32_t i = 0; i < partition->size(); ++i) {
        const Event event = partition->Row(i);
        if (range.Contains(event.start_ts) &&
            OpMaskContains(mask, event.op) &&
            event.object_type == EntityType::kFile) {
          expected.push_back(EventRef{partition.get(), i});
        }
      }
      // Same matches, same (ascending row) order.
      EXPECT_EQ(out, expected);
    }
  }
}

}  // namespace
}  // namespace aiql
