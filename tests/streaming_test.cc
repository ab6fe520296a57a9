// Streaming-ingest tests: bucket rotation and size-threshold rollover with
// automatic per-partition sealing, ReadView snapshot semantics, write-path
// status propagation (Flush/AppendBatch), final-seal append rejection, and
// a multi-threaded ingest-vs-query consistency check (run under TSAN in
// CI's tsan job).

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include "common/thread_pool.h"
#include "engine/aiql_engine.h"
#include "simulator/replay.h"
#include "simulator/scenario.h"
#include "storage/database.h"
#include "storage/shard_map.h"

namespace aiql {
namespace {

Timestamp T0() { return *MakeTimestamp(2018, 5, 10); }

EventRecord Rec(AgentId agent, OpType op, Timestamp start, std::string exe,
                ObjectRef object, uint64_t amount = 1) {
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

StorageOptions MinuteBuckets() {
  StorageOptions options;
  options.partition_duration = kMinute;
  options.dedup_window = 0;
  options.batch_commit_size = 1;  // commit every append
  return options;
}

TEST(StreamingTest, BucketRotationSealsClosedPartitions) {
  AuditDatabase db(MinuteBuckets());
  FileRef file{1, "/f"};
  ASSERT_TRUE(db.Append(Rec(1, OpType::kWrite, T0(), "a", file)).ok());
  ASSERT_TRUE(
      db.Append(Rec(1, OpType::kWrite, T0() + 10 * kSecond, "a", file)).ok());
  {
    // Both events sit in the active (open) bucket: committed but invisible.
    ReadView view = db.OpenReadView();
    EXPECT_EQ(view.partitions().size(), 0u);
    EXPECT_EQ(view.visible_events(), 0u);
    EXPECT_EQ(view.stats().total_events, 2u);
  }
  // Crossing into the next bucket rotates and seals the previous one.
  ASSERT_TRUE(db.Append(Rec(1, OpType::kWrite, T0() + kMinute, "a", file)).ok());
  {
    ReadView view = db.OpenReadView();
    ASSERT_EQ(view.partitions().size(), 1u);
    EXPECT_TRUE(view.partitions()[0].second->sealed());
    EXPECT_EQ(view.visible_events(), 2u);
    EXPECT_EQ(view.stats().total_events, 3u);
  }
  ASSERT_TRUE(
      db.Append(Rec(1, OpType::kWrite, T0() + 2 * kMinute, "a", file)).ok());
  {
    ReadView view = db.OpenReadView();
    EXPECT_EQ(view.partitions().size(), 2u);
    EXPECT_EQ(view.visible_events(), 3u);
  }
  // The explicit Seal() flushes-and-seals everything that remains.
  ASSERT_TRUE(db.Seal().ok());
  ReadView view = db.OpenReadView();
  EXPECT_EQ(view.partitions().size(), 3u);
  EXPECT_EQ(view.visible_events(), 4u);
  EXPECT_EQ(view.visible_events(), view.stats().total_events);
}

TEST(StreamingTest, SizeThresholdRollsOverWithinBucket) {
  StorageOptions options = MinuteBuckets();
  options.max_partition_events = 2;
  AuditDatabase db(options);
  FileRef file{1, "/f"};
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(
        db.Append(Rec(1, OpType::kWrite, T0() + i * kSecond, "a", file)).ok());
  }
  {
    // 5 same-bucket events with threshold 2: two sealed rollover partitions
    // plus one still-open partition holding the 5th event.
    ReadView view = db.OpenReadView();
    EXPECT_EQ(view.partitions().size(), 2u);
    EXPECT_EQ(view.visible_events(), 4u);
  }
  ASSERT_TRUE(db.Seal().ok());
  ReadView view = db.OpenReadView();
  EXPECT_EQ(view.partitions().size(), 3u);
  EXPECT_EQ(view.visible_events(), 5u);
  // All three physical partitions share the (bucket, agent) pair and are
  // all selected for a scan of the bucket's range.
  auto selected =
      view.SelectPartitions(TimeRange{T0(), T0() + kMinute}, std::nullopt,
                            kAllOps);
  ASSERT_TRUE(selected.ok());
  EXPECT_EQ(selected->size(), 3u);
  EXPECT_EQ(db.stats().total_partitions, 3u);
  EXPECT_EQ(db.stats().partitions_sealed, 3u);
}

TEST(StreamingTest, LateEventOpensOverflowPartition) {
  AuditDatabase db(MinuteBuckets());
  FileRef file{1, "/f"};
  ASSERT_TRUE(db.Append(Rec(1, OpType::kWrite, T0(), "a", file)).ok());
  ASSERT_TRUE(db.Append(Rec(1, OpType::kWrite, T0() + kMinute, "a", file)).ok());
  // Bucket 0 is sealed now; a late arrival must not touch the sealed
  // partition — it opens an overflow partition of the same bucket.
  ASSERT_TRUE(
      db.Append(Rec(1, OpType::kWrite, T0() + 30 * kSecond, "a", file)).ok());
  ASSERT_TRUE(db.Seal().ok());
  EXPECT_EQ(db.stats().total_partitions, 3u);
  ReadView view = db.OpenReadView();
  EXPECT_EQ(view.visible_events(), 3u);
  auto first_bucket =
      view.SelectPartitions(TimeRange{T0(), T0() + kMinute}, std::nullopt,
                            kAllOps);
  ASSERT_TRUE(first_bucket.ok());
  ASSERT_EQ(first_bucket->size(), 2u);
  EXPECT_EQ((*first_bucket)[0].second->size() +
                (*first_bucket)[1].second->size(),
            2u);
}

TEST(StreamingTest, AppendsDuringStreamingAcceptedUntilFinalSeal) {
  AuditDatabase db(MinuteBuckets());
  FileRef file{1, "/f"};
  // Rotations (auto-sealing individual partitions) never reject appends.
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(
        db.Append(Rec(1, OpType::kWrite, T0() + i * kMinute, "a", file)).ok());
    EXPECT_FALSE(db.sealed());
  }
  ASSERT_TRUE(db.Seal().ok());
  EXPECT_TRUE(db.sealed());
  // After the final seal the historical contract holds: appends error.
  Status status = db.Append(Rec(1, OpType::kWrite, T0() + kHour, "a", file));
  EXPECT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
}

TEST(StreamingTest, AppendBatchIsAllOrNothingOnInvalidRecord) {
  AuditDatabase db(MinuteBuckets());
  FileRef file{1, "/f"};
  std::vector<EventRecord> batch;
  batch.push_back(Rec(1, OpType::kWrite, T0(), "a", file));
  EventRecord bad = Rec(1, OpType::kWrite, T0() + kSecond, "a", file);
  bad.end_ts = bad.start_ts - 1;  // ends before it starts
  batch.push_back(bad);
  batch.push_back(Rec(1, OpType::kWrite, T0() + 2 * kSecond, "a", file));
  EXPECT_FALSE(db.AppendBatch(std::move(batch)).ok());
  // Nothing from the failed batch was applied — not even the valid prefix.
  EXPECT_TRUE(db.Flush().ok());
  EXPECT_EQ(db.StatsSnapshot().total_events, 0u);

  // A subsequent valid batch commits normally.
  std::vector<EventRecord> good;
  good.push_back(Rec(1, OpType::kWrite, T0(), "a", file));
  good.push_back(Rec(1, OpType::kRead, T0() + 2 * kSecond, "a", file));
  EXPECT_TRUE(db.AppendBatch(std::move(good)).ok());
  ASSERT_TRUE(db.Seal().ok());
  EXPECT_EQ(db.stats().total_events, 2u);
}

TEST(StreamingTest, FlushAndSealReportStatus) {
  AuditDatabase db(MinuteBuckets());
  EXPECT_TRUE(db.Flush().ok());  // empty flush
  ASSERT_TRUE(db.Append(Rec(1, OpType::kWrite, T0(), "a", FileRef{1, "/f"})).ok());
  EXPECT_TRUE(db.Flush().ok());
  EXPECT_TRUE(db.Seal().ok());
  EXPECT_TRUE(db.Seal().ok());  // idempotent
}

// The satellite concurrency test: one thread streams records (bucket
// rotation + background sealing on a shared pool) while query threads open
// ReadViews and run a fig4-style two-pattern multievent query. Every view
// must be consistent: only fully-sealed partitions, monotonically
// non-decreasing visible events, and monotonically non-decreasing query
// results; after the final seal the query must see everything.
TEST(StreamingTest, ConcurrentIngestAndQueriesSeeConsistentViews) {
  constexpr int kBuckets = 24;
  constexpr int kNoisePerBucket = 40;

  std::vector<EventRecord> records;
  for (int b = 0; b < kBuckets; ++b) {
    Timestamp base = T0() + b * kMinute;
    for (int i = 0; i < kNoisePerBucket; ++i) {
      records.push_back(Rec(1 + (i % 2), OpType::kWrite, base + i * kSecond,
                            "noise.exe", FileRef{1u + (i % 2), "/tmp/noise"}));
    }
    // The attack pair: a read of the secret then an exfil write, once per
    // bucket. Reads pair with all later-or-same-bucket writes: with k
    // buckets ingested the query yields k * (k + 1) / 2 rows.
    records.push_back(Rec(1, OpType::kRead, base + 10 * kSecond,
                          "attacker.exe", FileRef{1, "/secret/key.pem"}));
    records.push_back(
        Rec(1, OpType::kWrite, base + 20 * kSecond, "attacker.exe",
            NetworkRef{1, "10.0.0.1", "6.6.6.6", 50000, 443, "tcp"}));
  }
  std::stable_sort(records.begin(), records.end(),
                   [](const EventRecord& a, const EventRecord& b) {
                     return a.start_ts < b.start_ts;
                   });
  const size_t expected_rows = kBuckets * (kBuckets + 1) / 2;
  const std::string query =
      "proc p1[\"%attacker.exe\"] read file f1[\"%key.pem\"] as e1 "
      "proc p1 write ip i1[dstip = \"6.6.6.6\"] as e2 "
      "with e1 before e2 "
      "return f1, i1";

  ThreadPool seal_pool(2);
  StorageOptions storage = MinuteBuckets();
  storage.batch_commit_size = 32;
  storage.seal_pool = &seal_pool;
  AuditDatabase db(storage);

  EngineOptions engine_options;
  engine_options.num_threads = 2;
  AiqlEngine engine(&db, engine_options);

  ReplayOptions replay;
  replay.batch_size = 16;
  StreamReplayer replayer(&db, &records, replay);

  std::atomic<bool> failed{false};
  auto query_loop = [&] {
    uint64_t last_visible = 0;
    size_t last_rows = 0;
    int iterations = 0;
    do {
      ++iterations;
      {
        ReadView view = db.OpenReadView();
        for (const auto& [key, partition] : view.partitions()) {
          if (!partition->sealed()) {
            ADD_FAILURE() << "view exposed a partially-sealed partition";
            failed.store(true);
            return;
          }
        }
        if (view.visible_events() < last_visible) {
          ADD_FAILURE() << "visible events moved backwards";
          failed.store(true);
          return;
        }
        last_visible = view.visible_events();
        if (view.stats().total_events < view.visible_events()) {
          ADD_FAILURE() << "stats behind visible partitions";
          failed.store(true);
          return;
        }
      }
      auto result = engine.Execute(query);
      if (!result.ok()) {
        ADD_FAILURE() << "query failed: " << result.status().ToString();
        failed.store(true);
        return;
      }
      size_t rows = result->table.num_rows();
      if (rows < last_rows || rows > expected_rows) {
        ADD_FAILURE() << "rows not monotone: " << rows << " after "
                      << last_rows;
        failed.store(true);
        return;
      }
      last_rows = rows;
    } while (!replayer.done() && iterations < 100000);
  };

  replayer.Start();
  std::thread reader_a(query_loop);
  std::thread reader_b(query_loop);
  reader_a.join();
  reader_b.join();
  ASSERT_TRUE(replayer.Join().ok());
  ASSERT_FALSE(failed.load());
  EXPECT_EQ(replayer.ingested(), records.size());

  ASSERT_TRUE(db.Seal().ok());
  auto final_result = engine.Execute(query);
  ASSERT_TRUE(final_result.ok()) << final_result.status().ToString();
  EXPECT_EQ(final_result->table.num_rows(), expected_rows);
  ReadView view = db.OpenReadView();
  EXPECT_EQ(view.visible_events(), view.stats().total_events);
  EXPECT_EQ(view.stats().total_events, db.stats().total_events);
}

TEST(StreamingTest, ShardedQueriesSeeConsistentViewsDuringConcurrentIngest) {
  // Two shards ingest concurrently while readers run a cross-shard join
  // through the sharded engine (run under TSAN in CI's tsan job). Shard 0
  // owns agent 1 (the secret reads), shard 1 owns agent 2 (the exfil
  // writes); the writes' subject is the agent-1 attacker process, so every
  // result row joins events living on different shards and the semi-join
  // bindings must cross the shard boundary.
  constexpr int kBuckets = 16;
  constexpr int kNoisePerBucket = 30;

  ProcessRef attacker{1, 100, "attacker.exe", "root"};
  std::vector<EventRecord> shard0_records, shard1_records;
  for (int b = 0; b < kBuckets; ++b) {
    Timestamp base = T0() + b * kMinute;
    for (int i = 0; i < kNoisePerBucket; ++i) {
      shard0_records.push_back(Rec(1, OpType::kWrite, base + i * kSecond,
                                   "noise.exe", FileRef{1, "/tmp/noise"}));
      shard1_records.push_back(Rec(2, OpType::kWrite, base + i * kSecond,
                                   "noise.exe", FileRef{2, "/tmp/noise"}));
    }
    shard0_records.push_back(Rec(1, OpType::kRead, base + 10 * kSecond,
                                 "attacker.exe",
                                 FileRef{1, "/secret/key.pem"}));
    EventRecord exfil =
        Rec(2, OpType::kWrite, base + 20 * kSecond, "attacker.exe",
            NetworkRef{2, "10.0.0.2", "6.6.6.6", 50000, 443, "tcp"});
    exfil.subject = attacker;  // agent-1 process observed on agent 2
    shard1_records.push_back(exfil);
  }
  auto by_start = [](const EventRecord& a, const EventRecord& b) {
    return a.start_ts < b.start_ts;
  };
  std::stable_sort(shard0_records.begin(), shard0_records.end(), by_start);
  std::stable_sort(shard1_records.begin(), shard1_records.end(), by_start);
  const size_t expected_rows = kBuckets * (kBuckets + 1) / 2;
  const std::string query =
      "proc p1[\"%attacker.exe\"] read file f1[\"%key.pem\"] as e1 "
      "proc p1 write ip i1[dstip = \"6.6.6.6\"] as e2 "
      "with e1 before e2 "
      "return f1, i1";

  ThreadPool seal_pool(2);
  StorageOptions storage = MinuteBuckets();
  storage.batch_commit_size = 32;
  storage.seal_pool = &seal_pool;
  AuditDatabase shard0(storage);
  AuditDatabase shard1(storage);
  ShardMap map;
  ASSERT_TRUE(map.AddShard(&shard0, ShardRange{1, 2}).ok());
  ASSERT_TRUE(map.AddShard(&shard1, ShardRange{2, 3}).ok());

  EngineOptions engine_options;
  engine_options.num_threads = 2;
  AiqlEngine engine(&map, engine_options);

  ReplayOptions replay;
  replay.batch_size = 16;
  StreamReplayer replayer0(&shard0, &shard0_records, replay);
  StreamReplayer replayer1(&shard1, &shard1_records, replay);

  std::atomic<bool> failed{false};
  auto query_loop = [&] {
    size_t last_rows = 0;
    int iterations = 0;
    do {
      ++iterations;
      auto result = engine.Execute(query);
      if (!result.ok()) {
        ADD_FAILURE() << "sharded query failed: "
                      << result.status().ToString();
        failed.store(true);
        return;
      }
      // Each shard's view is taken atomically at scatter time, and both
      // shards only grow: the cross-shard row count must be monotone.
      size_t rows = result->table.num_rows();
      if (rows < last_rows || rows > expected_rows) {
        ADD_FAILURE() << "rows not monotone: " << rows << " after "
                      << last_rows;
        failed.store(true);
        return;
      }
      last_rows = rows;
    } while (!(replayer0.done() && replayer1.done()) && iterations < 100000);
  };

  replayer0.Start();
  replayer1.Start();
  std::thread reader_a(query_loop);
  std::thread reader_b(query_loop);
  reader_a.join();
  reader_b.join();
  ASSERT_TRUE(replayer0.Join().ok());
  ASSERT_TRUE(replayer1.Join().ok());
  ASSERT_FALSE(failed.load());
  EXPECT_EQ(replayer0.ingested(), shard0_records.size());
  EXPECT_EQ(replayer1.ingested(), shard1_records.size());

  ASSERT_TRUE(shard0.Seal().ok());
  ASSERT_TRUE(shard1.Seal().ok());
  auto final_result = engine.Execute(query);
  ASSERT_TRUE(final_result.ok()) << final_result.status().ToString();
  EXPECT_EQ(final_result->table.num_rows(), expected_rows);

  // Differential close: the sealed sharded result matches a merged single
  // database bit for bit (modulo row order).
  std::vector<EventRecord> merged = shard0_records;
  merged.insert(merged.end(), shard1_records.begin(), shard1_records.end());
  std::stable_sort(merged.begin(), merged.end(), by_start);
  auto merged_db = IngestRecords(merged, MinuteBuckets());
  ASSERT_TRUE(merged_db.ok()) << merged_db.status().ToString();
  AiqlEngine single(&*merged_db, engine_options);
  auto reference = single.Execute(query);
  ASSERT_TRUE(reference.ok()) << reference.status().ToString();
  ResultTable sharded_table = final_result->table;
  ResultTable reference_table = reference->table;
  sharded_table.SortRows();
  reference_table.SortRows();
  EXPECT_EQ(sharded_table, reference_table);
}

}  // namespace
}  // namespace aiql
