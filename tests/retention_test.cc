// Tiered retention end-to-end tests: result identity across residence
// states (hot, cold, merged, mid-compaction), memory-budgeted eviction
// under concurrent queries, crash/abort injection at the compaction and
// demotion commit points, recovery from the retention directory, the
// retention horizon (tombstoning + entity aging), QueryContext byte
// budgets governing cold materialization, and cold selection pruned by the
// entity summaries against each pattern's candidate entities.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <unistd.h>

#include "common/cancellation.h"
#include "common/failpoint.h"
#include "common/time_utils.h"
#include "engine/aiql_engine.h"
#include "engine/result.h"
#include "simulator/scenario.h"
#include "storage/database.h"
#include "storage/partition_cache.h"
#include "storage/shard_map.h"
#include "storage/snapshot.h"
#include "storage/tiered.h"

namespace aiql {
namespace {

Timestamp T0() { return *MakeTimestamp(2018, 5, 10); }

EventRecord Rec(AgentId agent, OpType op, Timestamp start, uint64_t amount,
                const std::string& exe, ObjectRef object) {
  EventRecord record;
  record.agent_id = agent;
  record.op = op;
  record.start_ts = start;
  record.end_ts = start + kSecond;
  record.amount = amount;
  record.subject =
      ProcessRef{agent, static_cast<uint32_t>(100 + agent), exe, "root"};
  record.object = std::move(object);
  return record;
}

/// 3 agents x 5 hourly buckets, enough per-bucket volume to roll over the
/// (tiny) partition event cap several times — so every bucket has multiple
/// seq siblings for merge compaction to fold.
std::vector<EventRecord> BuildRecords() {
  std::vector<EventRecord> records;
  for (AgentId agent = 1; agent <= 3; ++agent) {
    for (int hour = 0; hour < 5; ++hour) {
      Timestamp base = T0() + hour * kHour;
      for (int i = 0; i < 60; ++i) {
        OpType op = i % 3 == 0   ? OpType::kRead
                    : i % 3 == 1 ? OpType::kWrite
                                 : OpType::kExecute;
        // Bucket-unique file paths: entities of expired buckets have no
        // later touches, so the aging pass has something to count.
        records.push_back(Rec(agent, op, base + i * kMinute, 10 + i,
                              "proc" + std::to_string(i % 4),
                              FileRef{agent, "/h" + std::to_string(hour) +
                                                 "/f" + std::to_string(i % 7)}));
      }
      records.push_back(
          Rec(agent, OpType::kConnect, base + 45 * kMinute, 0, "net",
              NetworkRef{agent, "10.0.0." + std::to_string(agent),
                         "172.16.0.9", 49152, 443, "tcp"}));
    }
  }
  return records;
}

StorageOptions SmallPartitions() {
  StorageOptions options;
  options.partition_duration = kHour;
  options.max_partition_events = 16;  // force seq rollover inside buckets
  return options;
}

const char* kQueries[] = {
    // Full scan with projection.
    "proc p1 write file f1 as e1 return p1, f1, e1.amount",
    // Filtered scan (entity predicate pushdown over every tier).
    "proc p1 read file f1[\"/h1/%\"] as e1 return p1, f1, e1.amount",
    // Ordered scan (limit above the total row count, so the canonicalized
    // row multiset is tier-independent even with tied timestamps).
    "proc p1 execute file f1 as e1 "
    "return p1, f1, e1.start_ts order by e1.start_ts limit 1000",
};

/// The canonicalized result table of `query` (rows sorted, so multiset
/// identity compares with ==; ordered queries stay stable because the sort
/// is a no-op permutation within equal rows).
ResultTable RunProbe(AiqlEngine* engine, const std::string& query) {
  auto result = engine->Execute(query);
  EXPECT_TRUE(result.ok()) << query << ": " << result.status().ToString();
  ResultTable table = result.ok() ? std::move(result->table) : ResultTable{};
  table.SortRows();
  return table;
}

/// RunProbe of every probe query.
std::vector<ResultTable> RunProbes(AiqlEngine* engine) {
  std::vector<ResultTable> out;
  for (const char* query : kQueries) out.push_back(RunProbe(engine, query));
  return out;
}

/// Queries that name one rare file (each agent reads /h2/f3 three times,
/// all in hour 2), paired with the same patterns without that entity
/// constraint, which can match in every hour.
struct PrunedQuery {
  const char* constrained;
  const char* unconstrained;
};
const PrunedQuery kPrunedQueries[] = {
    {"proc p1 read file f1[\"/h2/f3\"] as e1 return p1, f1, e1.amount",
     "proc p1 read file f1 as e1 return p1, f1, e1.amount"},
    // Anomaly executor.
    {"window = 1 min, step = 1 min proc p read file f[\"/h2/f3\"] as evt "
     "return p, sum(evt.amount) as s group by p",
     "window = 1 min, step = 1 min proc p read file f as evt "
     "return p, sum(evt.amount) as s group by p"},
    // Two patterns: over a shard map this is the gathered path.
    {"proc p1 read file f1[\"/h2/f3\"] as e1 "
     "proc p1 write file f2[\"/h2/f4\"] as e2 return distinct p1, f1, f2",
     "proc p1 read file f1 as e1 "
     "proc p1 write file f2[\"/h2/f4\"] as e2 return distinct p1, f1, f2"},
};

class RetentionTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Failpoint::ClearAll();
    dir_ = std::string("/tmp/aiql_retention_test_") +
           std::to_string(reinterpret_cast<uintptr_t>(this)) + "_" +
           std::to_string(getpid());
    RemoveDir(dir_);
  }
  void TearDown() override {
    Failpoint::ClearAll();
    RemoveDir(dir_);
  }

  static void RemoveDir(const std::string& dir) {
    std::remove((dir + "/DATA").c_str());
    for (uint64_t seq = 0; seq <= 256; ++seq) {
      std::remove((dir + "/FOOTER." + std::to_string(seq)).c_str());
    }
    std::remove((dir + "/FOOTER.tmp").c_str());
    rmdir(dir.c_str());
  }

  /// Sealed tiered store over BuildRecords() in this test's directory.
  std::unique_ptr<TieredStore> BuildTiered(RetentionOptions retention) {
    retention.dir = dir_;
    auto store = TieredStore::Create(SmallPartitions(), retention);
    EXPECT_TRUE(store.ok()) << store.status().ToString();
    if (!store.ok()) return nullptr;
    EXPECT_TRUE((*store)->AppendBatch(BuildRecords()).ok());
    EXPECT_TRUE((*store)->Seal().ok());
    return std::move(*store);
  }

  /// All-hot baseline: the same records in a plain sealed database.
  std::vector<ResultTable> Baseline() {
    auto db = IngestRecords(BuildRecords(), SmallPartitions());
    EXPECT_TRUE(db.ok());
    EXPECT_TRUE(db->Seal().ok());
    AiqlEngine engine(&*db);
    return RunProbes(&engine);
  }

  std::string dir_;
};

TEST_F(RetentionTest, FullDemotionKeepsResultsIdentical) {
  std::vector<ResultTable> baseline = Baseline();

  RetentionOptions retention;
  retention.hot_buckets = -1;  // everything sealed is past the hot window
  retention.compact_min_partitions = 0;  // isolate demotion from merging
  auto store = BuildTiered(retention);
  ASSERT_NE(store, nullptr);

  AiqlEngine engine(store.get());
  EXPECT_EQ(RunProbes(&engine), baseline);  // all-hot tiered

  ASSERT_TRUE(store->CompactOnce().ok());
  RetentionStats stats = store->stats();
  EXPECT_EQ(stats.hot_partitions, 0u);
  EXPECT_GT(stats.cold_partitions, 0u);
  EXPECT_GT(stats.demotions, 0u);
  EXPECT_GT(stats.commits, 0u);

  EXPECT_EQ(RunProbes(&engine), baseline);  // all-cold tiered
  // Second run hits the (unlimited) cache — no extra disk decodes.
  uint64_t resident = store->stats().cache.resident;
  EXPECT_EQ(RunProbes(&engine), baseline);
  EXPECT_EQ(store->stats().cache.resident, resident);
}

TEST_F(RetentionTest, MergeCompactionKeepsResultsIdentical) {
  std::vector<ResultTable> baseline = Baseline();

  RetentionOptions retention;
  retention.hot_buckets = 1000;  // no demotion: isolate merging
  retention.compact_min_partitions = 2;
  auto store = BuildTiered(retention);
  ASSERT_NE(store, nullptr);
  uint64_t before = store->stats().hot_partitions;

  ASSERT_TRUE(store->CompactOnce().ok());
  RetentionStats stats = store->stats();
  EXPECT_GT(stats.merges, 0u);
  EXPECT_GT(stats.merged_partitions, stats.merges);  // >= 2 sources each
  EXPECT_LT(stats.hot_partitions, before);
  EXPECT_EQ(stats.cold_partitions, 0u);

  AiqlEngine engine(store.get());
  EXPECT_EQ(RunProbes(&engine), baseline);
}

TEST_F(RetentionTest, TinyBudgetMatchesUnlimitedWithEvictions) {
  std::vector<ResultTable> baseline = Baseline();

  RetentionOptions retention;
  retention.hot_buckets = -1;
  retention.compact_min_partitions = 0;
  retention.memory_budget_bytes = 1;  // at most one resident cold partition
  auto store = BuildTiered(retention);
  ASSERT_NE(store, nullptr);
  ASSERT_TRUE(store->CompactOnce().ok());
  ASSERT_GT(store->stats().cold_partitions, 0u);

  AiqlEngine engine(store.get());
  EXPECT_EQ(RunProbes(&engine), baseline);
  RetentionStats stats = store->stats();
  EXPECT_GT(stats.cache.evictions, 0u);
  EXPECT_LE(stats.cache.resident, 1u);

  // Re-running must re-materialize (reopens), still byte-identical.
  EXPECT_EQ(RunProbes(&engine), baseline);
  EXPECT_GT(store->stats().reopens, 0u);
}

TEST_F(RetentionTest, ConcurrentQueriesDuringCompactionStayIdentical) {
  std::vector<ResultTable> baseline = Baseline();

  RetentionOptions retention;
  retention.hot_buckets = 2;
  retention.compact_min_partitions = 2;
  retention.memory_budget_bytes = 64 * 1024;  // small: eviction under load
  auto store = BuildTiered(retention);
  ASSERT_NE(store, nullptr);

  // Queries race merge + demotion passes; every view must see each
  // partition in exactly one tier, so every result is byte-identical.
  std::atomic<bool> stop{false};
  std::atomic<int> mismatches{0};
  std::vector<std::thread> readers;
  for (int t = 0; t < 4; ++t) {
    readers.emplace_back([&] {
      AiqlEngine engine(store.get());
      while (!stop.load(std::memory_order_relaxed)) {
        if (RunProbes(&engine) != baseline) {
          mismatches.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  for (int pass = 0; pass < 8; ++pass) {
    ASSERT_TRUE(store->CompactOnce().ok());
  }
  stop.store(true, std::memory_order_relaxed);
  for (std::thread& reader : readers) reader.join();
  EXPECT_EQ(mismatches.load(), 0);

  RetentionStats stats = store->stats();
  EXPECT_GT(stats.demotions, 0u);
  EXPECT_GT(stats.compactor_passes, 0u);
  AiqlEngine engine(store.get());
  EXPECT_EQ(RunProbes(&engine), baseline);
}

TEST_F(RetentionTest, BackgroundCompactorThreadDemotes) {
  RetentionOptions retention;
  retention.hot_buckets = -1;
  retention.compact_min_partitions = 0;
  retention.compact_interval = 1 * kMillisecond;
  auto store = BuildTiered(retention);
  ASSERT_NE(store, nullptr);

  store->StartCompactor();
  AiqlEngine engine(store.get());
  std::vector<ResultTable> baseline = Baseline();
  for (int i = 0; i < 200; ++i) {
    if (store->stats().hot_partitions == 0) break;
    EXPECT_EQ(RunProbes(&engine), baseline);  // query while it demotes
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  store->StopCompactor();
  EXPECT_EQ(store->stats().hot_partitions, 0u);
  EXPECT_EQ(RunProbes(&engine), baseline);
}

TEST_F(RetentionTest, RecoveryServesDemotedPartitions) {
  std::vector<ResultTable> baseline = Baseline();
  DatabaseStats want_stats;

  {
    RetentionOptions retention;
    retention.hot_buckets = -1;
    retention.compact_min_partitions = 0;
    auto store = BuildTiered(retention);
    ASSERT_NE(store, nullptr);
    want_stats = store->StatsSnapshot();
    ASSERT_TRUE(store->CompactOnce().ok());
    ASSERT_EQ(store->stats().hot_partitions, 0u);
  }  // destroy the store; everything lives in the retention directory

  RetentionOptions retention;
  retention.dir = dir_;
  auto reopened = TieredStore::Create(SmallPartitions(), retention);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  RetentionStats stats = (*reopened)->stats();
  EXPECT_EQ(stats.hot_partitions, 0u);
  EXPECT_GT(stats.cold_partitions, 0u);

  DatabaseStats recovered_stats = (*reopened)->StatsSnapshot();
  EXPECT_EQ(recovered_stats.total_events, want_stats.total_events);
  EXPECT_EQ(recovered_stats.raw_events, want_stats.raw_events);
  EXPECT_EQ(recovered_stats.min_ts, want_stats.min_ts);
  EXPECT_EQ(recovered_stats.max_ts, want_stats.max_ts);

  AiqlEngine engine(reopened->get());
  EXPECT_EQ(RunProbes(&engine), baseline);
}

TEST_F(RetentionTest, AbortedMergeLeavesSourcesUntouched) {
  std::vector<ResultTable> baseline = Baseline();

  RetentionOptions retention;
  retention.hot_buckets = 1000;
  retention.compact_min_partitions = 2;
  auto store = BuildTiered(retention);
  ASSERT_NE(store, nullptr);
  uint64_t before = store->stats().hot_partitions;

  ASSERT_TRUE(
      Failpoint::Configure("retention.compact.commit=error(Unavailable)")
          .ok());
  Status pass = store->CompactOnce();
  EXPECT_EQ(pass.code(), StatusCode::kUnavailable);
  Failpoint::ClearAll();

  RetentionStats stats = store->stats();
  EXPECT_EQ(stats.merges, 0u);
  EXPECT_EQ(stats.hot_partitions, before);
  AiqlEngine engine(store.get());
  EXPECT_EQ(RunProbes(&engine), baseline);

  // The next (clean) pass completes the merge.
  ASSERT_TRUE(store->CompactOnce().ok());
  EXPECT_GT(store->stats().merges, 0u);
  EXPECT_EQ(RunProbes(&engine), baseline);
}

TEST_F(RetentionTest, FailedDemotionWriteKeepsPartitionsHot) {
  std::vector<ResultTable> baseline = Baseline();

  RetentionOptions retention;
  retention.hot_buckets = -1;
  retention.compact_min_partitions = 0;
  auto store = BuildTiered(retention);
  ASSERT_NE(store, nullptr);
  uint64_t before = store->stats().hot_partitions;

  ASSERT_TRUE(
      Failpoint::Configure("retention.demote.write=error(IOError)").ok());
  Status pass = store->CompactOnce();
  EXPECT_EQ(pass.code(), StatusCode::kIOError);
  Failpoint::ClearAll();

  // Nothing was extracted: the failure happened before the durable commit.
  RetentionStats stats = store->stats();
  EXPECT_EQ(stats.demotions, 0u);
  EXPECT_EQ(stats.hot_partitions, before);
  EXPECT_EQ(stats.cold_partitions, 0u);
  AiqlEngine engine(store.get());
  EXPECT_EQ(RunProbes(&engine), baseline);

  ASSERT_TRUE(store->CompactOnce().ok());
  EXPECT_EQ(store->stats().hot_partitions, 0u);
  EXPECT_EQ(RunProbes(&engine), baseline);
}

TEST_F(RetentionTest, FailedReopenSurfacesAndRecovers) {
  RetentionOptions retention;
  retention.hot_buckets = -1;
  retention.compact_min_partitions = 0;
  retention.memory_budget_bytes = 1;  // keep nothing resident between runs
  auto store = BuildTiered(retention);
  ASSERT_NE(store, nullptr);
  ASSERT_TRUE(store->CompactOnce().ok());

  AiqlEngine engine(store.get());
  ASSERT_TRUE(
      Failpoint::Configure("retention.reopen=error(IOError)").ok());
  auto result = engine.Execute(kQueries[0]);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kIOError);
  Failpoint::ClearAll();

  // Transient fault: the next query materializes cleanly.
  EXPECT_EQ(RunProbes(&engine), Baseline());
}

TEST_F(RetentionTest, QueryByteBudgetGovernsColdMaterialization) {
  RetentionOptions retention;
  retention.hot_buckets = -1;
  retention.compact_min_partitions = 0;
  auto store = BuildTiered(retention);
  ASSERT_NE(store, nullptr);
  ASSERT_TRUE(store->CompactOnce().ok());

  AiqlEngine engine(store.get());
  QueryLimits limits;
  limits.max_bytes = 64;  // far below one partition's footprint
  QueryContext ctx(limits);
  auto result = engine.Execute(kQueries[0], &ctx);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kResourceExhausted);

  // An ungoverned query on the same store still runs to completion.
  auto clean = engine.Execute(kQueries[0]);
  EXPECT_TRUE(clean.ok()) << clean.status().ToString();
}

TEST_F(RetentionTest, RetentionHorizonTombstonesAndAgesEntities) {
  RetentionOptions retention;
  retention.hot_buckets = -1;
  retention.compact_min_partitions = 0;
  retention.retention_buckets = 2;  // keep the newest ~2 buckets only
  auto store = BuildTiered(retention);
  ASSERT_NE(store, nullptr);

  // Pass 1 demotes everything; pass 2 tombstones the expired buckets.
  ASSERT_TRUE(store->CompactOnce().ok());
  ASSERT_TRUE(store->CompactOnce().ok());
  RetentionStats stats = store->stats();
  EXPECT_GT(stats.tombstones, 0u);
  EXPECT_GT(stats.entities_aged, 0u);

  // Only partitions within the horizon remain visible — but some must.
  AiqlEngine engine(store.get());
  auto result = engine.Execute(kQueries[0]);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_GT(stats.cold_partitions + stats.hot_partitions, 0u);

  // Expired data stays gone across recovery (the committed footer already
  // dropped it).
  uint64_t cold_before = stats.cold_partitions;
  store.reset();
  RetentionOptions reopen_opts;
  reopen_opts.dir = dir_;
  auto reopened = TieredStore::Create(SmallPartitions(), reopen_opts);
  ASSERT_TRUE(reopened.ok());
  EXPECT_EQ((*reopened)->stats().cold_partitions, cold_before);
}

/// The cold backends the summary-pruning tests run: a fully demoted tiered
/// store, a snapshot store and two snapshot-backed shards, each behind a
/// one-byte cache, so every cold partition a selection keeps is a cache
/// miss (and, once resident before, a reopen).
class SummaryPruningTest : public RetentionTest {
 protected:
  struct Backend {
    std::string name;
    std::unique_ptr<AiqlEngine> engine;
    std::function<uint64_t()> misses;
    std::function<uint64_t()> reopens;
  };

  void TearDown() override {
    backends_.clear();
    map_.reset();
    shards_.clear();
    caches_.clear();
    tiered_.reset();
    for (const std::string& path : paths_) std::remove(path.c_str());
    RetentionTest::TearDown();
  }

  /// Opens `path` (a saved snapshot) behind its own one-byte cache.
  SnapshotStore* OpenCold(const AuditDatabase& db, const std::string& path) {
    EXPECT_TRUE(SaveSnapshot(db, path).ok());
    paths_.push_back(path);
    auto store = SnapshotStore::Open(path);
    EXPECT_TRUE(store.ok()) << store.status().ToString();
    if (!store.ok()) return nullptr;
    caches_.push_back(std::make_unique<PartitionCache>(1));
    (*store)->AttachCache(caches_.back().get());
    shards_.push_back(std::move(*store));
    return shards_.back().get();
  }

  void BuildBackends() {
    auto db = IngestRecords(BuildRecords(), SmallPartitions());
    ASSERT_TRUE(db.ok());
    hot_db_ = std::make_unique<AuditDatabase>(std::move(*db));
    hot_ = std::make_unique<AiqlEngine>(hot_db_.get());

    RetentionOptions retention;
    retention.hot_buckets = -1;
    retention.compact_min_partitions = 0;
    retention.memory_budget_bytes = 1;
    tiered_ = BuildTiered(retention);
    ASSERT_NE(tiered_, nullptr);
    ASSERT_TRUE(tiered_->CompactOnce().ok());
    ASSERT_EQ(tiered_->stats().hot_partitions, 0u);
    TieredStore* tiered = tiered_.get();
    backends_.push_back(
        {"tiered", std::make_unique<AiqlEngine>(tiered),
         [tiered] { return tiered->stats().cache.misses; },
         [tiered] { return tiered->stats().reopens; }});

    SnapshotStore* snapshot = OpenCold(*hot_db_, dir_ + ".snap");
    ASSERT_NE(snapshot, nullptr);
    backends_.push_back(
        {"snapshot", std::make_unique<AiqlEngine>(snapshot),
         [snapshot] { return snapshot->cache()->stats().misses; },
         [snapshot] { return snapshot->reopens(); }});

    const std::vector<ShardRange> ranges = EvenAgentRanges(2, 1, 3);
    auto routed = RouteRecordsByAgent(ranges, BuildRecords());
    ASSERT_TRUE(routed.ok()) << routed.status().ToString();
    map_ = std::make_unique<ShardMap>();
    std::vector<SnapshotStore*> stores;
    for (size_t s = 0; s < ranges.size(); ++s) {
      auto shard_db = IngestRecords((*routed)[s], SmallPartitions());
      ASSERT_TRUE(shard_db.ok());
      SnapshotStore* store =
          OpenCold(*shard_db, dir_ + ".shard" + std::to_string(s));
      ASSERT_NE(store, nullptr);
      ASSERT_TRUE(map_->AddShard(store, ranges[s]).ok());
      stores.push_back(store);
    }
    auto sum = [stores](uint64_t (*count)(const SnapshotStore&)) {
      return [stores, count] {
        uint64_t total = 0;
        for (const SnapshotStore* store : stores) total += count(*store);
        return total;
      };
    };
    backends_.push_back(
        {"2-shard snapshot", std::make_unique<AiqlEngine>(map_.get()),
         sum([](const SnapshotStore& s) { return s.cache()->stats().misses; }),
         sum([](const SnapshotStore& s) { return s.reopens(); })});
  }

  std::unique_ptr<AuditDatabase> hot_db_;
  std::unique_ptr<AiqlEngine> hot_;
  std::unique_ptr<TieredStore> tiered_;
  std::vector<std::unique_ptr<PartitionCache>> caches_;
  std::vector<std::unique_ptr<SnapshotStore>> shards_;
  std::unique_ptr<ShardMap> map_;
  std::vector<std::string> paths_;
  std::vector<Backend> backends_;
};

/// A pattern naming a rare entity selects only the cold partitions whose
/// summary may hold it: the rows equal the all-hot rows, and the query
/// misses the cache (and reopens) strictly less often than the same
/// patterns without the constraint.
TEST_F(SummaryPruningTest, CandidateEntitiesPruneColdReopens) {
  BuildBackends();
  for (const PrunedQuery& query : kPrunedQueries) {
    SCOPED_TRACE(query.constrained);
    const ResultTable baseline = RunProbe(hot_.get(), query.constrained);
    ASSERT_FALSE(baseline.rows.empty());
    for (Backend& backend : backends_) {
      SCOPED_TRACE(backend.name);
      // Every partition has been resident once, so each later decode is a
      // reopen.
      RunProbe(backend.engine.get(), query.unconstrained);
      const uint64_t misses = backend.misses();
      const uint64_t reopens = backend.reopens();
      EXPECT_EQ(RunProbe(backend.engine.get(), query.constrained), baseline);
      const uint64_t pruned_misses = backend.misses() - misses;
      const uint64_t pruned_reopens = backend.reopens() - reopens;
      RunProbe(backend.engine.get(), query.unconstrained);
      const uint64_t full_misses = backend.misses() - misses - pruned_misses;
      const uint64_t full_reopens =
          backend.reopens() - reopens - pruned_reopens;
      EXPECT_GT(pruned_misses, 0u);
      EXPECT_LT(pruned_misses, full_misses);
      EXPECT_LT(pruned_reopens, full_reopens);
    }
  }
}

/// Scans skip a cold partition whose summary misses a candidate side. A
/// false negative there would silently drop rows; forcing one (the
/// `storage.summary.miss` failpoint, aimed at the partition holding the
/// query's only match) must lose the row on every cold backend, while the
/// all-hot database, which carries no summary, still returns it.
TEST_F(SummaryPruningTest, SummaryFalseNegativeIsCaught) {
  BuildBackends();
  const std::string query =
      "agentid = 2 proc p1 read file f1[\"/h2/f3\"] as e1 return distinct f1";
  const ResultTable baseline = RunProbe(hot_.get(), query);
  ASSERT_EQ(baseline.rows.size(), 1u);
  for (Backend& backend : backends_) {
    EXPECT_EQ(RunProbe(backend.engine.get(), query), baseline) << backend.name;
  }

  FailpointSpec spec;
  spec.arg_filter = PartitionKey{T0() / kHour + 2, 2}.Fold();
  Failpoint::Set("storage.summary.miss", spec);
  for (Backend& backend : backends_) {
    EXPECT_TRUE(RunProbe(backend.engine.get(), query).rows.empty())
        << backend.name;
  }
  EXPECT_EQ(RunProbe(hot_.get(), query), baseline);
  EXPECT_GT(Failpoint::HitCount("storage.summary.miss"), 0u);
  Failpoint::ClearAll();
}

}  // namespace
}  // namespace aiql
