// Differential tests for the partition scan (posting walk and batch-at-a-
// time columnar kernels).
//
// The contract under test: ScanPartition returns exactly the matches,
// inspected counts and governance charges of a test-local brute-force
// reference that reads each event through Row(i) — across op masks, time
// ranges, candidate sets (including empty ones and out-of-universe ids),
// same-var patterns, and row budgets that stop the scan mid-partition.
// Agents are not an axis: partition selection restricts them
// (storage_test covers hostile agent ids there). Plus unit coverage for the
// bitset layer and the versioned dictionary-match cache the id-set
// predicates build on.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/bitset.h"
#include "common/cancellation.h"
#include "common/interner.h"
#include "common/like_matcher.h"
#include "common/rng.h"
#include "engine/scan.h"
#include "storage/database.h"

namespace aiql {
namespace {

Timestamp T0() { return *MakeTimestamp(2018, 5, 10); }

// --- bitset layer -----------------------------------------------------------

TEST(DenseBitsetTest, AddContainsGrowRoundTrip) {
  DenseBitset set(130);
  EXPECT_EQ(set.num_words(), 3u);
  for (uint32_t id : {0u, 63u, 64u, 129u}) set.Add(id);
  EXPECT_TRUE(set.Contains(0));
  EXPECT_TRUE(set.Contains(63));
  EXPECT_TRUE(set.Contains(64));
  EXPECT_TRUE(set.Contains(129));
  EXPECT_FALSE(set.Contains(1));
  EXPECT_FALSE(set.Contains(128));
  // Guarded: beyond-universe ids are absent, not UB.
  EXPECT_FALSE(set.Contains(500));
  EXPECT_FALSE(set.Contains(UINT32_MAX));
  EXPECT_EQ(set.Count(), 4u);
  EXPECT_EQ(set.ToVector(), (std::vector<uint32_t>{0, 63, 64, 129}));

  set.Grow(1000);
  EXPECT_TRUE(set.Contains(129));  // members preserved
  set.Add(999);
  EXPECT_TRUE(set.Contains(999));
  set.Grow(10);  // never shrinks
  EXPECT_TRUE(set.Contains(999));
}

TEST(DenseBitsetTest, IntersectAndUnionMatchSetAlgebra) {
  DenseBitset a(200), b(100);
  for (uint32_t id : {1u, 70u, 99u, 150u}) a.Add(id);
  for (uint32_t id : {1u, 99u}) b.Add(id);
  // Intersect truncates beyond b's universe and returns the fused count.
  EXPECT_EQ(a.IntersectWith(b), 2u);
  EXPECT_EQ(a.ToVector(), (std::vector<uint32_t>{1, 99}));
  EXPECT_FALSE(a.Contains(150));

  DenseBitset c(10);
  c.Add(3);
  DenseBitset d(300);
  d.Add(3);
  d.Add(290);
  c.UnionWith(d);  // grows c
  EXPECT_EQ(c.ToVector(), (std::vector<uint32_t>{3, 290}));
}

// --- dictionary-match cache -------------------------------------------------

std::vector<uint32_t> BruteForceMatches(const StringInterner& dict,
                                        const LikeMatcher& matcher) {
  std::vector<uint32_t> out;
  dict.ForEach([&](StringId id, std::string_view text) {
    if (matcher.Matches(text)) out.push_back(id);
  });
  return out;
}

TEST(DictionaryMatchCacheTest, MatchesBruteForceAndCachesByPattern) {
  StringInterner dict;
  for (int i = 0; i < 100; ++i) {
    dict.Intern((i % 3 == 0 ? "/usr/bin/tool" : "/tmp/scratch") +
                std::to_string(i));
  }
  DictionaryMatchCache cache;
  for (const char* pattern :
       {"/usr/bin/%", "%scratch%", "/tmp/scratch1", "%9", "nomatch"}) {
    LikeMatcher matcher(pattern);
    auto match = cache.Match(dict, matcher);
    ASSERT_NE(match, nullptr);
    EXPECT_EQ(match->version, dict.version());
    EXPECT_EQ(match->bits.ToVector(), BruteForceMatches(dict, matcher))
        << "pattern=" << pattern;
    // Same pattern again: cache hit, same immutable object.
    EXPECT_EQ(cache.Match(dict, matcher).get(), match.get());
  }
  EXPECT_EQ(cache.size(), 5u);
}

TEST(DictionaryMatchCacheTest, StaleEntryExtendsOverAppendedTail) {
  StringInterner dict;
  dict.Intern("cmd.exe");
  dict.Intern("bash");
  DictionaryMatchCache cache;
  LikeMatcher matcher("%.exe");
  auto before = cache.Match(dict, matcher);
  EXPECT_EQ(before->bits.ToVector(), (std::vector<uint32_t>{0}));
  EXPECT_EQ(before->version, 2u);

  // Streaming append grows the dictionary; the entry is now stale.
  dict.Intern("powershell.exe");
  dict.Intern("sshd");
  auto after = cache.Match(dict, matcher);
  ASSERT_NE(after.get(), before.get());  // fresh immutable publication
  EXPECT_EQ(after->version, 4u);
  EXPECT_EQ(after->bits.ToVector(), (std::vector<uint32_t>{0, 2}));
  // The old shared_ptr a concurrent reader might hold is untouched.
  EXPECT_EQ(before->version, 2u);
  EXPECT_EQ(before->bits.ToVector(), (std::vector<uint32_t>{0}));
  // And the refreshed entry replaced the stale one in place.
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_EQ(cache.Match(dict, matcher).get(), after.get());
}

TEST(DictionaryMatchCacheTest, EpochClearBoundsEntryCount) {
  StringInterner dict;
  dict.Intern("value");
  DictionaryMatchCache cache;
  for (size_t i = 0; i < DictionaryMatchCache::kMaxEntries + 50; ++i) {
    cache.Match(dict, LikeMatcher("pattern" + std::to_string(i)));
    EXPECT_LE(cache.size(), DictionaryMatchCache::kMaxEntries);
  }
}

TEST(DictionaryMatchCacheTest, ConcurrentMatchersSeeConsistentBitsets) {
  // ReadView contract: the dictionary is stable while queries run; many
  // query threads may Match the same cache concurrently (first-wins insert
  // races, stale-entry refresh races). Run alternating stable phases with a
  // growing dictionary in between; every thread verifies full bitset
  // contents against brute force. tsan covers the synchronization.
  StringInterner dict;
  DictionaryMatchCache cache;
  const std::vector<std::string> patterns = {"%.exe", "proc%", "%7%",
                                             "proc4.exe", "%"};
  std::atomic<int> mismatches{0};
  for (int phase = 0; phase < 3; ++phase) {
    for (int i = 0; i < 40; ++i) {
      dict.Intern("proc" + std::to_string(phase * 40 + i) +
                  (i % 2 == 0 ? ".exe" : ".so"));
    }
    std::vector<std::thread> threads;
    for (int t = 0; t < 4; ++t) {
      threads.emplace_back([&, t] {
        for (int round = 0; round < 20; ++round) {
          LikeMatcher matcher(patterns[(t + round) % patterns.size()]);
          auto match = cache.Match(dict, matcher);
          if (match == nullptr || match->version != dict.version() ||
              match->bits.ToVector() != BruteForceMatches(dict, matcher)) {
            mismatches.fetch_add(1);
          }
        }
      });
    }
    for (std::thread& thread : threads) thread.join();
  }
  EXPECT_EQ(mismatches.load(), 0);
}

// --- ScanPartition vs a brute-force reference --------------------------------

/// A database with all three object kinds, several agents, duplicate
/// subject/object ids, and enough rows that partitions span multiple
/// governance strides. dedup_window = 0 keeps row counts predictable.
AuditDatabase KernelDatabase(int rows) {
  StorageOptions options;
  options.dedup_window = 0;
  AuditDatabase db(options);
  Rng rng(20180510);
  const OpType ops[] = {OpType::kRead,    OpType::kWrite,  OpType::kExecute,
                        OpType::kConnect, OpType::kAccept, OpType::kStart};
  for (int i = 0; i < rows; ++i) {
    EventRecord record;
    record.agent_id = 1 + (i % 4);
    record.op = ops[rng.Uniform(6)];
    record.start_ts = T0() + static_cast<Duration>(rng.Uniform(4 * kHour));
    record.end_ts = record.start_ts + kSecond;
    record.amount = 1 + rng.Uniform(4096);
    record.subject =
        ProcessRef{record.agent_id, static_cast<uint32_t>(100 + (i % 7)),
                   "exe" + std::to_string(i % 5), "root"};
    switch (i % 3) {
      case 0:
        record.object = FileRef{record.agent_id,
                                "/data/f" + std::to_string(i % 11)};
        break;
      case 1:
        record.object = ProcessRef{
            record.agent_id, static_cast<uint32_t>(100 + ((i + 1) % 7)),
            "exe" + std::to_string((i + 1) % 5), "root"};
        break;
      default:
        record.object = NetworkRef{record.agent_id, "10.0.0.1",
                                   "10.1.2." + std::to_string(i % 9),
                                   1234, 443, "tcp"};
    }
    EXPECT_TRUE(db.Append(std::move(record)).ok());
  }
  db.Seal();
  return db;
}

CompiledPattern RandomPattern(const AuditDatabase& db, Rng* rng) {
  CompiledPattern pattern;
  pattern.op_mask = static_cast<OpMask>(1 + rng->Uniform(0x1FF));
  pattern.subject.type = EntityType::kProcess;
  pattern.object.type = static_cast<EntityType>(rng->Uniform(3));
  // Random candidate sets, universe-sized as CompilePatterns would build
  // them. ~Half the configs constrain each side.
  if (rng->Uniform(2) == 0) {
    size_t universe = db.entities().NumEntities(EntityType::kProcess);
    EntitySet candidates(universe);
    for (size_t id = 0; id < universe; ++id) {
      if (rng->Uniform(3) == 0) candidates.Add(static_cast<uint32_t>(id));
    }
    pattern.subject.candidates = std::move(candidates);
    pattern.subject.has_constraints = true;
  }
  if (rng->Uniform(2) == 0) {
    // Now and then a universe smaller than the id space, so some object
    // ids fall outside the candidate set's words.
    size_t universe = rng->Uniform(4) == 0
                          ? 1 + rng->Uniform(3)
                          : db.entities().NumEntities(pattern.object.type);
    EntitySet candidates(universe);
    for (size_t id = 0; id < universe; ++id) {
      if (rng->Uniform(2) == 0) candidates.Add(static_cast<uint32_t>(id));
    }
    pattern.object.candidates = std::move(candidates);
    pattern.object.has_constraints = true;
  }
  return pattern;
}

TimeRange RandomRange(Rng* rng) {
  switch (rng->Uniform(4)) {
    case 0:
      return TimeRange{INT64_MIN, INT64_MAX};
    case 1:
      return TimeRange{T0() + kHour, T0() + 3 * kHour};
    case 2:
      return TimeRange{T0() + static_cast<Duration>(rng->Uniform(2 * kHour)),
                       T0() + 2 * kHour +
                           static_cast<Duration>(rng->Uniform(2 * kHour))};
    default:  // empty-ish sliver
      return TimeRange{T0() + 90 * kMinute, T0() + 91 * kMinute};
  }
}

/// What ScanPartition must produce for one partition.
struct ReferenceScan {
  std::vector<EventRef> matches;  ///< ascending row order
  uint64_t inspected = 0;
};

bool ReferenceAccepts(const EntityFilter& filter, EntityId id) {
  return !filter.candidates.has_value() || filter.candidates->Contains(id);
}

/// Brute-force scan over Row(i). The walk inspects every event starting in
/// `range` (the columnar path), or only those of the pattern's ops when
/// they are at most half of them (the posting path); no op in range means
/// nothing is inspected. Under `ctx`, each inspected row counts; every
/// kCheckStride-th row is charged before it is tested and stops the walk
/// when the charge fails, and any other row stops it untested once the
/// context has stopped. Leftover rows are charged at the end.
ReferenceScan Reference(const EventPartition& partition,
                        const CompiledPattern& pattern, const TimeRange& range,
                        bool same_var, QueryContext* ctx = nullptr) {
  std::vector<uint32_t> in_range, of_ops;
  for (uint32_t i = 0; i < partition.size(); ++i) {
    const Event e = partition.Row(i);
    if (!range.Contains(e.start_ts)) continue;
    in_range.push_back(i);
    if (OpMaskContains(pattern.op_mask, e.op)) of_ops.push_back(i);
  }
  ReferenceScan ref;
  if (of_ops.empty()) return ref;
  const std::vector<uint32_t>& walk =
      of_ops.size() * 2 <= in_range.size() ? of_ops : in_range;
  uint64_t since_check = 0;
  for (uint32_t i : walk) {
    ++ref.inspected;
    if (ctx != nullptr) {
      if (++since_check < QueryContext::kCheckStride) {
        if (ctx->stopped()) break;
      } else {
        const bool ok = ctx->ChargeRows(since_check).ok();
        since_check = 0;
        if (!ok) break;
      }
    }
    const Event e = partition.Row(i);
    if (OpMaskContains(pattern.op_mask, e.op) &&
        e.object_type == pattern.object.type &&
        ReferenceAccepts(pattern.subject, e.subject) &&
        ReferenceAccepts(pattern.object, e.object) &&
        (!same_var || e.subject == e.object)) {
      ref.matches.push_back(EventRef{&partition, i});
    }
  }
  if (ctx != nullptr && since_check > 0) ctx->ChargeRows(since_check);
  return ref;
}

TEST(ScanKernelDifferentialTest, ScanMatchesBruteForceReference) {
  AuditDatabase db = KernelDatabase(4000);
  Rng rng(42);
  int configs_with_matches = 0;
  for (int config = 0; config < 60; ++config) {
    CompiledPattern pattern = RandomPattern(db, &rng);
    TimeRange range = RandomRange(&rng);
    bool same_var = rng.Uniform(4) == 0;
    size_t total_matches = 0;
    for (const auto& [key, partition] : db.partitions()) {
      std::vector<EventRef> out;
      uint64_t inspected =
          ScanPartition(*partition, pattern, range, same_var, &out);
      ReferenceScan ref = Reference(*partition, pattern, range, same_var);
      EXPECT_EQ(out, ref.matches) << "config=" << config;
      EXPECT_EQ(inspected, ref.inspected) << "config=" << config;
      total_matches += out.size();
    }
    if (total_matches > 0) ++configs_with_matches;
  }
  // The differential is vacuous if nothing ever matches.
  EXPECT_GT(configs_with_matches, 10);
}

TEST(ScanKernelDifferentialTest, EmptyCandidateSetMatchesNothing) {
  AuditDatabase db = KernelDatabase(500);
  CompiledPattern pattern;
  pattern.op_mask = static_cast<OpMask>(0x1FF);
  pattern.subject.type = EntityType::kProcess;
  pattern.object.type = EntityType::kFile;
  pattern.subject.candidates = EntitySet(0);  // zero-word landing pad
  pattern.subject.has_constraints = true;
  for (const auto& [key, partition] : db.partitions()) {
    std::vector<EventRef> out;
    ScanPartition(*partition, pattern, TimeRange{INT64_MIN, INT64_MAX}, false,
                  &out);
    EXPECT_TRUE(out.empty());
  }
}

TEST(ScanKernelDifferentialTest, GovernedBudgetsChargeLikeReference) {
  AuditDatabase db = KernelDatabase(6000);
  Rng rng(7);
  // Budgets straddling stride (1024) and batch (16) boundaries, including
  // mid-batch and mid-stride stops.
  const uint64_t budgets[] = {1, 7, 16, 100, 1023, 1024, 1025, 1500,
                              2048, 5000, 100000};
  for (uint64_t budget : budgets) {
    CompiledPattern pattern = RandomPattern(db, &rng);
    TimeRange range = RandomRange(&rng);
    QueryLimits limits;
    limits.max_rows = budget;
    QueryContext ctx_scan(limits), ctx_ref(limits);
    uint64_t inspected = 0, ref_inspected = 0;
    std::vector<EventRef> out, ref_matches;
    for (const auto& [key, partition] : db.partitions()) {
      inspected +=
          ScanPartition(*partition, pattern, range, false, &out, &ctx_scan);
      ReferenceScan ref = Reference(*partition, pattern, range, false, &ctx_ref);
      ref_inspected += ref.inspected;
      ref_matches.insert(ref_matches.end(), ref.matches.begin(),
                         ref.matches.end());
    }
    EXPECT_EQ(out, ref_matches) << "budget=" << budget;
    EXPECT_EQ(inspected, ref_inspected) << "budget=" << budget;
    EXPECT_EQ(ctx_scan.rows_charged(), ctx_ref.rows_charged())
        << "budget=" << budget;
    EXPECT_EQ(ctx_scan.Check().code(), ctx_ref.Check().code())
        << "budget=" << budget;
  }
}

TEST(ScanKernelDifferentialTest, ExhaustedBudgetStopsScanUpFront) {
  AuditDatabase db = KernelDatabase(2000);
  CompiledPattern pattern;
  pattern.op_mask = static_cast<OpMask>(0x1FF);
  pattern.subject.type = EntityType::kProcess;
  pattern.object.type = EntityType::kFile;
  QueryLimits limits;
  limits.max_rows = 1;
  QueryContext ctx(limits);
  ASSERT_FALSE(ctx.ChargeRows(10).ok());  // already violated
  std::vector<EventRef> out;
  for (const auto& [key, partition] : db.partitions()) {
    ScanPartition(*partition, pattern, TimeRange{INT64_MIN, INT64_MAX}, false,
                  &out, &ctx);
  }
  EXPECT_TRUE(out.empty());
  EXPECT_EQ(ctx.Check().code(), StatusCode::kResourceExhausted);
}

}  // namespace
}  // namespace aiql
