// Direct tests of the snapshot v2 partition-segment decoder: forged
// subject-exe statistics must be refused, and seeded mutations of a valid
// segment (bit flips, truncations, forged varints) must each yield either a
// clean Status or a partition whose seal invariants all hold — never a
// crash.

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.h"
#include "common/varint.h"
#include "storage/database.h"
#include "storage/partition.h"
#include "storage/snapshot_format.h"

namespace aiql {
namespace {

Timestamp T0() { return *MakeTimestamp(2018, 5, 10); }

/// One partition's worth of mixed events: three exes, every object type,
/// several ops, and dedup merges so merge counts exceed one.
AuditDatabase BuildDatabase() {
  StorageOptions options;
  options.partition_duration = kDay;
  options.dedup_window = 2 * kSecond;
  AuditDatabase db(options);
  const OpType ops[] = {OpType::kRead, OpType::kWrite, OpType::kConnect,
                        OpType::kStart, OpType::kExecute};
  for (int i = 0; i < 240; ++i) {
    EventRecord record;
    record.agent_id = 1;
    record.op = ops[i % 5];
    record.start_ts = T0() + (i / 2) * kMinute + (i % 2) * kSecond;
    record.end_ts = record.start_ts + (i % 4) * kSecond;
    record.amount = 100 + i * 37;
    record.subject =
        ProcessRef{1, static_cast<uint32_t>(10 + i % 3),
                   "exe" + std::to_string(i % 3), "root"};
    switch (i % 3) {
      case 0:
        record.object = FileRef{1, "/var/f" + std::to_string(i % 11)};
        break;
      case 1:
        record.object = NetworkRef{1, "10.0.0.1",
                                   "10.0.0." + std::to_string(2 + i % 5),
                                   4000, 443, "tcp"};
        break;
      default:
        record.object = ProcessRef{1, static_cast<uint32_t>(500 + i % 7),
                                   "child", "root"};
        break;
    }
    EXPECT_TRUE(db.Append(record).ok());
    // A repeat within the dedup window merges into the event just added.
    if (i % 4 == 0) {
      EXPECT_TRUE(db.Append(record).ok());
    }
  }
  EXPECT_TRUE(db.Seal().ok());
  return db;
}

/// A copy of every artifact of a sealed partition.
SealedPartitionParts CopyParts(const EventPartition& partition) {
  SealedPartitionParts parts;
  parts.events = partition.events();
  parts.columns = partition.columns();
  for (int op = 0; op < kNumOpTypes; ++op) {
    parts.postings[op] = partition.posting(static_cast<OpType>(op));
  }
  parts.subject_index = partition.subject_index();
  parts.object_index = partition.object_index();
  parts.subject_exe_counts = partition.subject_exe_counts();
  parts.min_ts = partition.min_ts();
  parts.max_ts = partition.max_ts();
  parts.raw_count = partition.raw_event_count();
  return parts;
}

/// Checks every seal invariant the engine relies on; returns "" when all
/// hold, else the first violation.
std::string CheckInvariants(const EventPartition& p,
                            const EntityStore& store) {
  if (!p.sealed()) return "not sealed";
  const size_t n = p.size();
  const EventColumns& cols = p.columns();
  if (cols.size() != n || cols.end_ts.size() != n ||
      cols.subject.size() != n || cols.object.size() != n ||
      cols.agent_id.size() != n || cols.amount.size() != n ||
      cols.op.size() != n || cols.object_type.size() != n) {
    return "column sizes";
  }
  uint64_t raw = 0;
  for (size_t i = 0; i < n; ++i) {
    const Event& e = p.events()[i];
    if (cols.start_ts[i] != e.start_ts || cols.end_ts[i] != e.end_ts ||
        cols.subject[i] != e.subject || cols.object[i] != e.object ||
        cols.agent_id[i] != e.agent_id || cols.amount[i] != e.amount ||
        cols.op[i] != e.op || cols.object_type[i] != e.object_type) {
      return "columns disagree with rows";
    }
    if (e.end_ts < e.start_ts) return "interval";
    if (i > 0 && (e.start_ts < p.events()[i - 1].start_ts ||
                  (e.start_ts == p.events()[i - 1].start_ts &&
                   e.end_ts < p.events()[i - 1].end_ts))) {
      return "order";
    }
    if (static_cast<int>(e.op) >= kNumOpTypes ||
        static_cast<int>(e.object_type) >= kNumEntityTypes) {
      return "enum domain";
    }
    if (e.subject >= store.processes().size() ||
        e.object >= store.NumEntities(e.object_type)) {
      return "entity bounds";
    }
    if (e.merge_count == 0) return "merge count";
    raw += e.merge_count;
  }
  if (raw != p.raw_event_count()) return "raw count";
  if (n > 0 && (p.min_ts() != p.events().front().start_ts)) return "min_ts";

  std::vector<int> covered(n, 0);
  for (int op = 0; op < kNumOpTypes; ++op) {
    const OpPostingList& list = p.posting(static_cast<OpType>(op));
    if (list.size() != p.OpCount(static_cast<OpType>(op))) return "op count";
    for (size_t i = 0; i < list.size(); ++i) {
      uint32_t index = list.indexes[i];
      if (index >= n || (i > 0 && index <= list.indexes[i - 1])) {
        return "posting order";
      }
      if (cols.op[index] != static_cast<OpType>(op)) return "posting op";
      ++covered[index];
    }
    if (!list.empty() &&
        (list.min_start_ts != cols.start_ts[list.indexes.front()] ||
         list.max_start_ts != cols.start_ts[list.indexes.back()])) {
      return "zone map";
    }
  }
  if (std::any_of(covered.begin(), covered.end(),
                  [](int c) { return c != 1; })) {
    return "posting coverage";
  }

  for (bool subject : {true, false}) {
    const EntityPostingIndex& index =
        subject ? p.subject_index() : p.object_index();
    if (index.offsets.size() != index.keys.size() + 1 ||
        index.offsets.front() != 0 || index.offsets.back() != n ||
        index.indexes.size() != n) {
      return "entity index shape";
    }
    std::fill(covered.begin(), covered.end(), 0);
    for (size_t k = 0; k < index.keys.size(); ++k) {
      if (k > 0 && index.keys[k] <= index.keys[k - 1]) return "key order";
      if (index.offsets[k] >= index.offsets[k + 1]) return "empty group";
      for (uint32_t i = index.offsets[k]; i < index.offsets[k + 1]; ++i) {
        uint32_t event = index.indexes[i];
        if (event >= n) return "entity index bounds";
        if (i > index.offsets[k] && event <= index.indexes[i - 1]) {
          return "group order";
        }
        uint64_t key = subject
                           ? cols.subject[event]
                           : EventPartition::ObjectKey(cols.object_type[event],
                                                       cols.object[event]);
        if (key != index.keys[k]) return "group key";
        ++covered[event];
      }
    }
    if (std::any_of(covered.begin(), covered.end(),
                    [](int c) { return c != 1; })) {
      return "entity index coverage";
    }
  }

  uint64_t exe_total = 0;
  for (const auto& [exe, count] : p.subject_exe_counts()) {
    if (exe >= store.exe_names().size() || count == 0) return "exe stats";
    exe_total += count;
  }
  if (exe_total > n) return "exe stats total";
  return "";
}

TEST(SegmentCursorTest, VarintsDecodeExactlyAsGetVarint64) {
  // Canonical encodings of every bit length, non-canonical (padded) ones,
  // 10-byte encodings carrying bits past the 64th, and unterminated runs —
  // each placed 0..12 bytes before the end of the section, so both the
  // word-at-a-time path and the byte-wise tail path see every case.
  std::vector<std::string> encodings;
  for (int bits = 0; bits <= 64; ++bits) {
    uint64_t v = bits == 0 ? 0 : (~uint64_t{0} >> (64 - bits));
    std::string e;
    PutVarint64(&e, v);
    encodings.push_back(e);
    PutVarint64(&e, v ^ 0x5555555555555555ULL);
    encodings.push_back(e.substr(e.size() / 2));
  }
  encodings.push_back(std::string("\x81\x80\x00", 3));
  encodings.push_back(std::string("\xFF\xFF\xFF\xFF\xFF\xFF\xFF\x80\x00", 9));
  encodings.push_back(std::string(9, '\xFF') + std::string(1, '\x7F'));
  encodings.push_back(std::string(10, '\xFF'));
  encodings.push_back(std::string(11, '\x80') + std::string(1, '\x01'));
  encodings.push_back(std::string(3, '\x80'));
  for (const std::string& encoding : encodings) {
    for (size_t pad = 0; pad <= 12; ++pad) {
      const std::string bytes = encoding + std::string(pad, '\x01');
      uint64_t expected = 0;
      const char* next =
          GetVarint64(bytes.data(), bytes.data() + bytes.size(), &expected);
      snapfmt::Cursor cur(bytes);
      const uint64_t got = cur.U64();
      ASSERT_EQ(cur.ok(), next != nullptr) << "pad " << pad;
      if (next == nullptr) {
        EXPECT_EQ(cur.remaining(), 0u);
        EXPECT_EQ(cur.U64(), 0u);  // failure is sticky
        EXPECT_FALSE(cur.ok());
        continue;
      }
      EXPECT_EQ(got, expected) << "pad " << pad;
      EXPECT_EQ(cur.remaining(),
                static_cast<size_t>(bytes.data() + bytes.size() - next));
    }
  }
}

class SegmentDecodeTest : public ::testing::Test {
 protected:
  void SetUp() override {
    db_ = std::make_unique<AuditDatabase>(BuildDatabase());
    auto sealed = db_->ListSealedPartitions();
    ASSERT_EQ(sealed.size(), 1u);
    partition_ = sealed[0].second;
    snapfmt::EncodePartitionSegment(*partition_, &segment_);
    entry_ = snapfmt::MakeDirEntry(0, 1, 0, snapfmt::SegmentRef{},
                                   *partition_);
    ASSERT_GE(partition_->subject_exe_counts().size(), 3u);
    ASSERT_GT(partition_->raw_event_count(), partition_->size());
  }

  const EntityStore& store() const { return db_->entities(); }

  Status Decode(std::string_view bytes, EventPartition* out) const {
    return snapfmt::DecodePartitionSegment(bytes, entry_, store(), out);
  }

  /// Decodes `bytes`: a failure must be a clean Corruption, a success must
  /// leave every seal invariant intact.
  void ExpectCleanOutcome(const std::string& bytes, const std::string& what) {
    EventPartition decoded;
    Status status = Decode(bytes, &decoded);
    if (!status.ok()) {
      EXPECT_EQ(status.code(), StatusCode::kCorruption)
          << what << ": " << status.ToString();
      return;
    }
    EXPECT_EQ(CheckInvariants(decoded, store()), "") << what;
    // ... and agree with the directory entry it was checked against.
    EXPECT_EQ(decoded.size(), entry_.events) << what;
    EXPECT_EQ(decoded.raw_event_count(), entry_.raw_events) << what;
    EXPECT_EQ(decoded.min_ts(), entry_.min_ts) << what;
    EXPECT_EQ(decoded.max_ts(), entry_.max_ts) << what;
    for (int op = 0; op < kNumOpTypes; ++op) {
      EXPECT_EQ(decoded.OpCount(static_cast<OpType>(op)), entry_.op_counts[op])
          << what;
    }
  }

  std::unique_ptr<AuditDatabase> db_;
  const EventPartition* partition_ = nullptr;
  std::string segment_;
  snapfmt::PartitionDirEntry entry_;
};

TEST_F(SegmentDecodeTest, ValidSegmentDecodesWithEveryInvariant) {
  EventPartition decoded;
  ASSERT_TRUE(Decode(segment_, &decoded).ok());
  EXPECT_EQ(CheckInvariants(decoded, store()), "");
  EXPECT_EQ(decoded.size(), partition_->size());
  EXPECT_EQ(decoded.subject_exe_counts(), partition_->subject_exe_counts());
}

TEST_F(SegmentDecodeTest, ForgedExeStatisticsAreRefused) {
  // The exe-statistics section sits between the posting lists and the
  // entity indexes. Locate it by encoding the same partition without
  // statistics: that encoding differs exactly there, with a zero count.
  SealedPartitionParts parts = CopyParts(*partition_);
  parts.subject_exe_counts.clear();
  EventPartition bare;
  bare.RestoreSealed(std::move(parts));
  std::string bare_segment;
  snapfmt::EncodePartitionSegment(bare, &bare_segment);
  auto diff = std::mismatch(bare_segment.begin(), bare_segment.end(),
                            segment_.begin());
  const size_t prefix = static_cast<size_t>(diff.first - bare_segment.begin());
  ASSERT_LT(prefix, bare_segment.size());
  ASSERT_EQ(bare_segment[prefix], '\0');
  const std::string head = segment_.substr(0, prefix);
  const std::string tail = bare_segment.substr(prefix + 1);
  ASSERT_TRUE(segment_.size() > head.size() + tail.size());
  ASSERT_EQ(segment_.substr(segment_.size() - tail.size()), tail);

  const uint64_t n = partition_->size();
  auto forge = [&](const std::vector<std::pair<uint64_t, uint64_t>>& stats) {
    std::string section;
    PutVarint64(&section, stats.size());
    for (const auto& [exe, count] : stats) {
      PutVarint64(&section, exe);
      PutVarint64(&section, count);
    }
    EventPartition decoded;
    return Decode(head + section + tail, &decoded);
  };

  // Controls: well-formed sections decode.
  EXPECT_TRUE(forge({}).ok());
  EXPECT_TRUE(forge({{0, 1}, {1, 2}, {2, n - 3}}).ok());

  const std::vector<std::vector<std::pair<uint64_t, uint64_t>>> forged = {
      {{1, 1}, {1, 1}},           // duplicate exe id
      {{2, 1}, {0, 1}},           // unordered exe ids
      {{0, 0}},                   // zero count
      {{0, n + 1}},               // one count above the event total
      {{0, n}, {1, 1}},           // counts summing above the event total
      {{0, UINT64_MAX}, {1, 2}},  // a sum that would wrap
      {{store().exe_names().size(), 1}},  // unknown exe id
  };
  for (size_t i = 0; i < forged.size(); ++i) {
    Status status = forge(forged[i]);
    EXPECT_EQ(status.code(), StatusCode::kCorruption) << "case " << i;
  }
}

TEST_F(SegmentDecodeTest, SeededMutationsNeverCrash) {
  Rng rng(20181);
  // Every truncation.
  for (size_t cut = 0; cut < segment_.size(); ++cut) {
    ExpectCleanOutcome(segment_.substr(0, cut),
                       "truncated to " + std::to_string(cut));
  }
  // Seeded single- and multi-bit flips.
  for (int c = 0; c < 3000; ++c) {
    std::string bytes = segment_;
    const int flips = 1 + static_cast<int>(rng.Uniform(3));
    for (int f = 0; f < flips; ++f) {
      size_t pos = rng.Uniform(bytes.size());
      bytes[pos] = static_cast<char>(bytes[pos] ^ (1 << rng.Uniform(8)));
    }
    ExpectCleanOutcome(bytes, "bit-flip case " + std::to_string(c));
  }
  // Forged varints: a varint boundary (the byte after a terminating byte)
  // gets a varint of a hostile value spliced over the original one, or a
  // run of continuation bytes that never terminates within 10 bytes.
  std::vector<size_t> starts = {0};
  for (size_t i = 0; i + 1 < segment_.size(); ++i) {
    if ((static_cast<uint8_t>(segment_[i]) & 0x80) == 0) starts.push_back(i + 1);
  }
  const uint64_t n = partition_->size();
  const uint64_t hostile[] = {0,          1,          n - 1,
                              n,          n + 1,      UINT32_MAX,
                              1ull << 32, 1ull << 63, UINT64_MAX};
  for (int c = 0; c < 3000; ++c) {
    size_t start = starts[rng.Uniform(starts.size())];
    size_t end = start;
    while (end < segment_.size() &&
           (static_cast<uint8_t>(segment_[end]) & 0x80) != 0) {
      ++end;
    }
    end = std::min(end + 1, segment_.size());
    std::string forged;
    if (rng.Uniform(8) == 0) {
      forged.assign(10 + rng.Uniform(3), static_cast<char>(0xFF));
    } else {
      PutVarint64(&forged, hostile[rng.Uniform(std::size(hostile))]);
    }
    std::string bytes =
        segment_.substr(0, start) + forged + segment_.substr(end);
    ExpectCleanOutcome(bytes, "forged varint case " + std::to_string(c) +
                                  " at " + std::to_string(start));
  }
}

}  // namespace
}  // namespace aiql
