// Direct tests of the snapshot v2 partition-segment and footer decoders:
// seeded mutations of a valid segment (bit flips, truncations, forged
// varints, forged bases and widths of every bit-packed block) must each
// yield either a clean Status or a partition whose seal invariants all
// hold — never a crash. The footer directory's statistics, which partition
// selection trusts without decoding a segment, must be refused when forged
// (op counts, event counts, time bounds, op fences, exe counts, summary
// length), mutated footers must decode cleanly or not at all, and a
// segment must not reopen against a summary its own reverse indexes do not
// rebuild, nor with agent runs naming another agent than its directory
// entry.

#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "common/bitpack.h"
#include "common/checksum.h"
#include "common/rng.h"
#include "common/varint.h"
#include "storage/database.h"
#include "storage/key_summary.h"
#include "storage/partition.h"
#include "storage/snapshot.h"
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

/// Checks every seal invariant the engine relies on; returns "" when all
/// hold, else the first violation.
std::string CheckInvariants(const EventPartition& p,
                            const EntityStore& store) {
  if (!p.sealed()) return "not sealed";
  const size_t n = p.size();
  const EventColumns& cols = p.columns();
  if (cols.size() != n || cols.end_ts.size() != n ||
      cols.subject.size() != n || cols.object.size() != n ||
      cols.amount.size() != n ||
      cols.merge_count.size() != n || cols.op.size() != n ||
      cols.object_type.size() != n) {
    return "column sizes";
  }
  uint64_t raw = 0;
  for (size_t i = 0; i < n; ++i) {
    const Event e = p.Row(i);
    if (e.agent_id != p.agent_id()) return "agent";
    if (e.end_ts < e.start_ts) return "interval";
    if (i > 0 && (e.start_ts < p.Row(i - 1).start_ts ||
                  (e.start_ts == p.Row(i - 1).start_ts &&
                   e.end_ts < p.Row(i - 1).end_ts))) {
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
  if (n > 0 && (p.min_ts() != cols.start_ts.front())) return "min_ts";

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
    EXPECT_EQ(decoded.agent_id(), entry_.agent) << what;
    EXPECT_EQ(decoded.size(), entry_.events) << what;
    EXPECT_EQ(decoded.raw_event_count(), entry_.raw_events) << what;
    EXPECT_EQ(decoded.min_ts(), entry_.min_ts) << what;
    EXPECT_EQ(decoded.max_ts(), entry_.max_ts) << what;
    for (int op = 0; op < kNumOpTypes; ++op) {
      EXPECT_EQ(decoded.OpCount(static_cast<OpType>(op)), entry_.op_counts[op])
          << what;
    }
  }

  /// Where a packed block (common/bitpack.h) of segment_ sits: its base
  /// varint at `base`, its width byte at `width`.
  struct BlockAt {
    size_t base = 0;
    size_t width = 0;
  };
  struct Layout {
    size_t agent_runs = 0;
    std::vector<BlockAt> blocks;
  };

  /// Walks segment_'s v6 layout: the event count, the first start, four
  /// packed columns (start deltas, durations, subjects, objects), the agent
  /// runs, two more (amounts, merge counts), the object-type runs, nine
  /// (count, packed deltas) posting lists, and two reverse indexes of a
  /// key count and four packed streams each.
  Layout Walk() const {
    Layout layout;
    const char* begin = segment_.data();
    const char* end = begin + segment_.size();
    const char* p = begin;
    auto varint = [&] {
      uint64_t v = 0;
      p = GetVarint64(p, end, &v);
      EXPECT_NE(p, nullptr);
      return v;
    };
    auto packed = [&](uint64_t count) {
      for (uint64_t first = 0; first < count; first += bitpack::kBlockSize) {
        const size_t m = static_cast<size_t>(
            std::min<uint64_t>(bitpack::kBlockSize, count - first));
        BlockAt block;
        block.base = static_cast<size_t>(p - begin);
        varint();
        block.width = static_cast<size_t>(p - begin);
        const unsigned width = static_cast<uint8_t>(*p++);
        p += bitpack::PayloadBytes(m, width);
        layout.blocks.push_back(block);
      }
    };
    const uint64_t n = varint();
    varint();
    packed(n - 1);
    for (int column = 0; column < 3; ++column) packed(n);
    layout.agent_runs = static_cast<size_t>(p - begin);
    varint();
    varint();
    packed(n);
    packed(n);
    for (uint64_t covered = 0; covered < n;) {
      ++p;  // object type byte
      covered += varint();
    }
    for (int op = 0; op < kNumOpTypes; ++op) packed(varint());
    for (int index = 0; index < 2; ++index) {
      const uint64_t keys = varint();
      for (int stream = 0; stream < 3; ++stream) packed(keys);
      packed(n - keys);
    }
    EXPECT_EQ(p, end);
    return layout;
  }

  size_t AgentRunsOffset() const { return Walk().agent_runs; }

  /// segment_ with its agent runs, (agent 1, n events), replaced by `runs`.
  std::string WithAgentRuns(const std::string& runs) const {
    const size_t at = AgentRunsOffset();
    std::string original;
    PutVarint64(&original, entry_.agent);
    PutVarint64(&original, partition_->size());
    EXPECT_EQ(segment_.substr(at, original.size()), original);
    return segment_.substr(0, at) + runs +
           segment_.substr(at + original.size());
  }

  /// Writes a whole snapshot whose only partition segment is `segment`,
  /// with every checksum computed over the bytes written, and reopens that
  /// partition through a read view.
  Status ReopenSnapshotWith(const std::string& segment) const {
    std::string file;
    snapfmt::EncodeHeader(&file);
    snapfmt::FooterData footer;
    footer.options = db_->options();
    footer.stats = db_->stats();
    std::string meta;
    snapfmt::EncodeMetaSegment(store(), &meta);
    footer.meta = snapfmt::SegmentRef{file.size(), meta.size(),
                                      Checksum64(meta)};
    file += meta;
    const snapfmt::SegmentRef ref{file.size(), segment.size(),
                                  Checksum64(segment)};
    footer.partitions.push_back(snapfmt::MakeDirEntry(
        entry_.bucket, entry_.agent, entry_.seq, ref, *partition_));
    file += segment;
    const uint64_t footer_offset = file.size();
    std::string footer_bytes;
    snapfmt::EncodeFooter(footer, &footer_bytes);
    file += footer_bytes;
    snapfmt::EncodeTrailer(footer_offset, Checksum64(footer_bytes), &file);

    const std::string path = "/tmp/aiql_segment_decode_test_" +
                             std::to_string(static_cast<long>(getpid()));
    FILE* f = std::fopen(path.c_str(), "wb");
    EXPECT_NE(f, nullptr);
    if (f == nullptr) return Status::IOError("cannot write " + path);
    EXPECT_EQ(std::fwrite(file.data(), 1, file.size(), f), file.size());
    std::fclose(f);
    Status status;
    {
      auto opened = SnapshotStore::Open(path);
      if (!opened.ok()) {
        status = opened.status();
      } else {
        ReadView view = (*opened)->OpenReadView();
        status = view.SelectPartitions(TimeRange{INT64_MIN, INT64_MAX},
                                       std::nullopt, kAllOps)
                     .status();
      }
    }
    std::remove(path.c_str());
    return status;
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
  EXPECT_EQ(decoded.agent_id(), entry_.agent);
  EXPECT_EQ(decoded.size(), partition_->size());
  EXPECT_EQ(decoded.subject_exe_counts(), partition_->subject_exe_counts());
  // The writer's own bytes reopen through a whole snapshot file.
  EXPECT_TRUE(ReopenSnapshotWith(segment_).ok());
}

TEST_F(SegmentDecodeTest, AgentRunNamingAnotherAgentFailsReopen) {
  std::string runs;
  PutVarint64(&runs, entry_.agent + 1);
  PutVarint64(&runs, partition_->size());
  const Status status = ReopenSnapshotWith(WithAgentRuns(runs));
  EXPECT_EQ(status.code(), StatusCode::kCorruption) << status.ToString();
  EXPECT_NE(status.message().find("agent"), std::string::npos)
      << status.ToString();
}

TEST_F(SegmentDecodeTest, SecondAgentRunOfAnotherAgentFailsReopen) {
  // Two runs that together cover every event: the first names the entry's
  // agent, the second another one.
  const uint64_t n = partition_->size();
  std::string runs;
  PutVarint64(&runs, entry_.agent);
  PutVarint64(&runs, n / 2);
  PutVarint64(&runs, entry_.agent + 1);
  PutVarint64(&runs, n - n / 2);
  const Status status = ReopenSnapshotWith(WithAgentRuns(runs));
  EXPECT_EQ(status.code(), StatusCode::kCorruption) << status.ToString();
  EXPECT_NE(status.message().find("agent"), std::string::npos)
      << status.ToString();
  // The same split with the entry's agent in both runs is well formed.
  std::string same;
  PutVarint64(&same, entry_.agent);
  PutVarint64(&same, n / 2);
  PutVarint64(&same, entry_.agent);
  PutVarint64(&same, n - n / 2);
  EXPECT_TRUE(ReopenSnapshotWith(WithAgentRuns(same)).ok());
}

/// A one-partition footer around the fixture's directory entry, and the
/// checks DecodeFooter must leave true of any footer it accepts.
class FooterDecodeTest : public SegmentDecodeTest {
 protected:
  void SetUp() override {
    SegmentDecodeTest::SetUp();
    footer_.meta = snapfmt::SegmentRef{snapfmt::kV2HeaderSize, 1, 0};
    entry_.segment = snapfmt::SegmentRef{snapfmt::kV2HeaderSize + 1,
                                         segment_.size(), 0};
    footer_.partitions.push_back(entry_);
    data_end_ = snapfmt::kV2HeaderSize + 1 + segment_.size();
  }

  std::string Encode(const snapfmt::PartitionDirEntry& entry) const {
    snapfmt::FooterData footer = footer_;
    footer.partitions[0] = entry;
    std::string bytes;
    snapfmt::EncodeFooter(footer, &bytes);
    return bytes;
  }

  Status Decode(const std::string& bytes,
                snapfmt::FooterData* out = nullptr) const {
    snapfmt::FooterData scratch;
    return snapfmt::DecodeFooter(bytes, data_end_,
                                 out != nullptr ? out : &scratch);
  }

  /// "" when every statistic selection trusts is self-consistent.
  static std::string CheckEntry(const snapfmt::PartitionDirEntry& e) {
    uint64_t ops = 0;
    for (uint64_t count : e.op_counts) ops += count;
    if (ops != e.events) return "op counts";
    if (e.events > e.raw_events) return "raw events";
    if (e.events > 0 && e.min_ts > e.max_ts) return "time bounds";
    for (int op = 0; op < kNumOpTypes; ++op) {
      if (e.op_counts[op] == 0) continue;
      const snapfmt::StartFence& f = e.op_fences[op];
      if (f.min_start_ts < e.min_ts || f.min_start_ts > f.max_start_ts ||
          f.max_start_ts > e.max_ts) {
        return "op fence";
      }
    }
    uint64_t exe_events = 0;
    for (size_t i = 0; i < e.exe_counts.size(); ++i) {
      if (i > 0 && e.exe_counts[i].first <= e.exe_counts[i - 1].first) {
        return "exe order";
      }
      if (e.exe_counts[i].second == 0) return "exe count";
      exe_events += e.exe_counts[i].second;
    }
    if (exe_events > e.events) return "exe total";
    if (e.key_summary.size() > MaxKeySummaryBytes(e.events) ||
        e.key_summary.empty() != (e.events == 0)) {
      return "summary size";
    }
    return "";
  }

  snapfmt::FooterData footer_;
  uint64_t data_end_ = 0;
};

TEST_F(FooterDecodeTest, ValidDirectoryRoundTrips) {
  snapfmt::FooterData decoded;
  Status status = Decode(Encode(entry_), &decoded);
  ASSERT_TRUE(status.ok()) << status.ToString();
  ASSERT_EQ(decoded.partitions.size(), 1u);
  const snapfmt::PartitionDirEntry& e = decoded.partitions[0];
  EXPECT_EQ(CheckEntry(e), "");
  EXPECT_EQ(e.op_counts, entry_.op_counts);
  EXPECT_EQ(e.exe_counts, entry_.exe_counts);
  EXPECT_EQ(e.key_summary, entry_.key_summary);
  for (int op = 0; op < kNumOpTypes; ++op) {
    if (entry_.op_counts[op] == 0) continue;
    EXPECT_EQ(e.op_fences[op].min_start_ts, entry_.op_fences[op].min_start_ts);
    EXPECT_EQ(e.op_fences[op].max_start_ts, entry_.op_fences[op].max_start_ts);
    // The grid fence holds the op's exact zone map.
    const OpPostingList& list = partition_->posting(static_cast<OpType>(op));
    EXPECT_LE(e.op_fences[op].min_start_ts, list.min_start_ts);
    EXPECT_GE(e.op_fences[op].max_start_ts, list.max_start_ts);
  }
  EXPECT_TRUE(snapfmt::CheckDirectoryExes(decoded, store()).ok());
}

TEST_F(FooterDecodeTest, ForgedStatisticsAreRefused) {
  const uint64_t n = entry_.events;
  int op = 0;
  while (entry_.op_counts[op] == 0) ++op;
  std::vector<std::pair<std::string, snapfmt::PartitionDirEntry>> forged;
  auto add = [&](const std::string& what, auto mutate) {
    snapfmt::PartitionDirEntry e = entry_;
    mutate(&e);
    forged.emplace_back(what, std::move(e));
  };
  add("op counts above events", [&](auto* e) { e->op_counts[op] += 1; });
  add("op counts below events", [&](auto* e) { e->op_counts[op] -= 1; });
  add("op count wrapping the sum",
      [&](auto* e) { e->op_counts[op] = UINT64_MAX; });
  add("events above raw events",
      [&](auto* e) { e->raw_events = e->events - 1; });
  add("inverted time bounds",
      [&](auto* e) { std::swap(e->min_ts, e->max_ts); });
  add("duplicate exe id",
      [&](auto* e) { e->exe_counts = {{1, 1}, {1, 1}}; });
  add("unordered exe ids",
      [&](auto* e) { e->exe_counts = {{2, 1}, {0, 1}}; });
  add("zero exe count", [&](auto* e) { e->exe_counts = {{0, 0}}; });
  add("exe count above events",
      [&](auto* e) { e->exe_counts = {{0, n + 1}}; });
  add("exe counts summing above events",
      [&](auto* e) { e->exe_counts = {{0, n}, {1, 1}}; });
  add("exe counts wrapping the sum",
      [&](auto* e) { e->exe_counts = {{0, UINT64_MAX}, {1, 2}}; });
  add("fence starting past max_ts", [&](auto* e) {
    e->op_fences[op].min_start_ts = e->max_ts + 2 * kSecond;
    e->op_fences[op].max_start_ts = e->max_ts + 2 * kSecond;
  });
  add("fence ending past max_ts", [&](auto* e) {
    e->op_fences[op].max_start_ts = e->max_ts + 5 * kSecond;
  });
  add("summary above its bound", [&](auto* e) {
    e->key_summary.assign(MaxKeySummaryBytes(e->events) + 1, '\xFF');
  });
  add("no summary for a non-empty partition",
      [&](auto* e) { e->key_summary.clear(); });
  for (const auto& [what, entry] : forged) {
    EXPECT_EQ(Decode(Encode(entry)).code(), StatusCode::kCorruption) << what;
  }

  // Summary lengths far beyond the bytes that follow must be refused
  // before anything is allocated.
  const std::string valid = Encode(entry_);
  std::string summary_len;
  PutVarint64(&summary_len, entry_.key_summary.size());
  const size_t summary_at =
      valid.size() - entry_.key_summary.size() - summary_len.size();
  for (uint64_t len : {MaxKeySummaryBytes(n) + 1, uint64_t{1} << 40,
                       UINT64_MAX}) {
    std::string bytes = valid.substr(0, summary_at);
    PutVarint64(&bytes, len);
    bytes += entry_.key_summary;
    EXPECT_EQ(Decode(bytes).code(), StatusCode::kCorruption) << len;
  }
  // Exe ids outside the dictionary decode, and are refused once META is in.
  snapfmt::PartitionDirEntry unknown = entry_;
  unknown.exe_counts = {{static_cast<StringId>(store().exe_names().size()),
                         1}};
  snapfmt::FooterData decoded;
  ASSERT_TRUE(Decode(Encode(unknown), &decoded).ok());
  EXPECT_EQ(snapfmt::CheckDirectoryExes(decoded, store()).code(),
            StatusCode::kCorruption);
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
  // Every bit of the agent runs (agent varint, run-length varint).
  const size_t agent_at = AgentRunsOffset();
  std::string agent_runs;
  PutVarint64(&agent_runs, entry_.agent);
  PutVarint64(&agent_runs, partition_->size());
  for (size_t pos = agent_at; pos < agent_at + agent_runs.size(); ++pos) {
    for (int bit = 0; bit < 8; ++bit) {
      std::string bytes = segment_;
      bytes[pos] = static_cast<char>(bytes[pos] ^ (1 << bit));
      ExpectCleanOutcome(bytes, "agent-run flip at " + std::to_string(pos) +
                                    " bit " + std::to_string(bit));
    }
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

TEST_F(SegmentDecodeTest, ForgedBlockBasesAndWidthsNeverCrash) {
  // Every packed block of every stream gets hostile bases spliced over its
  // base varint and hostile widths written over its width byte.
  const Layout layout = Walk();
  ASSERT_GT(layout.blocks.size(), 20u);
  const uint64_t n = partition_->size();
  for (size_t b = 0; b < layout.blocks.size(); ++b) {
    const BlockAt& block = layout.blocks[b];
    uint64_t base = 0;
    ASSERT_NE(GetVarint64(segment_.data() + block.base,
                          segment_.data() + segment_.size(), &base),
              nullptr);
    const uint64_t bases[] = {0,          1,          base - 1,
                              base + 1,   n - 1,      n,
                              n + 1,      UINT32_MAX, 1ull << 32,
                              1ull << 63, UINT64_MAX - 1, UINT64_MAX};
    for (uint64_t forged_base : bases) {
      std::string forged;
      PutVarint64(&forged, forged_base);
      ExpectCleanOutcome(segment_.substr(0, block.base) + forged +
                             segment_.substr(block.width),
                         "block " + std::to_string(b) + " base " +
                             std::to_string(forged_base));
    }
    const unsigned width = static_cast<uint8_t>(segment_[block.width]);
    const unsigned widths[] = {0,  1,  width - 1, width + 1, 31, 32, 56,
                               57, 63, 64,        65,        128, 255};
    for (unsigned forged_width : widths) {
      if (forged_width > 255) continue;
      std::string bytes = segment_;
      bytes[block.width] = static_cast<char>(forged_width);
      const std::string what = "block " + std::to_string(b) + " width " +
                               std::to_string(forged_width);
      ExpectCleanOutcome(bytes, what);
      if (forged_width > bitpack::kMaxWidth) {
        EventPartition decoded;
        EXPECT_EQ(Decode(bytes, &decoded).code(), StatusCode::kCorruption)
            << what;
      }
    }
  }
}

TEST_F(FooterDecodeTest, SummaryDisagreeingWithIndexesFailsReopen) {
  // A footer that is itself well formed (it decodes, and its checksum would
  // be recomputed over these bytes) but whose entity summary has one bit
  // changed: the segment's indexes rebuild a different summary, so the
  // reopen must fail instead of serving a partition that hops could skip.
  const std::string& summary = entry_.key_summary;
  ASSERT_FALSE(summary.empty());
  int cases = 0;
  bool clear_bit_tried = false;
  for (size_t bit = 0; bit < summary.size() * 8; ++bit) {
    const char mask = static_cast<char>(1 << (bit % 8));
    // Every set bit cleared, plus the first clear bit set.
    if ((summary[bit / 8] & mask) == 0) {
      if (clear_bit_tried) continue;
      clear_bit_tried = true;
    }
    snapfmt::PartitionDirEntry forged = entry_;
    forged.key_summary[bit / 8] = static_cast<char>(summary[bit / 8] ^ mask);
    snapfmt::FooterData decoded;
    ASSERT_TRUE(Decode(Encode(forged), &decoded).ok()) << "bit " << bit;
    EventPartition reopened;
    Status status = snapfmt::DecodePartitionSegment(
        segment_, decoded.partitions[0], store(), &reopened);
    EXPECT_EQ(status.code(), StatusCode::kCorruption) << "bit " << bit;
    EXPECT_NE(status.message().find("summary"), std::string::npos)
        << status.ToString();
    ++cases;
  }
  EXPECT_GT(cases, 1);
}

TEST_F(FooterDecodeTest, SeededMutationsNeverCrash) {
  const std::string valid = Encode(entry_);
  auto expect_clean = [&](const std::string& bytes, const std::string& what) {
    snapfmt::FooterData decoded;
    Status status = Decode(bytes, &decoded);
    if (status.code() == StatusCode::kInvalidArgument) {
      // A changed options byte is refused as unsupported, not corrupt.
      EXPECT_EQ(status.message(), "unpartitioned snapshots are unsupported")
          << what;
      return;
    }
    if (!status.ok()) {
      EXPECT_EQ(status.code(), StatusCode::kCorruption)
          << what << ": " << status.ToString();
      return;
    }
    for (const snapfmt::PartitionDirEntry& e : decoded.partitions) {
      EXPECT_EQ(CheckEntry(e), "") << what;
    }
  };
  for (size_t cut = 0; cut < valid.size(); ++cut) {
    expect_clean(valid.substr(0, cut), "truncated to " + std::to_string(cut));
  }
  Rng rng(20190716);
  for (int c = 0; c < 2000; ++c) {
    std::string bytes = valid;
    const int flips = 1 + static_cast<int>(rng.Uniform(3));
    for (int f = 0; f < flips; ++f) {
      size_t pos = rng.Uniform(bytes.size());
      bytes[pos] = static_cast<char>(bytes[pos] ^ (1 << rng.Uniform(8)));
    }
    expect_clean(bytes, "bit-flip case " + std::to_string(c));
  }
  std::vector<size_t> starts = {0};
  for (size_t i = 0; i + 1 < valid.size(); ++i) {
    if ((static_cast<uint8_t>(valid[i]) & 0x80) == 0) starts.push_back(i + 1);
  }
  const uint64_t n = entry_.events;
  const uint64_t hostile[] = {0, 1, n - 1, n, n + 1, UINT32_MAX,
                              1ull << 32, 1ull << 63, UINT64_MAX};
  for (int c = 0; c < 2000; ++c) {
    size_t start = starts[rng.Uniform(starts.size())];
    size_t end = start;
    while (end < valid.size() &&
           (static_cast<uint8_t>(valid[end]) & 0x80) != 0) {
      ++end;
    }
    end = std::min(end + 1, valid.size());
    std::string forged;
    PutVarint64(&forged, hostile[rng.Uniform(std::size(hostile))]);
    expect_clean(valid.substr(0, start) + forged + valid.substr(end),
                 "forged varint case " + std::to_string(c));
  }
}

}  // namespace
}  // namespace aiql
