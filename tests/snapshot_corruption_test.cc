// Corruption-injection tests for the v2 snapshot format: every truncation
// point and every single-bit flip must surface as a clean Status — never a
// crash, never silently wrong data. Sections are targeted individually
// (magic, version, META segment, partition segments, footer, trailer), and
// a file with the retired v1 magic, or a footer whose options byte does not
// say "partitioned", must be refused as unsupported.

#include <gtest/gtest.h>

#include <cstdio>
#include <string>

#include "common/checksum.h"
#include "engine/aiql_engine.h"
#include "storage/database.h"
#include "storage/snapshot.h"
#include "storage/snapshot_format.h"

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
  record.subject = ProcessRef{agent, 7, std::move(exe), "root"};
  record.object = std::move(object);
  return record;
}

AuditDatabase BuildDatabase() {
  StorageOptions options;
  options.partition_duration = kHour;
  options.dedup_window = 2 * kSecond;
  AuditDatabase db(options);
  for (AgentId agent = 1; agent <= 2; ++agent) {
    for (int i = 0; i < 60; ++i) {
      OpType op = i % 2 == 0 ? OpType::kRead : OpType::kWrite;
      EXPECT_TRUE(db.Append(Rec(agent, op, T0() + i * 2 * kMinute, 10 + i,
                                "proc" + std::to_string(i % 3),
                                FileRef{agent,
                                        "/tmp/f" + std::to_string(i % 7)}))
                      .ok());
    }
  }
  EXPECT_TRUE(db.Seal().ok());
  return db;
}

std::string ReadFile(const std::string& path) {
  FILE* f = std::fopen(path.c_str(), "rb");
  EXPECT_NE(f, nullptr);
  std::fseek(f, 0, SEEK_END);
  long size = std::ftell(f);
  std::fseek(f, 0, SEEK_SET);
  std::string out(static_cast<size_t>(size), '\0');
  EXPECT_EQ(std::fread(out.data(), 1, out.size(), f), out.size());
  std::fclose(f);
  return out;
}

void WriteFile(const std::string& path, const std::string& bytes) {
  FILE* f = std::fopen(path.c_str(), "wb");
  ASSERT_NE(f, nullptr);
  ASSERT_EQ(std::fwrite(bytes.data(), 1, bytes.size(), f), bytes.size());
  std::fclose(f);
}

uint64_t ReadLittleEndian64(const std::string& bytes, size_t offset) {
  uint64_t v = 0;
  for (int i = 0; i < 8; ++i) {
    v |= static_cast<uint64_t>(static_cast<uint8_t>(bytes[offset + i]))
         << (8 * i);
  }
  return v;
}

class SnapshotCorruptionTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    path_ = new std::string("/tmp/aiql_snapshot_corruption_test.snap");
    AuditDatabase db = BuildDatabase();
    ASSERT_TRUE(SaveSnapshot(db, *path_).ok());
    golden_ = new std::string(ReadFile(*path_));
    ASSERT_GT(golden_->size(), 100u);
  }

  static void TearDownTestSuite() {
    std::remove(path_->c_str());
    delete path_;
    delete golden_;
    path_ = nullptr;
    golden_ = nullptr;
  }

  /// Full load of the current file contents; must never crash.
  static Status TryLoad() { return LoadSnapshot(*path_).status(); }

  static std::string* path_;
  static std::string* golden_;
};

std::string* SnapshotCorruptionTest::path_ = nullptr;
std::string* SnapshotCorruptionTest::golden_ = nullptr;

TEST_F(SnapshotCorruptionTest, EveryTruncationFailsCleanly) {
  const std::string& golden = *golden_;
  for (size_t len = 0; len < golden.size(); ++len) {
    WriteFile(*path_, golden.substr(0, len));
    Status status = TryLoad();
    ASSERT_FALSE(status.ok()) << "truncation at " << len << " bytes loaded";
    ASSERT_TRUE(status.code() == StatusCode::kCorruption ||
                status.code() == StatusCode::kIOError)
        << "truncation at " << len << ": " << status.ToString();
  }
}

TEST_F(SnapshotCorruptionTest, EverySingleBitFlipIsDetected) {
  const std::string& golden = *golden_;
  // Every byte of the file is covered by the magic/version checks or by a
  // section checksum, so any single-bit flip must fail the full load.
  for (size_t pos = 0; pos < golden.size(); ++pos) {
    std::string corrupt = golden;
    corrupt[pos] = static_cast<char>(corrupt[pos] ^ (1 << (pos % 8)));
    WriteFile(*path_, corrupt);
    Status status = TryLoad();
    ASSERT_FALSE(status.ok())
        << "bit flip at byte " << pos << " loaded successfully";
  }
}

TEST_F(SnapshotCorruptionTest, HeaderMagicAndVersionAreChecked) {
  std::string corrupt = *golden_;
  corrupt[0] = 'X';
  WriteFile(*path_, corrupt);
  EXPECT_EQ(TryLoad().code(), StatusCode::kCorruption);
  EXPECT_EQ(SnapshotStore::Open(*path_).status().code(),
            StatusCode::kCorruption);

  corrupt = *golden_;
  corrupt[8] = 99;  // format version
  WriteFile(*path_, corrupt);
  EXPECT_EQ(TryLoad().code(), StatusCode::kCorruption);

  // A version 5 file (its segments hold varint streams, not the packed
  // blocks of version 6) is refused by name, never misread.
  corrupt = *golden_;
  corrupt[8] = 5;
  WriteFile(*path_, corrupt);
  Status previous = SnapshotStore::Open(*path_).status();
  EXPECT_EQ(previous.code(), StatusCode::kCorruption);
  EXPECT_NE(previous.message().find("version 5"), std::string::npos)
      << previous.ToString();
  EXPECT_NE(previous.message().find(
                "expected version " + std::to_string(snapfmt::kV2Version)),
            std::string::npos)
      << previous.ToString();
  EXPECT_EQ(TryLoad().code(), StatusCode::kCorruption);
}

TEST_F(SnapshotCorruptionTest, TrailerDamageIsDetected) {
  // Tail magic destroyed (classic torn-write signature).
  std::string corrupt = *golden_;
  for (size_t i = corrupt.size() - 8; i < corrupt.size(); ++i) {
    corrupt[i] = 0;
  }
  WriteFile(*path_, corrupt);
  EXPECT_EQ(TryLoad().code(), StatusCode::kCorruption);

  // Footer offset pointing outside the file.
  corrupt = *golden_;
  size_t offset_pos = corrupt.size() - 24;
  for (size_t i = 0; i < 8; ++i) {
    corrupt[offset_pos + i] = static_cast<char>(0xFF);
  }
  WriteFile(*path_, corrupt);
  EXPECT_EQ(TryLoad().code(), StatusCode::kCorruption);

  // Footer checksum flipped.
  corrupt = *golden_;
  corrupt[corrupt.size() - 16] =
      static_cast<char>(corrupt[corrupt.size() - 16] ^ 0xFF);
  WriteFile(*path_, corrupt);
  EXPECT_EQ(TryLoad().code(), StatusCode::kCorruption);
}

TEST_F(SnapshotCorruptionTest, MetaSegmentCorruptionFailsAtOpen) {
  // The META segment starts right after the 12-byte header and is read
  // eagerly, so Open itself must fail.
  std::string corrupt = *golden_;
  corrupt[12] = static_cast<char>(corrupt[12] ^ 0x40);
  WriteFile(*path_, corrupt);
  EXPECT_EQ(SnapshotStore::Open(*path_).status().code(),
            StatusCode::kCorruption);
}

TEST_F(SnapshotCorruptionTest, LazyPartitionCorruptionFailsAtQueryTime) {
  // A flip inside a partition segment is only discovered when that segment
  // is materialized: Open succeeds (footer + META intact), and the query
  // that touches the partition returns a clean Corruption error.
  std::string corrupt = *golden_;
  uint64_t footer_offset = ReadLittleEndian64(corrupt, corrupt.size() - 24);
  ASSERT_GT(footer_offset, 20u);
  size_t target = static_cast<size_t>(footer_offset) - 10;  // last segment
  corrupt[target] = static_cast<char>(corrupt[target] ^ 0x10);
  WriteFile(*path_, corrupt);

  auto store = SnapshotStore::Open(*path_);
  ASSERT_TRUE(store.ok()) << store.status().ToString();
  EXPECT_EQ((*store)->loaded_partitions(), 0u);

  AiqlEngine engine(store->get());
  auto result = engine.Execute("proc p read || write file f return p, f");
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kCorruption);

  // The full-load compat path reports the same corruption.
  EXPECT_EQ(TryLoad().code(), StatusCode::kCorruption);
}

TEST_F(SnapshotCorruptionTest, ForeignAndEmptyFilesAreRejected) {
  WriteFile(*path_, "this is not a snapshot at all, not even close");
  EXPECT_EQ(TryLoad().code(), StatusCode::kCorruption);
  EXPECT_EQ(SnapshotStore::Open(*path_).status().code(),
            StatusCode::kCorruption);

  WriteFile(*path_, "");
  EXPECT_EQ(TryLoad().code(), StatusCode::kCorruption);

  EXPECT_EQ(LoadSnapshot("/tmp/aiql_no_such_snapshot.snap").status().code(),
            StatusCode::kIOError);
}

// --- retired v1 format -------------------------------------------------------

TEST_F(SnapshotCorruptionTest, UnpartitionedOptionsByteIsRefused) {
  // The footer's options byte follows its two signed varints (partition
  // duration, dedup window). Setting it to 0 with the footer checksum
  // recomputed leaves a well-formed file that claims unpartitioned storage.
  std::string bytes = *golden_;
  const size_t trailer_at = bytes.size() - snapfmt::kV2TrailerSize;
  const size_t footer_at = ReadLittleEndian64(bytes, trailer_at);
  std::string footer = bytes.substr(footer_at, trailer_at - footer_at);
  snapfmt::Cursor cur(footer);
  cur.I64();
  cur.I64();
  ASSERT_TRUE(cur.ok());
  const size_t options_at = footer.size() - cur.remaining();
  ASSERT_EQ(footer[options_at], '\x01');
  footer[options_at] = '\0';
  bytes.replace(footer_at, footer.size(), footer);
  std::string checksum;
  snapfmt::PutFixed64(&checksum, Checksum64(footer));
  bytes.replace(trailer_at + 8, 8, checksum);
  WriteFile(*path_, bytes);

  auto expect_refused = [](const Status& status) {
    EXPECT_EQ(status.code(), StatusCode::kInvalidArgument)
        << status.ToString();
    EXPECT_EQ(status.message(), "unpartitioned snapshots are unsupported");
  };
  expect_refused(SnapshotStore::Open(*path_).status());
  expect_refused(TryLoad());
}

TEST(SnapshotV1RefusalTest, V1MagicIsRefusedAsUnsupported) {
  const std::string path = std::string("/tmp/aiql_snapshot_v1_refusal_") +
                           std::to_string(reinterpret_cast<uintptr_t>(&path)) +
                           ".snap";
  // A v1 header ("AIQLSNP1" magic, version 2) followed by body bytes.
  std::string bytes;
  snapfmt::PutFixed64(&bytes, 0x4149514C534E5031ULL);
  snapfmt::PutFixed32(&bytes, 2);
  bytes.append(64, '\x5A');
  WriteFile(path, bytes);

  auto expect_refused = [](const Status& status) {
    EXPECT_EQ(status.code(), StatusCode::kInvalidArgument)
        << status.ToString();
    EXPECT_NE(status.message().find("v1"), std::string::npos);
    EXPECT_NE(status.message().find("unsupported"), std::string::npos);
  };
  expect_refused(SnapshotStore::Open(path).status());
  expect_refused(LoadSnapshot(path).status());
  std::remove(path.c_str());
}

}  // namespace
}  // namespace aiql
