// Shared building blocks of the snapshot v2 on-disk format, used by both
// the write-once snapshot writer (storage/snapshot.cc) and the incremental
// append-log writer (storage/snapshot_append.cc).
//
// Everything here is byte-layout code: little-endian fixed-width helpers, a
// bounds-checked decode cursor, the segment/footer encoders and their
// validating decoders. Keeping one copy guarantees that a partition segment
// appended incrementally to a retention directory is byte-identical to the
// same partition written by SaveSnapshot, so the two stores share decoders,
// checksums, and corruption handling.
//
// Internal header — not part of the public storage API surface.

#ifndef AIQL_STORAGE_SNAPSHOT_FORMAT_H_
#define AIQL_STORAGE_SNAPSHOT_FORMAT_H_

#include <array>
#include <bit>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"
#include "storage/database.h"

namespace aiql {
namespace snapfmt {

// --- format constants --------------------------------------------------------

inline constexpr uint64_t kV2Magic = 0x4149514C534E5032ULL;  // "AIQLSNP2"
// Version 3 added the reverse entity indexes (subject / object posting
// lists) to the partition segments, so provenance hops served from a lazy
// snapshot need no index rebuild. Version 4 switched every section
// checksum from FNV-1a64 to XXH64; readers refuse any other version, so an
// older file is reported, never misread.
inline constexpr uint32_t kV2Version = 4;
inline constexpr size_t kV2HeaderSize = 8 + 4;   // magic + version
inline constexpr size_t kV2TrailerSize = 8 * 3;  // footer off + cksum + magic

// --- little-endian fixed-width helpers (host-independent) --------------------

void PutFixed32(std::string* dst, uint32_t v);
void PutFixed64(std::string* dst, uint64_t v);
uint32_t GetFixed32(const char* p);
uint64_t GetFixed64(const char* p);

// --- bounds-checked decode cursor -------------------------------------------

/// Cursor over one checksummed byte section. Every accessor fails sticky on
/// truncation (returning 0), so decode loops can check ok() once at the end.
/// A failure also parks the read position at the limit, which keeps the
/// inline word-at-a-time varint path from succeeding after it.
class Cursor {
 public:
  explicit Cursor(std::string_view bytes)
      : p_(bytes.data()), limit_(bytes.data() + bytes.size()) {}

  /// Unsigned varint; accepts exactly what GetVarint64 accepts. One-byte
  /// values take a single predictable branch. Otherwise, with eight bytes
  /// in reach, a varint of up to eight bytes decodes from one word load:
  /// the first clear high bit marks its end, and three mask-and-shift steps
  /// squeeze out the continuation bits, with no per-byte branch.
  uint64_t U64() {
    if (p_ < limit_ && static_cast<uint8_t>(*p_) < 0x80) {
      return static_cast<uint8_t>(*p_++);
    }
    if (limit_ - p_ >= 8) {
      uint64_t word;
      std::memcpy(&word, p_, sizeof(word));
      if constexpr (std::endian::native == std::endian::big) {
        word = __builtin_bswap64(word);
      }
      const uint64_t stops = ~word & 0x8080808080808080ULL;
      if (stops != 0) {
        const int bits = std::countr_zero(stops) + 1;  // 8 x varint length
        p_ += bits >> 3;
        word &= ~uint64_t{0} >> (64 - bits);
        word = (word & 0x007F007F007F007FULL) |
               ((word & 0x7F007F007F007F00ULL) >> 1);
        word = (word & 0x00003FFF00003FFFULL) |
               ((word & 0x3FFF00003FFF0000ULL) >> 2);
        return (word & 0x000000000FFFFFFFULL) |
               ((word & 0x0FFFFFFF00000000ULL) >> 4);
      }
    }
    return U64Slow();
  }
  int64_t I64();
  uint8_t Byte();
  /// A `n`-byte string view into the section (valid while it stays alive).
  std::string_view Bytes(size_t n);

  bool ok() const { return ok_; }
  bool AtEnd() const { return ok_ && p_ == limit_; }
  size_t remaining() const { return static_cast<size_t>(limit_ - p_); }

 private:
  uint64_t U64Slow();
  void Fail() {
    ok_ = false;
    p_ = limit_;
  }

  const char* p_;
  const char* limit_;
  bool ok_ = true;
};

// --- 64-bit-safe positioning -------------------------------------------------
// plain fseek/ftell take `long`, which is 32-bit on LLP64 platforms and
// would cap snapshots at 2 GiB — far below the 0.5-1 year retention the
// deployed system targets.

int Seek64(FILE* file, int64_t offset, int whence);
int64_t Tell64(FILE* file);

// --- footer directory structures --------------------------------------------

struct SegmentRef {
  uint64_t offset = 0;
  uint64_t length = 0;
  uint64_t checksum = 0;
};

struct PartitionDirEntry {
  int64_t bucket = 0;
  AgentId agent = 0;
  uint32_t seq = 0;
  SegmentRef segment;
  uint64_t events = 0;
  uint64_t raw_events = 0;
  Timestamp min_ts = INT64_MAX;
  Timestamp max_ts = INT64_MIN;
  std::array<uint64_t, kNumOpTypes> op_counts{};
};

struct FooterData {
  StorageOptions options;
  DatabaseStats stats;
  SegmentRef meta;
  std::vector<PartitionDirEntry> partitions;
};

/// Fills a directory entry's statistics from a sealed partition.
PartitionDirEntry MakeDirEntry(int64_t bucket, AgentId agent, uint32_t seq,
                               const SegmentRef& segment,
                               const EventPartition& partition);

// --- encoders ----------------------------------------------------------------

/// v2 file header: magic + format version.
void EncodeHeader(std::string* out);

/// META segment: the five string dictionaries in id order, then the entity
/// tables referencing them by varint id.
void EncodeMetaSegment(const EntityStore& entities, std::string* out);

/// PARTITION segment: columnar event encoding plus the seal artifacts.
void EncodePartitionSegment(const EventPartition& partition, std::string* out);

/// Footer directory bytes (options, stats, META ref, partition directory) —
/// the caller checksums them and writes the trailer.
void EncodeFooter(const FooterData& footer, std::string* out);

/// Trailer: footer offset (= end of the data area), footer checksum, magic.
void EncodeTrailer(uint64_t footer_offset, uint64_t footer_checksum,
                   std::string* out);

// --- decoders ----------------------------------------------------------------

/// Parses the (already checksum-verified) footer. `data_end` is the file
/// offset where the footer begins — all segments must end before it.
Status DecodeFooter(std::string_view bytes, uint64_t data_end,
                    FooterData* footer);

/// Decodes the META segment into an empty entity store.
Status DecodeMetaSegment(std::string_view bytes, EntityStore* store);

/// Decodes one partition segment and installs it as a sealed partition.
/// Every structural invariant is revalidated (not just checksummed):
/// posting coverage, entity-id bounds, statistic agreement with the footer
/// directory — so a decoder bug or an improbable checksum collision cannot
/// smuggle malformed state into the engine.
Status DecodePartitionSegment(std::string_view bytes,
                              const PartitionDirEntry& entry,
                              const EntityStore& store,
                              EventPartition* partition);

}  // namespace snapfmt
}  // namespace aiql

#endif  // AIQL_STORAGE_SNAPSHOT_FORMAT_H_
