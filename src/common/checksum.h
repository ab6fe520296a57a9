// Storage checksums.
//
// `Checksum64` (XXH64, seed 0) guards every snapshot v2 section — partition
// and META segments, footers — against truncation and bit flips. It reads
// the input eight bytes at a time over four independent lanes, so checking
// a segment costs a small fraction of decoding it. `Fnv1a64` is the
// incremental byte-serial hash of the legacy v1 snapshot body and stays
// only so v1 files remain readable. Neither is cryptographic: they detect
// accidental corruption, not adversarial tampering.

#ifndef AIQL_COMMON_CHECKSUM_H_
#define AIQL_COMMON_CHECKSUM_H_

#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <string_view>

namespace aiql {

/// Incremental FNV-1a 64-bit hasher (snapshot v1 body checksum).
class Fnv1a64 {
 public:
  void Update(const void* data, size_t n) {
    const auto* bytes = static_cast<const unsigned char*>(data);
    for (size_t i = 0; i < n; ++i) {
      hash_ = (hash_ ^ bytes[i]) * kPrime;
    }
  }

  uint64_t digest() const { return hash_; }

  static constexpr uint64_t kOffset = 14695981039346656037ULL;
  static constexpr uint64_t kPrime = 1099511628211ULL;

 private:
  uint64_t hash_ = kOffset;
};

namespace xxh64_detail {

inline constexpr uint64_t kPrime1 = 0x9E3779B185EBCA87ULL;
inline constexpr uint64_t kPrime2 = 0xC2B2AE3D27D4EB4FULL;
inline constexpr uint64_t kPrime3 = 0x165667B19E3779F9ULL;
inline constexpr uint64_t kPrime4 = 0x85EBCA77C2B2AE63ULL;
inline constexpr uint64_t kPrime5 = 0x27D4EB2F165667C5ULL;

/// Little-endian loads, independent of host byte order and alignment.
inline uint64_t Load64(const unsigned char* p) {
  uint64_t v;
  std::memcpy(&v, p, sizeof(v));
  if constexpr (std::endian::native == std::endian::big) {
    v = __builtin_bswap64(v);
  }
  return v;
}

inline uint32_t Load32(const unsigned char* p) {
  uint32_t v;
  std::memcpy(&v, p, sizeof(v));
  if constexpr (std::endian::native == std::endian::big) {
    v = __builtin_bswap32(v);
  }
  return v;
}

inline uint64_t Round(uint64_t acc, uint64_t input) {
  acc += input * kPrime2;
  acc = std::rotl(acc, 31);
  return acc * kPrime1;
}

inline uint64_t MergeRound(uint64_t acc, uint64_t lane) {
  acc ^= Round(0, lane);
  return acc * kPrime1 + kPrime4;
}

}  // namespace xxh64_detail

/// One-shot XXH64 (seed 0) of a byte string: the checksum of every snapshot
/// v2 and retention append-log section.
inline uint64_t Checksum64(std::string_view data) {
  using namespace xxh64_detail;
  const auto* p = reinterpret_cast<const unsigned char*>(data.data());
  const size_t len = data.size();
  const unsigned char* const end = p + len;
  uint64_t h;
  if (len >= 32) {
    // Four independent lanes over 32-byte stripes.
    uint64_t v1 = kPrime1 + kPrime2;
    uint64_t v2 = kPrime2;
    uint64_t v3 = 0;
    uint64_t v4 = 0 - kPrime1;
    const unsigned char* const last_stripe = end - 32;
    do {
      v1 = Round(v1, Load64(p));
      v2 = Round(v2, Load64(p + 8));
      v3 = Round(v3, Load64(p + 16));
      v4 = Round(v4, Load64(p + 24));
      p += 32;
    } while (p <= last_stripe);
    h = std::rotl(v1, 1) + std::rotl(v2, 7) + std::rotl(v3, 12) +
        std::rotl(v4, 18);
    h = MergeRound(h, v1);
    h = MergeRound(h, v2);
    h = MergeRound(h, v3);
    h = MergeRound(h, v4);
  } else {
    h = kPrime5;
  }
  h += static_cast<uint64_t>(len);

  // Tail: up to 31 bytes, in 8-, 4- and 1-byte steps.
  while (end - p >= 8) {
    h ^= Round(0, Load64(p));
    h = std::rotl(h, 27) * kPrime1 + kPrime4;
    p += 8;
  }
  if (end - p >= 4) {
    h ^= static_cast<uint64_t>(Load32(p)) * kPrime1;
    h = std::rotl(h, 23) * kPrime2 + kPrime3;
    p += 4;
  }
  while (p < end) {
    h ^= static_cast<uint64_t>(*p) * kPrime5;
    h = std::rotl(h, 11) * kPrime1;
    ++p;
  }

  // Avalanche.
  h ^= h >> 33;
  h *= kPrime2;
  h ^= h >> 29;
  h *= kPrime3;
  h ^= h >> 32;
  return h;
}

}  // namespace aiql

#endif  // AIQL_COMMON_CHECKSUM_H_
