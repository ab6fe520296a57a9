// Tests for the storage checksum: XXH64 reference vectors (tail-only and
// stripe paths), sensitivity to every single-bit flip and every truncation
// across the stripe/tail boundaries, and unaligned input.

#include <gtest/gtest.h>

#include <string>

#include "common/checksum.h"
#include "common/rng.h"

namespace aiql {
namespace {

TEST(ChecksumTest, Xxh64ReferenceVectors) {
  EXPECT_EQ(Checksum64(""), 0xEF46DB3751D8E999ULL);
  EXPECT_EQ(Checksum64("a"), 0xD24EC4F1A98C6E5BULL);
  EXPECT_EQ(Checksum64("abc"), 0x44BC2CF5AD770999ULL);
  // 39 bytes: one 32-byte stripe, then a 4-byte and three 1-byte tail steps.
  EXPECT_EQ(Checksum64("Nobody inspects the spammish repetition"),
            0xFBCEA83C8A378BF1ULL);
}

/// Deterministic pseudo-random bytes of length `n`.
std::string Buffer(size_t n) {
  Rng rng(0xC0FFEE + n);
  std::string out(n, '\0');
  for (char& c : out) c = static_cast<char>(rng.Uniform(256));
  return out;
}

TEST(ChecksumTest, EverySingleBitFlipChangesTheDigest) {
  // Lengths 0..100 cover the tail-only path (< 32 bytes), one to three
  // stripes, and every tail remainder after them.
  for (size_t n = 0; n <= 100; ++n) {
    std::string buffer = Buffer(n);
    const uint64_t digest = Checksum64(buffer);
    for (size_t byte = 0; byte < n; ++byte) {
      for (int bit = 0; bit < 8; ++bit) {
        std::string flipped = buffer;
        flipped[byte] = static_cast<char>(flipped[byte] ^ (1 << bit));
        EXPECT_NE(Checksum64(flipped), digest)
            << "length " << n << " byte " << byte << " bit " << bit;
      }
    }
  }
}

TEST(ChecksumTest, EveryTruncationChangesTheDigest) {
  for (size_t n = 0; n <= 100; ++n) {
    std::string buffer = Buffer(n);
    const uint64_t digest = Checksum64(buffer);
    for (size_t cut = 0; cut < n; ++cut) {
      EXPECT_NE(Checksum64(std::string_view(buffer).substr(0, cut)), digest)
          << "length " << n << " truncated to " << cut;
    }
  }
}

TEST(ChecksumTest, ReadsUnalignedInput) {
  // The digest depends on the bytes only, not on their address.
  std::string backing = "x" + Buffer(77);
  std::string copy = backing.substr(1);
  EXPECT_EQ(Checksum64(std::string_view(backing).substr(1)), Checksum64(copy));
}

}  // namespace
}  // namespace aiql
