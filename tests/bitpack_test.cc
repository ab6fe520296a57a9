// Tests of the frame-of-reference bit-packing codec (common/bitpack.h) that
// the partition segment's integer streams use: round trips at every width
// and at lengths that leave partial tail blocks, values at the u64
// extremes, hostile width bytes and wrapping bases, and truncation at every
// byte. Decoding reads from an exactly-sized heap copy, so under ASan any
// load past the stream's last byte fails the test.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "common/bitpack.h"
#include "common/rng.h"
#include "common/varint.h"

namespace aiql {
namespace {

std::string Encode(const std::vector<uint64_t>& values) {
  std::string out;
  bitpack::Put(&out, values.size(), [&](size_t i) { return values[i]; });
  return out;
}

/// Decodes `count` values from exactly `bytes` (a heap copy of that size).
/// Returns false on a failed stream; on success the stream must end at the
/// last byte.
bool Decode(const std::string& bytes, size_t count,
            std::vector<uint64_t>* values) {
  std::unique_ptr<char[]> copy(new char[bytes.size()]);
  std::memcpy(copy.get(), bytes.data(), bytes.size());
  const char* begin = copy.get();
  const char* limit = begin + bytes.size();
  values->assign(count, 0xDEADBEEF);
  size_t expected_first = 0;
  const char* end = bitpack::Get(
      begin, limit, count, [&](const uint64_t* block, size_t m, size_t first) {
        EXPECT_EQ(first, expected_first);
        EXPECT_LE(m, bitpack::kBlockSize);
        std::copy_n(block, m, values->begin() + first);
        expected_first += m;
        return true;
      });
  if (end == nullptr) return false;
  EXPECT_EQ(end, limit);
  EXPECT_EQ(expected_first, count);
  return true;
}

void ExpectRoundTrip(const std::vector<uint64_t>& values,
                     const std::string& what) {
  const std::string bytes = Encode(values);
  std::vector<uint64_t> decoded;
  ASSERT_TRUE(Decode(bytes, values.size(), &decoded)) << what;
  EXPECT_EQ(decoded, values) << what;
  // With bytes to spare after the stream, the word-load path covers every
  // value and the stream still ends where it did.
  std::vector<uint64_t> padded;
  const std::string tail = bytes + std::string(16, '\x5A');
  const char* end = bitpack::Get(
      tail.data(), tail.data() + tail.size(), values.size(),
      [&](const uint64_t* block, size_t m, size_t) {
        padded.insert(padded.end(), block, block + m);
        return true;
      });
  ASSERT_NE(end, nullptr) << what;
  EXPECT_EQ(static_cast<size_t>(end - tail.data()), bytes.size()) << what;
  EXPECT_EQ(padded, values) << what;
}

TEST(BitpackTest, EveryWidthRoundTrips) {
  Rng rng(64);
  for (unsigned width = 0; width <= 64; ++width) {
    const uint64_t spread = width == 0 ? 0 : ~uint64_t{0} >> (64 - width);
    for (uint64_t base : {uint64_t{0}, uint64_t{12345},
                          ~uint64_t{0} - spread}) {
      std::vector<uint64_t> values(bitpack::kBlockSize);
      for (uint64_t& v : values) {
        v = base + (width == 0 ? 0 : rng.Next() & spread);
      }
      values[3] = base;           // the block's minimum ...
      values[100] = base + spread;  // ... and maximum fix its width
      const std::string bytes = Encode(values);
      // Base varint, width byte, then exactly ceil(128 * w / 8) bytes.
      std::string base_varint;
      PutVarint64(&base_varint, base);
      ASSERT_EQ(bytes.size(), base_varint.size() + 1 + 16 * width);
      EXPECT_EQ(static_cast<uint8_t>(bytes[base_varint.size()]), width);
      ExpectRoundTrip(values, "width " + std::to_string(width) + " base " +
                                  std::to_string(base));
    }
  }
}

TEST(BitpackTest, EveryLengthUpTo300RoundTrips) {
  Rng rng(300);
  for (size_t length = 0; length <= 300; ++length) {
    for (unsigned width : {0u, 1u, 7u, 13u, 33u, 57u, 63u, 64u}) {
      const uint64_t mask = width == 0 ? 0 : ~uint64_t{0} >> (64 - width);
      std::vector<uint64_t> values(length);
      for (uint64_t& v : values) v = 1000 + (rng.Next() & mask);
      ExpectRoundTrip(values, "length " + std::to_string(length) +
                                  " width " + std::to_string(width));
    }
  }
  EXPECT_TRUE(Encode({}).empty());
}

TEST(BitpackTest, ExtremeValuesRoundTrip) {
  const uint64_t max = UINT64_MAX;
  ExpectRoundTrip({0, max}, "0 and max");
  ExpectRoundTrip({max, max, max}, "all max");
  ExpectRoundTrip({max - 3, max, max - 1, max - 2}, "near max");
  ExpectRoundTrip({max, 0, max, 0, 1, max - 1}, "alternating");
  std::vector<uint64_t> mixed;
  for (int i = 0; i < 260; ++i) {
    mixed.push_back(i % 3 == 0 ? max - static_cast<uint64_t>(i)
                               : static_cast<uint64_t>(i));
  }
  ExpectRoundTrip(mixed, "mixed blocks");
}

TEST(BitpackTest, WidthsAbove64AreRefused) {
  // One block of 4 values: base 0, a width byte, enough payload for any
  // width a byte can name.
  for (unsigned width : {65u, 66u, 128u, 255u}) {
    std::string bytes;
    PutVarint64(&bytes, 0);
    bytes.push_back(static_cast<char>(width));
    bytes += std::string(4 * 255 / 8 + 1, '\xFF');
    std::vector<uint64_t> values;
    EXPECT_FALSE(Decode(bytes, 4, &values)) << width;
  }
}

TEST(BitpackTest, WrappingBasePlusOffsetIsRefused) {
  // Offsets 0..3 at width 2 over a base that leaves room for only 2.
  std::string bytes;
  PutVarint64(&bytes, UINT64_MAX - 2);
  bytes.push_back(2);
  bytes.push_back(static_cast<char>(0b11100100));  // offsets 0, 1, 2, 3
  std::vector<uint64_t> values;
  EXPECT_FALSE(Decode(bytes, 4, &values));
  // The same block with the largest offset 2 fits exactly.
  bytes.back() = static_cast<char>(0b10100100);  // offsets 0, 1, 2, 2
  ASSERT_TRUE(Decode(bytes, 4, &values));
  EXPECT_EQ(values, (std::vector<uint64_t>{UINT64_MAX - 2, UINT64_MAX - 1,
                                           UINT64_MAX, UINT64_MAX}));
  // Width 64 over a non-zero base wraps for any offset above its room.
  std::string wide;
  PutVarint64(&wide, 1);
  wide.push_back(64);
  wide += std::string(8, '\xFF');
  EXPECT_FALSE(Decode(wide, 1, &values));
}

TEST(BitpackTest, RefusingSinkFailsTheStream) {
  std::vector<uint64_t> values(300, 7);
  const std::string bytes = Encode(values);
  int calls = 0;
  const char* end = bitpack::Get(
      bytes.data(), bytes.data() + bytes.size(), values.size(),
      [&](const uint64_t*, size_t, size_t first) {
        ++calls;
        return first == 0;
      });
  EXPECT_EQ(end, nullptr);
  EXPECT_EQ(calls, 2);
}

TEST(BitpackTest, EveryTruncationFailsCleanly) {
  Rng rng(7);
  for (unsigned width : {0u, 3u, 17u, 56u, 57u, 64u}) {
    const uint64_t mask = width == 0 ? 0 : ~uint64_t{0} >> (64 - width);
    for (size_t length : {size_t{1}, size_t{5}, size_t{128}, size_t{129},
                          size_t{300}}) {
      std::vector<uint64_t> values(length);
      for (uint64_t& v : values) v = (uint64_t{1} << 40) + (rng.Next() & mask);
      if (width == 64) values[0] = 0;
      const std::string bytes = Encode(values);
      for (size_t cut = 0; cut < bytes.size(); ++cut) {
        std::vector<uint64_t> decoded;
        EXPECT_FALSE(Decode(bytes.substr(0, cut), length, &decoded))
            << "width " << width << " length " << length << " cut " << cut;
      }
    }
  }
}

}  // namespace
}  // namespace aiql
