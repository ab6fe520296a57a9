// Frame-of-reference bit packing for the partition segment's integer
// streams (snapshot format version 6).
//
// A stream of `count` unsigned 64-bit values is cut into blocks of
// kBlockSize values (the last block may be shorter). Each block stores its
// smallest value as an LEB128 varint (the base), one width byte w in
// [0, 64], and every value's offset from the base packed LSB-first at w
// bits: ceil(m·w/8) bytes for an m-value block. The count itself is not
// stored; the reader knows it from context.
//
// Unpacking reads each offset with one unaligned 8-byte load, a shift and a
// mask, with no branch per value (widths above 56 add one byte load). Loads
// stay inside the caller's [p, limit): the values whose load would cross
// `limit` go through a bounded tail path that copies the bytes left into a
// zeroed word. A width above 64, a payload past `limit`, or a base plus
// offset that wraps past 2⁶⁴ − 1 fails the stream.

#ifndef AIQL_COMMON_BITPACK_H_
#define AIQL_COMMON_BITPACK_H_

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <string>

#include "common/varint.h"

namespace aiql {
namespace bitpack {

inline constexpr size_t kBlockSize = 128;
inline constexpr unsigned kMaxWidth = 64;

namespace internal {

inline uint64_t LoadLE64(const char* p) {
  uint64_t word;
  std::memcpy(&word, p, sizeof(word));
  if constexpr (std::endian::native == std::endian::big) {
    word = __builtin_bswap64(word);
  }
  return word;
}

inline void StoreLE64(char* p, uint64_t word) {
  if constexpr (std::endian::native == std::endian::big) {
    word = __builtin_bswap64(word);
  }
  std::memcpy(p, &word, sizeof(word));
}

/// The `mask`-wide value starting `shift` bits into `q`. A wide width
/// (above 56) can span nine bytes; the ninth byte's bits land above the
/// word's 64 - shift low ones (and vanish when shift is 0).
template <bool kWide>
inline uint64_t Extract(const char* q, unsigned shift, uint64_t mask) {
  uint64_t word = LoadLE64(q) >> shift;
  if constexpr (kWide) {
    word |= (static_cast<uint64_t>(static_cast<uint8_t>(q[8])) << 1)
            << (63 - shift);
  }
  return word & mask;
}

/// Unpacks m values of `width` (1-64) bits from `p`, which has `avail`
/// readable bytes, adding `base`. False when a sum wraps.
template <bool kWide>
inline bool UnpackBlock(const char* p, size_t avail, size_t m,
                        unsigned width, uint64_t base, uint64_t* out) {
  constexpr size_t kLoad = kWide ? 9 : 8;
  const uint64_t mask = ~uint64_t{0} >> (kMaxWidth - width);
  // Value i loads bytes [i·w/8, i·w/8 + kLoad); these fit for i up to fast.
  const size_t fast =
      avail < kLoad ? 0 : std::min(m, (avail - kLoad) * 8 / width + 1);
  uint64_t wrapped = 0;
  size_t i = 0;
  for (; i < fast; ++i) {
    const size_t bit = i * width;
    const uint64_t v =
        base + Extract<kWide>(p + (bit >> 3), bit & 7, mask);
    wrapped |= static_cast<uint64_t>(v < base);
    out[i] = v;
  }
  for (; i < m; ++i) {
    // Tail: the load would cross the limit, so read what is left of the
    // payload (at least the value's own bytes) into a zeroed word.
    const size_t bit = i * width;
    char word[16] = {};
    std::memcpy(word, p + (bit >> 3), std::min(kLoad, avail - (bit >> 3)));
    const uint64_t v = base + Extract<kWide>(word, bit & 7, mask);
    wrapped |= static_cast<uint64_t>(v < base);
    out[i] = v;
  }
  return wrapped == 0;
}

}  // namespace internal

/// Bytes of an m-value block's payload at `width` bits per value.
inline constexpr size_t PayloadBytes(size_t m, unsigned width) {
  return (m * width + 7) / 8;
}

/// Appends the `count` values value_at(0), ..., value_at(count - 1) to
/// `out` as one packed stream. value_at is called once per index, in
/// increasing order.
template <typename ValueAt>
void Put(std::string* out, size_t count, const ValueAt& value_at) {
  uint64_t block[kBlockSize];
  for (size_t first = 0; first < count; first += kBlockSize) {
    const size_t m = std::min(kBlockSize, count - first);
    uint64_t lo = UINT64_MAX;
    uint64_t hi = 0;
    for (size_t i = 0; i < m; ++i) {
      block[i] = static_cast<uint64_t>(value_at(first + i));
      lo = std::min(lo, block[i]);
      hi = std::max(hi, block[i]);
    }
    const unsigned width = static_cast<unsigned>(std::bit_width(hi - lo));
    PutVarint64(out, lo);
    out->push_back(static_cast<char>(width));
    if (width == 0) continue;
    const size_t at = out->size();
    out->resize(at + PayloadBytes(m, width));
    char* dst = out->data() + at;
    // Bits fill a word LSB-first; a full word is stored and the value's
    // bits that did not fit start the next one.
    uint64_t acc = 0;
    unsigned filled = 0;
    for (size_t i = 0; i < m; ++i) {
      const uint64_t v = block[i] - lo;
      acc |= v << filled;
      if (filled + width >= 64) {
        internal::StoreLE64(dst, acc);
        dst += 8;
        acc = filled == 0 ? 0 : v >> (64 - filled);
        filled = filled + width - 64;
      } else {
        filled += width;
      }
    }
    for (unsigned b = 0; b < (filled + 7) / 8; ++b) {
      *dst++ = static_cast<char>(acc >> (8 * b));
    }
  }
}

/// Reads one packed stream of `count` values from [p, limit) and hands it
/// to `sink(values, m, first)` one block at a time: values[0..m) are the
/// stream's values first .. first + m - 1. Returns the position past the
/// stream, or nullptr when the stream is malformed (truncated, a width
/// above 64, a wrapping sum) or the sink returns false.
template <typename Sink>
const char* Get(const char* p, const char* limit, size_t count, Sink&& sink) {
  uint64_t block[kBlockSize];
  for (size_t first = 0; first < count; first += kBlockSize) {
    const size_t m = std::min(kBlockSize, count - first);
    uint64_t base = 0;
    p = GetVarint64(p, limit, &base);
    if (p == nullptr || p == limit) return nullptr;
    const unsigned width = static_cast<uint8_t>(*p++);
    if (width > kMaxWidth) return nullptr;
    const size_t avail = static_cast<size_t>(limit - p);
    const size_t bytes = PayloadBytes(m, width);
    if (bytes > avail) return nullptr;
    bool ok = true;
    if (width == 0) {
      std::fill_n(block, m, base);
    } else if (width <= 56) {
      ok = internal::UnpackBlock<false>(p, avail, m, width, base, block);
    } else {
      ok = internal::UnpackBlock<true>(p, avail, m, width, base, block);
    }
    if (!ok || !sink(static_cast<const uint64_t*>(block), m, first)) {
      return nullptr;
    }
    p += bytes;
  }
  return p;
}

}  // namespace bitpack
}  // namespace aiql

#endif  // AIQL_COMMON_BITPACK_H_
