// Dense uint32-keyed bitsets shared by the query engine's id-set machinery.
//
// Candidate entity sets and dictionary-match sets are both "set of small
// uint32 ids" — DenseBitset is the one flat-word representation behind
// them, exposing its raw words so the batch scan kernels can test
// membership with a shift+mask and no bounds branch when the caller
// guarantees ids < universe.

#ifndef AIQL_COMMON_BITSET_H_
#define AIQL_COMMON_BITSET_H_

#include <algorithm>
#include <bit>
#include <cstdint>
#include <vector>

namespace aiql {

/// Dense bitset over [0, universe). The word array never shrinks after
/// construction, so `words()[id >> 6]` is in bounds for every id < the
/// construction universe — the invariant the scan kernels rely on.
class DenseBitset {
 public:
  DenseBitset() = default;
  explicit DenseBitset(size_t universe) : bits_((universe + 63) / 64, 0) {}

  void Add(uint32_t id) { bits_[id >> 6] |= 1ULL << (id & 63); }

  /// Guarded membership: ids at/above the universe are absent, not UB.
  bool Contains(uint32_t id) const {
    size_t word = id >> 6;
    return word < bits_.size() && (bits_[word] >> (id & 63)) & 1;
  }

  /// Unguarded membership for hot loops. Precondition: id >> 6 < num_words().
  bool ContainsUnchecked(uint32_t id) const {
    return (bits_[id >> 6] >> (id & 63)) & 1;
  }

  /// Keeps only ids also present in `other`. Returns the surviving member
  /// count, fused into the same word-at-a-time pass (popcount, no bit loop)
  /// so callers need no separate Count() scan.
  size_t IntersectWith(const DenseBitset& other) {
    size_t n = std::min(bits_.size(), other.bits_.size());
    size_t count = 0;
    for (size_t i = 0; i < n; ++i) {
      bits_[i] &= other.bits_[i];
      count += static_cast<size_t>(std::popcount(bits_[i]));
    }
    for (size_t i = n; i < bits_.size(); ++i) {
      bits_[i] = 0;
    }
    return count;
  }

  /// Adds every id present in `other` (other may be larger; this grows).
  void UnionWith(const DenseBitset& other) {
    if (other.bits_.size() > bits_.size()) bits_.resize(other.bits_.size(), 0);
    for (size_t i = 0; i < other.bits_.size(); ++i) {
      bits_[i] |= other.bits_[i];
    }
  }

  size_t Count() const {
    size_t count = 0;
    for (uint64_t word : bits_) {
      count += static_cast<size_t>(std::popcount(word));
    }
    return count;
  }

  /// Calls fn(id) for every member id in ascending order.
  template <typename Fn>
  void ForEach(const Fn& fn) const {
    for (size_t w = 0; w < bits_.size(); ++w) {
      uint64_t word = bits_[w];
      while (word != 0) {
        fn(static_cast<uint32_t>(w * 64 + std::countr_zero(word)));
        word &= word - 1;
      }
    }
  }

  /// Materializes the member ids in ascending order.
  std::vector<uint32_t> ToVector() const {
    std::vector<uint32_t> out;
    ForEach([&](uint32_t id) { out.push_back(id); });
    return out;
  }

  /// Grows the universe, preserving members (append-only dictionaries).
  void Grow(size_t universe) {
    size_t words = (universe + 63) / 64;
    if (words > bits_.size()) bits_.resize(words, 0);
  }

  /// Raw word access for batch kernels (shift+mask membership tests).
  const uint64_t* words() const { return bits_.data(); }
  size_t num_words() const { return bits_.size(); }

 private:
  std::vector<uint64_t> bits_;
};

}  // namespace aiql

#endif  // AIQL_COMMON_BITSET_H_
