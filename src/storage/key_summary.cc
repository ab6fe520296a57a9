#include "storage/key_summary.h"

namespace aiql {

namespace {

/// Probes per key: round(kSummaryBitsPerKey * ln 2).
constexpr int kProbes = 7;

/// The probe sequence of `hash` over an `m`-bit filter (double hashing; a
/// multiply-high maps each 64-bit probe onto [0, m) without a division).
template <typename Fn>
bool ForEachProbe(uint64_t hash, uint64_t m, const Fn& fn) {
  const uint64_t delta = (hash >> 32) | (hash << 32);
  for (int i = 0; i < kProbes; ++i) {
    const uint64_t bit = static_cast<uint64_t>(
        (static_cast<unsigned __int128>(hash) * m) >> 64);
    if (!fn(bit)) return false;
    hash += delta;
  }
  return true;
}

/// Hash of a summary-space key; the probes of every filter derive from it
/// (splitmix64 finalizer).
uint64_t SummaryHash(uint64_t key) {
  key += 0x9E3779B97F4A7C15ULL;
  key = (key ^ (key >> 30)) * 0xBF58476D1CE4E5B9ULL;
  key = (key ^ (key >> 27)) * 0x94D049BB133111EBULL;
  return key ^ (key >> 31);
}

/// False only when no hash in `hashes` was added to `summary`. Returns at
/// the first hash that may be present.
bool SummaryMayContainAny(std::string_view summary,
                          const std::vector<uint64_t>& hashes) {
  const uint64_t m = summary.size() * 8;
  if (m == 0) return false;
  const auto* bytes = reinterpret_cast<const uint8_t*>(summary.data());
  for (uint64_t hash : hashes) {
    if (ForEachProbe(hash, m, [&](uint64_t bit) {
          return ((bytes[bit >> 3] >> (bit & 7)) & 1) != 0;
        })) {
      return true;
    }
  }
  return false;
}

}  // namespace

std::string BuildKeySummary(const EntityPostingIndex& subject_index,
                            const EntityPostingIndex& object_index) {
  const std::vector<uint64_t>& subjects = subject_index.keys;
  const std::vector<uint64_t>& objects = object_index.keys;
  const uint64_t keys = subjects.size() + objects.size();
  std::string summary((keys * kSummaryBitsPerKey + 7) / 8, '\0');
  const uint64_t m = summary.size() * 8;
  auto add = [&](uint64_t key) {
    ForEachProbe(SummaryHash(key), m, [&](uint64_t bit) {
      char& byte = summary[bit >> 3];
      byte = static_cast<char>(byte | (1 << (bit & 7)));
      return true;
    });
  };
  for (uint64_t key : subjects) {
    add(SubjectSummaryKey(static_cast<EntityId>(key)));
  }
  for (uint64_t key : objects) add(key);
  return summary;
}

uint64_t MaxKeySummaryBytes(uint64_t events) {
  constexpr uint64_t kBitsPerEvent = 2 * kSummaryBitsPerKey;
  if (events > (UINT64_MAX - 7) / kBitsPerEvent) return UINT64_MAX;
  return (events * kBitsPerEvent + 7) / 8;
}

void SummaryKeyGroups::Add(Fill fill) {
  groups_.push_back(Group{std::move(fill), {}});
}

bool SummaryKeyGroups::MayMatch(std::string_view summary) {
  for (Group& group : groups_) {
    if (group.fill) {
      group.fill(&group.hashes);
      group.fill = nullptr;
      for (uint64_t& key : group.hashes) key = SummaryHash(key);
    }
    if (!SummaryMayContainAny(summary, group.hashes)) return false;
  }
  return true;
}

}  // namespace aiql
