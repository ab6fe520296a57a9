// Per-partition entity summary: a Bloom filter over a sealed partition's
// reverse-index keys (the subject index's process ids and the object
// index's ObjectKeys), persisted in the snapshot v2 directory (format
// version 5). Partition selection probes it with key groups
// (SummaryKeyGroups) and skips every cold partition whose summary misses
// all keys of some group, so the partition is never materialized. A
// provenance hop passes one group, its frontier; a scan passes one group
// per pattern side with a candidate set. A Bloom filter has no false
// negatives: a skipped partition holds no event with a key of that group,
// so it holds no edge of the hop and no match of the scan.
//
// Subject and object keys share one filter; subject keys carry a tag bit
// that no object key has, so process 5 as a subject and process 5 as an
// object are different keys.

#ifndef AIQL_STORAGE_KEY_SUMMARY_H_
#define AIQL_STORAGE_KEY_SUMMARY_H_

#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <vector>

#include "storage/partition.h"

namespace aiql {

/// Filter bits per distinct key (about 1% false positives).
inline constexpr uint64_t kSummaryBitsPerKey = 10;

/// Summary-space key of a subject-index key (a process id).
inline uint64_t SubjectSummaryKey(EntityId process) {
  return (uint64_t{1} << 63) | process;
}

/// Summary-space key of an object-index key.
inline uint64_t ObjectSummaryKey(EntityType type, EntityId id) {
  return EventPartition::ObjectKey(type, id);
}

/// Summary of a sealed partition's reverse indexes: kSummaryBitsPerKey bits
/// per distinct subject and object key, rounded up to whole bytes. Empty for
/// an empty partition.
std::string BuildKeySummary(const EntityPostingIndex& subject_index,
                            const EntityPostingIndex& object_index);

/// Largest summary a partition of `events` events can carry: every event
/// adds at most one subject key and one object key. Saturates.
uint64_t MaxKeySummaryBytes(uint64_t events);

/// The key groups a selection probes cold summaries with: a partition may
/// match only if its summary may hold some key of every group. A group's
/// keys are gathered and hashed the first time a probe needs them, so a
/// selection that reaches no cold partition passing its time, agent and op
/// tests (an all-hot view) does no work for them. Not thread-safe: one
/// selection at a time.
class SummaryKeyGroups {
 public:
  /// Appends a group's summary-space keys to its argument.
  using Fill = std::function<void(std::vector<uint64_t>*)>;

  /// Adds a group whose keys `fill` appends. `fill` runs at most once, on
  /// the first probe, and what it reads must stay valid until then.
  void Add(Fill fill);

  /// False only when `summary` misses every key of some group (an empty
  /// group is missed by every summary).
  bool MayMatch(std::string_view summary);

 private:
  struct Group {
    Fill fill;  ///< reset once the hashes are built
    std::vector<uint64_t> hashes;
  };
  std::vector<Group> groups_;
};

}  // namespace aiql

#endif  // AIQL_STORAGE_KEY_SUMMARY_H_
