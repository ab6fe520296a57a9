// Per-partition entity summary: a Bloom filter over a sealed partition's
// reverse-index keys (the subject index's process ids and the object
// index's ObjectKeys), persisted in the snapshot v2 directory (format
// version 5). A provenance hop hashes its frontier once and skips every
// cold partition whose summary misses all of the hashes, so the partition
// is never materialized. A Bloom filter has no false negatives: a skipped
// partition holds no posting of any frontier entity.
//
// Subject and object keys share one filter; subject keys carry a tag bit
// that no object key has, so process 5 as a subject and process 5 as an
// object are different keys.

#ifndef AIQL_STORAGE_KEY_SUMMARY_H_
#define AIQL_STORAGE_KEY_SUMMARY_H_

#include <cstdint>
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

/// Hash of a summary-space key; the probes of every filter derive from it.
uint64_t SummaryHash(uint64_t key);

/// Summary of a sealed partition's reverse indexes: kSummaryBitsPerKey bits
/// per distinct subject and object key, rounded up to whole bytes. Empty for
/// an empty partition.
std::string BuildKeySummary(const EntityPostingIndex& subject_index,
                            const EntityPostingIndex& object_index);

/// Largest summary a partition of `events` events can carry: every event
/// adds at most one subject key and one object key. Saturates.
uint64_t MaxKeySummaryBytes(uint64_t events);

/// False only when no hash in `hashes` was added to `summary`.
bool SummaryMayContainAny(std::string_view summary,
                          const std::vector<uint64_t>& hashes);

}  // namespace aiql

#endif  // AIQL_STORAGE_KEY_SUMMARY_H_
