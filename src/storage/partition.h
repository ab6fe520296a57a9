// Time x agent event partitions ("hypertable" storage, paper §2.1).
//
// Events are bucketed by (time bucket, agent id). Each partition keeps its
// events sorted by start timestamp once sealed, plus lightweight statistics
// (per-operation counts, per-subject-exe counts) that feed the engine's
// pruning-power estimator. Partitions are the unit of parallel scanning.
//
// Sealing additionally materializes three read-path artifacts:
//   * a structure-of-arrays column view (EventColumns) so time-range +
//     op-mask scans touch only the columns they test,
//   * per-operation posting lists (sorted event indexes with a start-ts
//     zone map) so op-selective scans iterate only matching events, and
//   * a reverse entity index (CSR posting lists keyed by subject process id
//     and by (object type, object id)) so provenance tracking can expand a
//     frontier entity without scanning the partition.
// The row `events()` API stays authoritative for snapshot/graph/SQL
// callers; columns and postings are derived and rebuilt on every Seal(),
// and adopted as persisted when a snapshot segment is decoded.

#ifndef AIQL_STORAGE_PARTITION_H_
#define AIQL_STORAGE_PARTITION_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/time_utils.h"
#include "storage/data_model.h"

namespace aiql {

/// Identifies one partition: `bucket` is start_ts / partition_duration.
struct PartitionKey {
  int64_t bucket = 0;
  AgentId agent_id = 0;

  bool operator==(const PartitionKey&) const = default;
};

struct PartitionKeyHash {
  size_t operator()(const PartitionKey& k) const {
    uint64_t h = static_cast<uint64_t>(k.bucket) * 0x9E3779B97F4A7C15ULL +
                 k.agent_id;
    return static_cast<size_t>(h ^ (h >> 31));
  }
};

/// Structure-of-arrays view over a sealed partition's events (one entry per
/// row of `events()`, in the same sorted order).
struct EventColumns {
  std::vector<Timestamp> start_ts;
  std::vector<Timestamp> end_ts;
  std::vector<EntityId> subject;
  std::vector<EntityId> object;
  std::vector<AgentId> agent_id;
  std::vector<uint64_t> amount;
  std::vector<OpType> op;
  std::vector<EntityType> object_type;

  size_t size() const { return start_ts.size(); }
  void Clear();
  void Reserve(size_t n);
  void PushBack(const Event& event);
};

/// CSR-layout posting index from an entity key to the ascending event
/// indexes referencing that entity. Built at Seal(); persisted through
/// snapshot v2 so a lazily materialized partition needs no index rebuild.
/// Because event indexes ascend in start-ts order, each per-entity list is
/// itself time-sorted and supports binary-searched clipping.
struct EntityPostingIndex {
  std::vector<uint64_t> keys;     ///< sorted, unique entity keys
  std::vector<uint32_t> offsets;  ///< keys.size() + 1 group boundaries
  std::vector<uint32_t> indexes;  ///< event indexes, grouped by key

  bool empty() const { return keys.empty(); }
  size_t num_keys() const { return keys.size(); }
  void Clear();

  /// Event indexes of `key` as a [first, last) pointer range; both null
  /// when the key has no events in this partition.
  std::pair<const uint32_t*, const uint32_t*> Lookup(uint64_t key) const;
};

/// Sorted event indexes of one operation, with a start-ts zone map. Because
/// event indexes ascend in start-ts order, a posting list is itself sorted
/// by start_ts and supports binary-searched time clipping.
struct OpPostingList {
  std::vector<uint32_t> indexes;
  Timestamp min_start_ts = INT64_MAX;
  Timestamp max_start_ts = INT64_MIN;

  bool empty() const { return indexes.empty(); }
  size_t size() const { return indexes.size(); }
};

/// Everything a sealed partition holds, in the form a snapshot v2 segment
/// decodes to. Op counts are the posting-list sizes.
struct SealedPartitionParts {
  std::vector<Event> events;
  EventColumns columns;
  std::array<OpPostingList, kNumOpTypes> postings;  ///< zone maps filled
  EntityPostingIndex subject_index;
  EntityPostingIndex object_index;
  std::unordered_map<StringId, uint64_t> subject_exe_counts;
  Timestamp min_ts = INT64_MAX;
  Timestamp max_ts = INT64_MIN;
  uint64_t raw_count = 0;
};

/// One partition's events and statistics.
class EventPartition {
 public:
  EventPartition() { op_counts_.fill(0); }

  /// Appends an event, attempting merge-deduplication: a raw event with the
  /// same (subject, op, object_type, object) whose start falls within
  /// `dedup_window` of the previous occurrence's end is merged into it
  /// (interval extended, amounts summed, merge_count incremented).
  /// Pass dedup_window = 0 to disable merging. Returns true if merged.
  bool Append(const Event& event, Duration dedup_window);

  /// Sorts events by (start_ts, end_ts), freezes the partition, and builds
  /// the columnar view plus per-operation posting lists. Idempotent: a
  /// partition already sealing (concurrently, on a background thread) or
  /// sealed is left alone.
  void Seal();

  /// Atomically claims the open -> sealing transition. The caller that wins
  /// must call FinishSeal() exactly once; everyone else must not touch the
  /// partition's write side again. Used by the database to hand a closed
  /// partition to a background sealing task exactly once.
  bool TryBeginSeal();

  /// Sorts, builds the seal artifacts, and publishes the sealed flag
  /// (release). Precondition: this thread won TryBeginSeal(). May run
  /// without any database lock — the partition is unreachable for writes
  /// once closed, and readers ignore it until sealed() observes true.
  void FinishSeal();

  /// True once FinishSeal() has published the artifacts (acquire: a true
  /// result also makes the sorted events/columns/postings visible).
  bool sealed() const {
    return seal_state_.load(std::memory_order_acquire) == kSealed;
  }
  const std::vector<Event>& events() const { return events_; }
  size_t size() const { return events_.size(); }

  /// Columnar view over the sorted events (valid once sealed).
  const EventColumns& columns() const { return columns_; }

  /// Posting list of `op` (valid once sealed).
  const OpPostingList& posting(OpType op) const {
    return op_postings_[static_cast<size_t>(op)];
  }

  /// Position range [lo, hi) within posting(op) whose events start inside
  /// `range`. Zone-map clipped, then binary searched (partition sealed).
  std::pair<size_t, size_t> PostingRange(OpType op,
                                         const TimeRange& range) const;

  /// Exact number of events whose op is in `mask` and whose start_ts falls
  /// in `range` — the estimator's time-clipped per-operation count.
  uint64_t OpCountInRange(OpMask mask, const TimeRange& range) const;

  Timestamp min_ts() const { return min_ts_; }
  Timestamp max_ts() const { return max_ts_; }

  /// Events whose operation is `op`.
  uint64_t OpCount(OpType op) const {
    return op_counts_[static_cast<size_t>(op)];
  }
  /// Events whose subject process has the given exe-name string id.
  uint64_t SubjectExeCount(StringId exe) const;

  /// Map of subject exe-name id -> event count (for the estimator).
  const std::unordered_map<StringId, uint64_t>& subject_exe_counts() const {
    return subject_exe_counts_;
  }

  /// Index of the first event with start_ts >= t (partition must be sealed).
  size_t LowerBound(Timestamp t) const;

  /// Key of an object entity in the reverse index.
  static uint64_t ObjectKey(EntityType type, EntityId id) {
    return (static_cast<uint64_t>(type) << 32) | id;
  }

  /// Reverse index over event subjects (key = subject process id); valid
  /// once sealed.
  const EntityPostingIndex& subject_index() const { return subject_index_; }
  /// Reverse index over event objects (key = ObjectKey(type, id)); valid
  /// once sealed.
  const EntityPostingIndex& object_index() const { return object_index_; }

  /// Ascending event indexes whose subject is `subject`.
  std::pair<const uint32_t*, const uint32_t*> SubjectPostings(
      EntityId subject) const {
    return subject_index_.Lookup(subject);
  }
  /// Ascending event indexes whose object is (`type`, `id`).
  std::pair<const uint32_t*, const uint32_t*> ObjectPostings(
      EntityType type, EntityId id) const {
    return object_index_.Lookup(ObjectKey(type, id));
  }

  /// Raw (pre-dedup) events represented, i.e. sum of merge counts.
  uint64_t raw_event_count() const { return raw_count_; }

  /// Bytes of this partition's rows, columns, posting lists and reverse
  /// indexes, counted per element (allocator slack left by ingest-time
  /// growth is not counted), so a partition decoded from a snapshot segment
  /// reports exactly what its hot copy did. This is what a PartitionCache
  /// charges against its byte budget when the partition is materialized
  /// from cold storage.
  size_t MemoryFootprint() const;

  /// Internal mutable access used by snapshot loading.
  std::vector<Event>* mutable_events() { return &events_; }
  /// Recomputes statistics from `events_` (after snapshot load).
  void RebuildStats(const std::vector<ProcessEntity>& processes);

  /// Snapshot-v2 load hook: installs a fully sealed partition wholesale.
  /// Rows, columns, posting lists with their zone maps, reverse entity
  /// indexes, statistics and time bounds are all adopted exactly as the
  /// segment decoder produced them — no sort, no index rebuild, no pass over
  /// the events. Precondition: the partition is empty and `parts` satisfies
  /// every seal invariant (the snapshot decoder validates all of them before
  /// calling).
  void RestoreSealed(SealedPartitionParts parts);

 private:
  struct MergeKey {
    EntityId subject;
    EntityId object;
    OpType op;
    EntityType object_type;
    bool operator==(const MergeKey&) const = default;
  };
  struct MergeKeyHash {
    size_t operator()(const MergeKey& k) const {
      uint64_t h = k.subject;
      h = h * 0x9E3779B97F4A7C15ULL + k.object;
      h = h * 0x9E3779B97F4A7C15ULL + static_cast<uint64_t>(k.op);
      h = h * 0x9E3779B97F4A7C15ULL + static_cast<uint64_t>(k.object_type);
      return static_cast<size_t>(h ^ (h >> 32));
    }
  };

  enum SealState : uint8_t { kOpen = 0, kSealing = 1, kSealed = 2 };

  void AccountEvent(const Event& event, StringId subject_exe);
  void BuildSealArtifacts();

  std::vector<Event> events_;
  EventColumns columns_;
  std::array<OpPostingList, kNumOpTypes> op_postings_;
  EntityPostingIndex subject_index_;
  EntityPostingIndex object_index_;
  std::atomic<uint8_t> seal_state_{kOpen};
  Timestamp min_ts_ = INT64_MAX;
  Timestamp max_ts_ = INT64_MIN;
  uint64_t raw_count_ = 0;
  std::array<uint64_t, kNumOpTypes> op_counts_;
  std::unordered_map<StringId, uint64_t> subject_exe_counts_;
  // Last event index per merge key (cleared on Seal()).
  std::unordered_map<MergeKey, size_t, MergeKeyHash> merge_tail_;
  // Exe id of each event's subject, tracked during ingest for stats; the
  // database passes it in via AppendWithExe.
  friend class AuditDatabase;
  bool AppendWithExe(const Event& event, StringId subject_exe,
                     Duration dedup_window);
};

}  // namespace aiql

#endif  // AIQL_STORAGE_PARTITION_H_
