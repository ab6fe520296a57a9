// Time x agent event partitions ("hypertable" storage, paper §2.1).
//
// Events are bucketed by (time bucket, agent id). Each partition keeps its
// events sorted by start timestamp once sealed, plus lightweight statistics
// (per-operation counts, per-subject-exe counts) that feed the engine's
// pruning-power estimator. Partitions are the unit of parallel scanning.
//
// The agent is a property of the partition, not of its events: every event
// of a partition comes from the one agent it was created for, so no column
// stores it, Row(i) fills it in, and a query's agent restriction is applied
// by partition selection alone.
//
// An open partition buffers `Event` rows for ingest and merge-dedup. Sealing
// sorts the buffer, turns it into the partition's only event storage, and
// releases it:
//   * a structure-of-arrays column set (EventColumns), one entry per event
//     in sorted order; Row(i) gathers event i back out of it,
//   * per-operation posting lists (sorted event indexes with a start-ts
//     zone map) so op-selective scans iterate only matching events, and
//   * a reverse entity index (CSR posting lists keyed by subject process id
//     and by (object type, object id)) so provenance tracking can expand a
//     frontier entity without scanning the partition.
// A decoded snapshot segment installs the same artifacts as persisted.

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

  /// (bucket, agent) folded into one integer (bucket in the high bits,
  /// wrapping), e.g. to aim a failpoint at one partition.
  int64_t Fold() const {
    return static_cast<int64_t>((static_cast<uint64_t>(bucket) << 32) |
                                agent_id);
  }
};

struct PartitionKeyHash {
  size_t operator()(const PartitionKey& k) const {
    uint64_t h = static_cast<uint64_t>(k.bucket) * 0x9E3779B97F4A7C15ULL +
                 k.agent_id;
    return static_cast<size_t>(h ^ (h >> 31));
  }
};

/// A sealed partition's events as structure-of-arrays columns, sorted by
/// (start_ts, end_ts); every field of `Event` but the partition's agent has
/// a column.
struct EventColumns {
  std::vector<Timestamp> start_ts;
  std::vector<Timestamp> end_ts;
  std::vector<EntityId> subject;
  std::vector<EntityId> object;
  std::vector<uint64_t> amount;
  std::vector<uint32_t> merge_count;
  std::vector<OpType> op;
  std::vector<EntityType> object_type;

  size_t size() const { return start_ts.size(); }
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
  AgentId agent = 0;
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
  explicit EventPartition(AgentId agent = 0) : agent_(agent) {
    op_counts_.fill(0);
  }

  /// The agent every event of this partition comes from.
  AgentId agent_id() const { return agent_; }

  /// Appends an event to the open partition's buffer (its agent_id is not
  /// kept: the partition's agent stands for it), attempting
  /// merge-deduplication: an event with the same (subject, op, object_type,
  /// object) whose start falls within `dedup_window` of the previous
  /// occurrence's end is merged into it (interval extended, amounts and
  /// merge counts summed). Pass dedup_window = 0 to disable merging. The
  /// raw event count grows by `event.merge_count`. Returns true if merged.
  bool Append(const Event& event, Duration dedup_window);

  /// Sorts the buffer by (start_ts, end_ts), builds the columns, posting
  /// lists and reverse indexes from it, releases it, and freezes the
  /// partition. Idempotent: a partition already sealing (concurrently, on a
  /// background thread) or sealed is left alone.
  void Seal();

  /// Atomically claims the open -> sealing transition. The caller that wins
  /// must call FinishSeal() exactly once; everyone else must not touch the
  /// partition's write side again. Used by the database to hand a closed
  /// partition to a background sealing task exactly once.
  bool TryBeginSeal();

  /// Sorts, builds the seal artifacts, releases the buffer, and publishes
  /// the sealed flag (release). Precondition: this thread won
  /// TryBeginSeal(). May run without any database lock — the partition is
  /// unreachable for writes once closed, and readers ignore it until
  /// sealed() observes true.
  void FinishSeal();

  /// True once FinishSeal() has published the artifacts (acquire: a true
  /// result also makes the columns/postings visible).
  bool sealed() const {
    return seal_state_.load(std::memory_order_acquire) == kSealed;
  }
  /// Events stored: the columns once sealed, the buffer before.
  size_t size() const {
    return sealed() ? columns_.size() : buffer_.size();
  }

  /// The sorted event columns (valid once sealed).
  const EventColumns& columns() const { return columns_; }

  /// Event `i` of the sorted partition, gathered from the columns, with the
  /// partition's agent (valid once sealed).
  Event Row(size_t i) const;

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
  const std::array<uint64_t, kNumOpTypes>& op_counts() const {
    return op_counts_;
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

  /// Bytes of this partition's ingest buffer, columns, posting lists and
  /// reverse indexes, counted per element (allocator slack left by
  /// ingest-time growth is not counted), so a partition decoded from a
  /// snapshot segment reports exactly what its hot copy did. This is what a
  /// PartitionCache charges against its byte budget when the partition is
  /// materialized from cold storage.
  size_t MemoryFootprint() const;

  /// Snapshot-v2 load hook: installs a fully sealed partition wholesale.
  /// Agent, columns, posting lists with their zone maps, reverse entity
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

  AgentId agent_;
  // Ingest buffer of an open partition; empty once sealed.
  std::vector<Event> buffer_;
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
  // Last buffer index per merge key (cleared on Seal()).
  std::unordered_map<MergeKey, size_t, MergeKeyHash> merge_tail_;
  // Exe id of each event's subject, tracked during ingest for stats; the
  // database and the tiered compactor pass it in via AppendWithExe.
  friend class AuditDatabase;
  friend class TieredStore;
  bool AppendWithExe(const Event& event, StringId subject_exe,
                     Duration dedup_window);
};

/// One event of a sealed partition by reference: the partition and the
/// event's row. Matches on the query and tracking paths are EventRefs; they
/// stay valid for the life of the partition (a read view pins it).
struct EventRef {
  const EventPartition* partition = nullptr;
  uint32_t row = 0;

  bool operator==(const EventRef&) const = default;

  Timestamp start_ts() const { return partition->columns().start_ts[row]; }
  Timestamp end_ts() const { return partition->columns().end_ts[row]; }
  EntityId subject() const { return partition->columns().subject[row]; }
  EntityId object() const { return partition->columns().object[row]; }
  /// The whole event, gathered from the columns.
  Event Get() const { return partition->Row(row); }
};

struct EventRefHash {
  size_t operator()(const EventRef& ref) const {
    uint64_t h = reinterpret_cast<uintptr_t>(ref.partition) *
                     0x9E3779B97F4A7C15ULL +
                 ref.row;
    return static_cast<size_t>(h ^ (h >> 31));
  }
};

}  // namespace aiql

#endif  // AIQL_STORAGE_PARTITION_H_
