// AuditDatabase: the optimized domain-specific store (paper §2.1).
//
// Combines the deduplicated EntityStore with time x agent partitions, batch
// commit, and database-wide statistics. The write path streams: records
// keep appending into the active partition of their (time bucket, agent),
// partitions roll over and seal themselves when their bucket closes (or on
// a size threshold), optionally on a background ThreadPool. Queries consume
// a ReadView — a consistent snapshot of the currently-sealed partitions —
// so they execute concurrently with ingestion at bounded staleness. An
// explicit Seal() remains as "flush and seal everything" for batch
// workloads and snapshots.
//
// Threading model (single-writer / multi-reader):
//   * One ingest thread calls Append/AppendBatch/Flush/Seal.
//   * Any number of reader threads call OpenReadView() and use the view.
//   * Batch commits take the state mutex exclusively; a ReadView holds it
//     shared for the view's lifetime, which is what makes the EntityStore
//     safe to read while ingestion continues: interning only happens inside
//     a commit, and a commit waits for open views to close. Appends only
//     buffer, so the ingest thread stalls on queries only at batch-commit
//     boundaries, for as long as views opened before the commit stay open
//     (std::shared_mutex gives no writer priority, so a commit can wait for
//     several query generations under sustained many-reader load); query
//     visibility lags by the same plus one batch.
//   * Background sealing (sorting a closed partition) runs without the
//     state mutex: a closed partition is unreachable for writes, and
//     readers ignore it until its sealed flag (an acquire/release atomic)
//     is published.

#ifndef AIQL_STORAGE_DATABASE_H_
#define AIQL_STORAGE_DATABASE_H_

#include <array>
#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <shared_mutex>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "common/status.h"
#include "common/thread_pool.h"
#include "common/time_utils.h"
#include "storage/data_model.h"
#include "storage/entity_store.h"
#include "storage/partition.h"

namespace aiql {

/// Tuning knobs for the store; defaults mirror the deployed system's
/// hourly time partitions and short merge window.
struct StorageOptions {
  /// Width of a time bucket. Events are partitioned by
  /// (start_ts / partition_duration, agent_id).
  Duration partition_duration = kHour;

  /// Merge window for event deduplication; 0 disables merging.
  Duration dedup_window = 3 * kSecond;

  /// Records buffered before a batch commit to the partitions.
  size_t batch_commit_size = 8192;

  /// Events in an active partition that trigger an early rollover + seal
  /// before its time bucket closes; 0 disables size-based rollover. The
  /// overflow continues in a fresh partition of the same bucket.
  size_t max_partition_events = 0;

  /// Pool for background partition sealing; null seals inline during the
  /// committing batch. Must outlive the database's final Seal() (or its
  /// destruction). May be shared with the query engine's scan pool.
  ThreadPool* seal_pool = nullptr;
};

/// Aggregate counters describing the whole database.
struct DatabaseStats {
  uint64_t total_events = 0;      ///< stored (post-dedup) events
  uint64_t raw_events = 0;        ///< raw events ingested
  uint64_t total_partitions = 0;
  /// Partitions closed for appends and handed to sealing (sealed, or with
  /// the background seal still in flight).
  uint64_t partitions_sealed = 0;
  std::array<uint64_t, kNumOpTypes> op_counts{};
  Timestamp min_ts = INT64_MAX;
  Timestamp max_ts = INT64_MIN;
};

/// Partition-map key: one (bucket, agent) pair maps to several physical
/// partitions when a size-threshold rollover or a late (already-rotated
/// bucket) arrival splits a bucket; `seq` (third element) disambiguates,
/// ascending in creation order.
using PartitionMapKey = std::tuple<int64_t, AgentId, uint32_t>;

class AuditDatabase;
class SnapshotStore;
class TieredStore;
class ReadView;

namespace snapfmt {
struct PartitionDirEntry;
}  // namespace snapfmt

/// Keeps cold-partition materializations alive for the lifetime of the
/// ReadView that selected them. A memory-budgeted PartitionCache may evict
/// a partition while a query is still scanning it; the query's pin (a
/// shared_ptr copy) keeps the bytes valid, so eviction reclaims budget
/// without invalidating in-flight reads. Thread-safe: parallel scan workers
/// may pin through one view concurrently.
struct PartitionPinSet {
  std::mutex mu;
  std::vector<std::shared_ptr<const EventPartition>> pins;

  void Add(std::shared_ptr<const EventPartition> pin) {
    std::lock_guard<std::mutex> lock(mu);
    pins.push_back(std::move(pin));
  }
  size_t size() {
    std::lock_guard<std::mutex> lock(mu);
    return pins.size();
  }
};

/// What partition selection knows about one partition without
/// materializing it: a resident partition's own statistics, or a cold
/// partition's snapshot directory entry.
struct PartitionStats {
  PartitionKey key;
  Timestamp min_ts = INT64_MAX;
  Timestamp max_ts = INT64_MIN;  ///< latest event end
  uint64_t events = 0;
  const std::array<uint64_t, kNumOpTypes>* op_counts = nullptr;
  /// Entity summary (storage/key_summary.h) of a cold partition; null for
  /// a resident one, whose exact reverse indexes a hop probes directly and
  /// whose rows a scan tests against its candidate sets.
  const std::string* key_summary = nullptr;
};

class SummaryKeyGroups;

/// The one partition-selection predicate of every read path (database,
/// snapshot and tiered views), evaluated on statistics alone so a cold
/// partition that cannot match is never materialized. This is the only
/// place a query's agent restriction applies: a partition holds one
/// agent's events. A partition is selected when it is non-empty, its agent
/// is in `agents` (nullopt = all), its
/// [min_ts, max_ts] overlaps `range`, it holds an event of some op in
/// `ops`, and — when `keys` is given and the partition carries a summary —
/// its summary may hold some key of every group in `keys`. The summary is
/// probed last, so `keys` gathers and hashes its groups only once a cold
/// partition passes every other test. The `storage.summary.miss` failpoint
/// (arg = PartitionKey::Fold()) forces a summary miss after every group
/// passed; tests use it to prove that a false negative would be caught.
bool PartitionStatsSelected(const TimeRange& range,
                            const std::optional<std::vector<AgentId>>& agents,
                            OpMask ops, SummaryKeyGroups* keys,
                            const PartitionStats& stats);

/// A consistent snapshot of the database's sealed partitions plus aggregate
/// statistics, opened via AuditDatabase::OpenReadView(). The view holds the
/// database's state mutex shared for its lifetime: partition pointers,
/// entity lookups, and statistics stay stable while the ingest thread keeps
/// buffering (commits wait until the view closes). Queries therefore see
/// every partition fully sealed — never a partially-sealed one — and
/// successive views observe monotonically non-decreasing event counts.
///
/// A view can also be backed by a SnapshotStore (a lazily opened v2
/// snapshot) or a TieredStore (hot partitions plus a cold directory):
/// partition selection then runs on the persisted directory statistics and
/// materializes only the partitions the query can match, which is why
/// SelectPartitions returns a Result — a corrupt or truncated segment
/// surfaces as a clean Status at selection time.
/// Move-only; cheap to open (one pointer copy per sealed partition).
class ReadView {
 public:
  ReadView() = default;
  ReadView(ReadView&&) = default;
  ReadView& operator=(ReadView&&) = default;

  const EntityStore& entities() const { return *entities_; }
  const StorageOptions& options() const { return *options_; }

  /// Database-wide counters at view-open time (includes events committed to
  /// partitions that are still active, i.e. not yet visible to scans).
  const DatabaseStats& stats() const { return stats_; }

  /// Events inside the view's sealed partitions — what scans can see.
  uint64_t visible_events() const { return visible_events_; }

  /// All sealed partitions, ordered by (bucket, agent, seq). Only populated
  /// for database-backed views; snapshot-backed views expose partitions
  /// through SelectPartitions so unqueried ones stay on disk.
  const std::vector<std::pair<PartitionKey, const EventPartition*>>&
  partitions() const {
    return partitions_;
  }

  /// Sealed partitions that PartitionStatsSelected admits for `range`,
  /// `agents` (nullopt = all agents), `ops` and the summary key groups
  /// `keys` (null = no entity test). A provenance hop passes one group, its
  /// frontier; a scan passes one group per pattern side with a candidate
  /// set (ScanKeyGroups), exactly the entities its rows are tested against,
  /// so pruning never drops a match. Ordered by (bucket, agent, seq). On a
  /// snapshot- or tiered-backed view this materializes (and caches) exactly
  /// the selected cold partitions, and fails with IOError/Corruption if a
  /// segment cannot be read back intact.
  Result<std::vector<std::pair<PartitionKey, const EventPartition*>>>
  SelectPartitions(const TimeRange& range,
                   const std::optional<std::vector<AgentId>>& agents,
                   OpMask ops, SummaryKeyGroups* keys = nullptr) const;

  /// The exact counts the pruning-power estimator reads, over the
  /// partitions `range` and `agents` select (any op).
  struct EstimateCounts {
    uint64_t op_events = 0;   ///< op in `ops`, start_ts in `range`
    uint64_t exe_events = 0;  ///< subject exe in `exes`
  };

  /// Counts from directory statistics. A cold partition is materialized
  /// only when `range` cuts through the start fence of one of its `ops`,
  /// which the directory alone cannot resolve.
  Result<EstimateCounts> CountForEstimate(
      const TimeRange& range,
      const std::optional<std::vector<AgentId>>& agents, OpMask ops,
      const std::vector<StringId>& exes) const;

 private:
  friend class AuditDatabase;
  friend class SnapshotStore;
  friend class TieredStore;

  /// Calls fn(stats, resident, cold) for every partition of the view in
  /// (bucket, agent, seq) order: a resident partition with `cold` unused,
  /// or a cold one (`resident` null) by its index in cold_. Stops at the
  /// first error fn returns.
  template <typename Fn>
  Status ForEachPartition(const Fn& fn) const;

  /// Materializes cold_[index] through its store and pins it to the view.
  Result<const EventPartition*> MaterializeCold(size_t index) const;

  const EntityStore* entities_ = nullptr;
  const StorageOptions* options_ = nullptr;
  std::shared_lock<std::shared_mutex> lock_;
  std::vector<std::pair<PartitionKey, const EventPartition*>> partitions_;
  // Cold partitions of a snapshot- or tiered-backed view, as directory
  // entries in (bucket, agent, seq) order. Within one (bucket, agent) the
  // cold partitions carry lower seqs than any resident sibling.
  std::vector<const snapfmt::PartitionDirEntry*> cold_;
  const SnapshotStore* store_ = nullptr;
  // Tiered backing: the owning store plus an immutable snapshot of its cold
  // directory (cold_ indexes it), captured at view-open time so selection
  // never races background demotion/compaction/tombstoning.
  const TieredStore* tiered_ = nullptr;
  std::shared_ptr<const void> tiered_cold_;
  // Created at view open for snapshot/tiered-backed views; selection adds a
  // pin for each cold partition it materializes.
  mutable std::shared_ptr<PartitionPinSet> pins_;
  DatabaseStats stats_;
  uint64_t visible_events_ = 0;
};

/// The storage engine. Write path: Append/AppendBatch -> (rotation seals
/// closed partitions automatically) -> Seal() to flush and freeze
/// everything. Read path: OpenReadView() at any time, for every reader
/// (engine, SQL/graph baselines); partitions() remains for the snapshot
/// writer on a sealed database.
class AuditDatabase {
 public:
  explicit AuditDatabase(StorageOptions options = {});

  /// Waits for in-flight background seals.
  ~AuditDatabase();

  AuditDatabase(const AuditDatabase&) = delete;
  AuditDatabase& operator=(const AuditDatabase&) = delete;
  /// Moving is only valid while quiescent (no open views, no in-flight
  /// background seals, no concurrent writer).
  AuditDatabase(AuditDatabase&&) = default;
  AuditDatabase& operator=(AuditDatabase&&) = default;

  // --- write path (single writer thread) -----------------------------------

  /// Buffers one record; commits the buffer when it reaches
  /// batch_commit_size. Returns an error for malformed records (e.g.
  /// end before start) and after the final Seal(). Partitions whose time
  /// bucket the record stream has moved past (per agent) are sealed
  /// automatically during the commit.
  Status Append(EventRecord record);

  /// Buffers many records, all-or-nothing: every record is validated before
  /// any is buffered, so a malformed record mid-batch leaves the database
  /// unchanged.
  Status AppendBatch(std::vector<EventRecord> records);

  /// Commits any buffered records, propagating the first commit error.
  Status Flush();

  /// Flushes, seals every partition (waiting for background seals), and
  /// freezes the database: subsequent appends fail. Required before
  /// snapshot serialization.
  Status Seal();

  /// True once Seal() has frozen the database (streaming auto-sealing of
  /// individual partitions does not set this).
  bool sealed() const {
    return sync_->finalized.load(std::memory_order_acquire);
  }

  // --- read path -----------------------------------------------------------

  /// Opens a consistent snapshot of the sealed partitions + statistics.
  /// Safe to call from any thread, concurrently with ingestion.
  ReadView OpenReadView() const;

  /// Thread-safe copy of the current statistics.
  DatabaseStats StatsSnapshot() const;

  // --- batch read access (sealed database) ---------------------------------

  const EntityStore& entities() const { return entities_; }
  const StorageOptions& options() const { return options_; }
  const DatabaseStats& stats() const { return stats_; }

  /// All partitions (snapshot serialization).
  const std::map<PartitionMapKey, std::unique_ptr<EventPartition>>&
  partitions() const {
    return partitions_;
  }

  /// Mutable access used by snapshot loading.
  EntityStore* mutable_entities() { return &entities_; }

  /// Snapshot-v2 load hooks: AdoptSealedPartition installs an
  /// already-sealed partition (indexes and statistics intact) under
  /// (bucket, agent) at the next free seq; FinishRestore then aggregates
  /// database statistics from the partition statistics — no event is
  /// re-read — and freezes the database. Only valid while assembling a
  /// freshly constructed database.
  void AdoptSealedPartition(int64_t bucket, AgentId agent,
                            std::unique_ptr<EventPartition> partition);
  void FinishRestore();

  // --- tiered-retention maintenance (TieredStore) ---------------------------

  /// Directory of every fully sealed partition, under the state lock
  /// shared. The returned pointers stay valid until a maintenance call
  /// (ExtractSealedPartitions / ReplaceSealedPartitions) removes them;
  /// with a single maintenance thread that makes them stable between that
  /// thread's own calls.
  std::vector<std::pair<PartitionMapKey, const EventPartition*>>
  ListSealedPartitions() const;

  /// Removes the sealed partitions named by `keys` from the partition map,
  /// handing each to `sink` while the state lock is held exclusively — so
  /// no view can ever observe a partition both here and in a cold
  /// directory the sink publishes. Missing or unsealed keys are skipped.
  /// Aggregate statistics are intentionally NOT adjusted: they keep
  /// describing all data ever ingested, which is what tiered views report.
  void ExtractSealedPartitions(
      const std::vector<PartitionMapKey>& keys,
      const std::function<void(const PartitionMapKey&,
                               std::unique_ptr<EventPartition>)>& sink);

  /// Atomically replaces the sealed partitions `old_keys` — all of one
  /// (bucket, agent) — with `merged` (already sealed), installed at the
  /// lowest replaced seq. Merge compaction's commit step. Fails without
  /// side effects if any key is missing, unsealed, or from a different
  /// (bucket, agent).
  Status ReplaceSealedPartitions(const std::vector<PartitionMapKey>& old_keys,
                                 std::unique_ptr<EventPartition> merged);

 private:
  /// Cross-thread synchronization state; heap-allocated so the database
  /// stays movable (while quiescent) and background seal tasks can outlive
  /// a move.
  struct Sync {
    /// Guards partitions_, open_, agent_clock_, stats_, entities_.
    mutable std::shared_mutex state_mu;
    /// Guards seals_in_flight; signaled when a background seal finishes.
    std::mutex seal_mu;
    std::condition_variable seal_cv;
    size_t seals_in_flight = 0;
    std::atomic<bool> finalized{false};
  };

  /// Normalizes end_ts and validates; returns the error for bad records.
  Status ValidateRecord(EventRecord* record) const;
  /// Interns + appends one record. state_mu held exclusively.
  Status CommitRecordLocked(const EventRecord& record);
  /// Open-partition lookup/creation. state_mu held exclusively.
  EventPartition* GetOrCreatePartitionLocked(int64_t bucket, AgentId agent);
  /// Closes the open partition at `key` and seals it (background pool when
  /// configured, else inline). state_mu held exclusively.
  void CloseAndSealLocked(std::pair<int64_t, AgentId> key);
  /// Seals every partition `agent` has moved past `bucket`. state_mu held.
  void RotateAgentLocked(AgentId agent, int64_t bucket);
  /// Blocks until no background seal is in flight.
  void WaitForBackgroundSeals();

  StorageOptions options_;
  EntityStore entities_;
  // Ordered map gives deterministic partition iteration order.
  std::map<PartitionMapKey, std::unique_ptr<EventPartition>> partitions_;
  // The open (accepting appends) partition per (bucket, agent), with its
  // seq in the partition map. Entries leave this map when sealed.
  std::map<std::pair<int64_t, AgentId>,
           std::pair<uint32_t, EventPartition*>>
      open_;
  // Highest bucket seen per agent; a record beyond it rotates the agent's
  // older open partitions.
  std::map<AgentId, int64_t> agent_clock_;
  std::vector<EventRecord> pending_;  // writer-thread only
  DatabaseStats stats_;
  std::unique_ptr<Sync> sync_;
};

}  // namespace aiql

#endif  // AIQL_STORAGE_DATABASE_H_
