// On-disk snapshot persistence for AuditDatabase.
//
// The deployed system keeps 0.5-1 year of monitoring data on disk, so the
// snapshot format matters as much as the scan path: the v2 format written
// here is a compressed, partition-granular store that can be *opened*
// without being read. Layout (little-endian; full spec in
// docs/snapshot-format.md):
//
//   [header]   magic "AIQLSNP2" + format version
//   [segments] one META segment (string dictionaries + entity tables) and
//              one PARTITION segment per (bucket, agent, seq) partition —
//              columns delta/varint/RLE-encoded, posting lists and
//              statistics persisted so load skips the index rebuild
//   [footer]   segment directory: per-segment offset/length/checksum plus
//              per-partition statistics (time bounds, event and op counts,
//              op start fences, subject-exe counts, entity summary)
//   [trailer]  footer offset + footer checksum + magic again
//
// SnapshotStore::Open reads only the trailer, footer, and META segment;
// partition segments are materialized lazily — and cached — when the
// directory statistics say a query or hop can match them, so cold-start
// latency is driven by data touched, not data stored. Every section is
// independently checksummed; truncation and bit flips surface as clean
// Status errors.
//
// The retired v1 single-blob format (magic "AIQLSNP1") is refused by both
// LoadSnapshot and SnapshotStore::Open with an error naming it unsupported.

#ifndef AIQL_STORAGE_SNAPSHOT_H_
#define AIQL_STORAGE_SNAPSHOT_H_

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "common/status.h"
#include "storage/database.h"

namespace aiql {

class PartitionCache;

/// Byte sink for snapshot serialization. The production implementation
/// writes a file; tests inject failing sinks to prove that short writes,
/// sync failures, and close failures are reported instead of swallowed.
class SnapshotSink {
 public:
  virtual ~SnapshotSink() = default;

  /// Appends exactly `n` bytes; a partial write must return an error.
  virtual Status Append(const void* data, size_t n) = 0;

  /// Flushes buffered bytes to durable storage (fflush + fsync for files).
  virtual Status Sync() = 0;

  /// Releases the sink. Must fail if buffered bytes could not be committed.
  virtual Status Close() = 0;
};

/// Serializes a sealed database in v2 format into `sink`, then Sync() and
/// Close() it. Fails if the database is not sealed; any I/O error —
/// including a short write, a failed sync, or a failed close — is
/// propagated rather than reported as success.
Status SaveSnapshotToSink(const AuditDatabase& db, SnapshotSink* sink);

/// Serializes a sealed database to `path` in v2 format. Writes to a
/// temporary file first and renames it into place only after a successful
/// sync, so a failed save never leaves a truncated snapshot at `path`.
Status SaveSnapshot(const AuditDatabase& db, const std::string& path);

/// Fully loads a v2 snapshot into a sealed database. Detects truncation,
/// bad magic, version mismatch (v1 included), and checksum corruption. For
/// lazy, partition-granular access to a v2 snapshot use SnapshotStore::Open
/// instead.
Result<AuditDatabase> LoadSnapshot(const std::string& path);

/// A lazily opened v2 snapshot. Open() reads the footer directory, the
/// persisted statistics, and the entity/dictionary segment — no event data.
/// OpenReadView() then serves the same ReadView interface the engine uses
/// against a live database: partition selection runs on the persisted
/// per-partition statistics, and only the selected partitions are read,
/// checksum-verified, decoded, and cached.
///
/// Thread-safe: concurrent queries may materialize partitions through one
/// store; loads are serialized on an internal mutex while the
/// already-materialized fast path is lock-free.
class SnapshotStore {
 public:
  /// Opens a v2 snapshot. Returns InvalidArgument for v1 snapshots (no
  /// longer supported), Corruption/IOError for damaged files.
  static Result<std::unique_ptr<SnapshotStore>> Open(const std::string& path);

  ~SnapshotStore();

  SnapshotStore(const SnapshotStore&) = delete;
  SnapshotStore& operator=(const SnapshotStore&) = delete;

  const std::string& path() const { return path_; }
  const EntityStore& entities() const { return entities_; }
  const StorageOptions& options() const { return options_; }

  /// Database-wide statistics as persisted at save time.
  const DatabaseStats& stats() const { return stats_; }

  uint64_t total_partitions() const { return handles_.size(); }

  /// Partition materializations so far (monotone; for tests and metrics).
  /// With a cache attached this counts every decode, including reopens of
  /// previously evicted partitions.
  uint64_t loaded_partitions() const {
    return loaded_count_.load(std::memory_order_relaxed);
  }

  /// Attaches a memory-budgeted LRU cache (borrowed; must outlive the
  /// store). Materialized partitions are then owned by the cache plus any
  /// query pins instead of being held forever: when the cache evicts one
  /// under budget pressure, the next selection reopens it from disk (the
  /// `retention.reopen` failpoint covers that path). Call before the store
  /// is shared across threads.
  void AttachCache(PartitionCache* cache);
  PartitionCache* cache() const { return cache_; }

  /// Cache-mode reopen decodes (a reopen is any decode after the first).
  uint64_t reopens() const {
    return reopens_.load(std::memory_order_relaxed);
  }

  /// Materializes partition `index`, returning a pin that keeps it alive
  /// independent of cache eviction. Without a cache the pin aliases the
  /// store-owned partition.
  Result<std::shared_ptr<const EventPartition>> MaterializePartition(
      size_t index) const;

  /// Opens a snapshot-backed read view over this store. The view's
  /// SelectPartitions selects on the footer directory's statistics and
  /// materializes exactly the partitions it selects. The store must
  /// outlive the view.
  ReadView OpenReadView() const;

  /// Materializes every partition (full-load compat path).
  Status MaterializeAll() const;

  /// Consumes the store into a standalone sealed AuditDatabase (full
  /// materialization) — the LoadSnapshot compat path for v2 files.
  Result<AuditDatabase> ToDatabase() &&;

 private:
  struct PartitionHandle;

  SnapshotStore() = default;

  /// Materializes handle `index` if needed; returns the sealed partition.
  Result<const EventPartition*> Partition(size_t index) const;

  /// Reads + checksum-verifies + decodes segment `index` (load_mu_ held).
  Result<std::unique_ptr<EventPartition>> DecodeHandleLocked(
      size_t index) const;

  std::string path_;
  FILE* file_ = nullptr;
  StorageOptions options_;
  EntityStore entities_;
  DatabaseStats stats_;
  // Segment reads + materialization are serialized; `loaded` publication
  // makes the fast path lock-free.
  mutable std::mutex load_mu_;
  mutable std::atomic<uint64_t> loaded_count_{0};
  mutable std::atomic<uint64_t> reopens_{0};
  mutable std::vector<std::unique_ptr<PartitionHandle>> handles_;
  PartitionCache* cache_ = nullptr;  // borrowed; null = keep-forever mode
};

}  // namespace aiql

#endif  // AIQL_STORAGE_SNAPSHOT_H_
