// Shard map: the fleet-scale storage seam (ROADMAP item 1).
//
// The deployed system ingests audit streams from thousands of hosts; one
// AuditDatabase cannot hold the fleet. A ShardMap splits the fleet by agent
// (host) range: each shard owns a contiguous half-open agent range and is
// backed by either a live AuditDatabase or a lazily opened SnapshotStore.
// Events are routed by `EventRecord::agent_id`, so a shard holds exactly
// the (bucket, agent) partitions a single database would hold for its
// agents — sharding changes data placement, never partition contents.
//
// Entity ids are NOT comparable across shards: each shard's EntityStore
// interns independently, so the same logical entity (say a process an event
// on another host references as its object) gets different ids on different
// shards. Cross-shard operations — semi-join binding exchange, provenance
// frontier exchange, result merging — translate through full attribute
// tuples: MakeEntityRef reconstructs the attributes from one shard's store,
// EntityRefKey canonicalizes them into a shard-independent key, and
// FindEntity resolves them into another shard's id space (entity_store.h's
// Find* lookups, which never intern).

#ifndef AIQL_STORAGE_SHARD_MAP_H_
#define AIQL_STORAGE_SHARD_MAP_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"
#include "storage/data_model.h"
#include "storage/database.h"
#include "storage/snapshot.h"

namespace aiql {

class TieredStore;

/// Half-open agent range [begin, end) owned by one shard. `end` is 64-bit
/// so that a range can own the top agent id (end = 2^32).
struct ShardRange {
  AgentId begin = 0;
  uint64_t end = 0;

  bool Contains(AgentId agent) const { return agent >= begin && agent < end; }
  bool operator==(const ShardRange&) const = default;
};

/// The range owning every agent id, [0, 2^32).
inline constexpr ShardRange kAllAgents{0, uint64_t{1} << 32};

/// Splits [min_agent, max_agent] into `num_shards` contiguous ranges of
/// near-equal width (the leading ranges absorb the remainder). More shards
/// than agents leaves the trailing ranges empty — a legal degenerate
/// configuration the merge layer must handle.
std::vector<ShardRange> EvenAgentRanges(size_t num_shards, AgentId min_agent,
                                        AgentId max_agent);

/// Routes `records` into one bucket per range by `agent_id`. Fails when a
/// record's agent falls outside every range (it would silently vanish from
/// the fleet otherwise).
Result<std::vector<std::vector<EventRecord>>> RouteRecordsByAgent(
    const std::vector<ShardRange>& ranges,
    const std::vector<EventRecord>& records);

/// An immutable mapping from agent ranges to shard backends. Backends are
/// borrowed: every database / snapshot store must outlive the map (and any
/// engine over it). Thread-safe after construction (all accessors const).
class ShardMap {
 public:
  ShardMap() = default;

  /// Adds a live-database shard owning `range`. Fails on an empty range or
  /// one overlapping an existing shard.
  Status AddShard(const AuditDatabase* db, ShardRange range);
  /// Adds a snapshot-backed shard owning `range`.
  Status AddShard(const SnapshotStore* snapshot, ShardRange range);
  /// Adds a tiered-retention shard owning `range` (hot + cold partitions,
  /// memory-budgeted cold cache; see storage/tiered.h).
  Status AddShard(const TieredStore* tiered, ShardRange range);

  size_t num_shards() const { return shards_.size(); }
  const ShardRange& range(size_t shard) const { return shards_[shard].range; }
  bool shard_is_snapshot(size_t shard) const {
    return shards_[shard].snapshot != nullptr;
  }
  bool shard_is_tiered(size_t shard) const {
    return shards_[shard].tiered != nullptr;
  }

  /// Splits one fleet-wide cold-cache byte budget evenly across the shards
  /// that own a memory-budgeted cache (tiered shards, plus snapshot shards
  /// with an attached cache). Shards without a cache are unaffected; 0
  /// lifts every per-shard budget. Returns the number of shards budgeted.
  size_t SetMemoryBudget(size_t total_bytes) const;

  /// Shard owning `agent`, or -1 when no range contains it.
  int ShardForAgent(AgentId agent) const;

  /// One consistent ReadView per shard, in shard order. Each shard's view
  /// is taken atomically against that shard (a db-backed view holds the
  /// shard's state lock shared for its lifetime, so ingestion on that shard
  /// keeps buffering and commits apply after the view closes); cross-shard
  /// consistency is bounded-staleness, exactly like successive queries
  /// against one streaming database.
  std::vector<ReadView> OpenReadViews() const;

  /// Entity store of one shard (for root resolution and rendering).
  const EntityStore& entities(size_t shard) const;

  /// Events stored across all shards (sum of per-shard statistics).
  uint64_t TotalEvents() const;

 private:
  struct Shard {
    const AuditDatabase* db = nullptr;
    const SnapshotStore* snapshot = nullptr;
    const TieredStore* tiered = nullptr;
    ShardRange range;
  };

  Status AddShardImpl(Shard shard);

  std::vector<Shard> shards_;
};

// ---------------------------------------------------------------------------
// Cross-shard entity translation.
// ---------------------------------------------------------------------------

/// Reconstructs the full attribute tuple of entity (type, id) from `store`.
/// The returned ObjectRef is shard-independent: interning it elsewhere (or
/// passing it to FindEntity) names the same logical entity.
ObjectRef MakeEntityRef(const EntityStore& store, EntityType type,
                        EntityId id);

/// Canonical shard-independent key of an entity reference — equal keys name
/// the same logical entity regardless of which shard produced the ref.
std::string EntityRefKey(const ObjectRef& ref);

/// Resolves `ref` in `store`'s id space without interning;
/// kInvalidEntityId when the store never saw the entity.
EntityId FindEntity(const EntityStore& store, const ObjectRef& ref);

/// EntityType of an entity reference (forwards to ObjectRefType).
EntityType EntityRefType(const ObjectRef& ref);

/// Reconstructs the raw ingestion record of a stored event using `store`
/// for the attribute strings. Re-ingesting the record into another store
/// reproduces the event up to entity ids (merge_count resets to 1; the
/// merged amount and time interval are preserved — no queryable attribute
/// is lost).
EventRecord RecordForEvent(const Event& event, const EntityStore& store);

}  // namespace aiql

#endif  // AIQL_STORAGE_SHARD_MAP_H_
