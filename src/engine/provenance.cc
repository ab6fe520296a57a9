#include "engine/provenance.h"

#include <algorithm>
#include <chrono>
#include <string>
#include <unordered_map>
#include <unordered_set>

#include "common/bitset.h"
#include "common/failpoint.h"
#include "engine/shard_merge.h"
#include "storage/shard_map.h"

namespace aiql {

namespace {

using Clock = std::chrono::steady_clock;

/// Saturating timestamp arithmetic for a non-negative `b`: anchors may sit
/// anywhere on the timeline (INT64_MAX / INT64_MIN for whole-timeline runs)
/// and hop windows arrive unchecked from clients, so bound +/- window must
/// clamp instead of overflowing.
Timestamp SatAdd(Timestamp a, Duration b) {
  if (a > 0 && b > INT64_MAX - a) return INT64_MAX;
  return a + b;
}

Timestamp SatSub(Timestamp a, Duration b) {
  if (a < 0 && b > a - INT64_MIN) return INT64_MIN;
  return a - b;
}

uint64_t NodeKey(EntityType type, EntityId id) {
  return EventPartition::ObjectKey(type, id);
}

/// One admissible event found while expanding a frontier entity. Its entity
/// ids live in the id space of `shard`, the shard that owns its partition.
/// Partition (rank in the merged partition order) and event indexes make
/// the post-parallel merge order deterministic.
struct Candidate {
  const Event* event = nullptr;
  uint32_t shard = 0;
  uint32_t frontier_pos = 0;  ///< position in this hop's frontier
  uint32_t partition = 0;
  uint32_t event_index = 0;
  EntityType other_type = EntityType::kProcess;
  EntityId other_id = 0;
};

/// A selected partition and the shard whose view selected it.
struct ShardPartition {
  uint32_t shard;
  PartitionKey key;
  const EventPartition* partition;
};

using SelectedPartitions =
    std::vector<std::pair<PartitionKey, const EventPartition*>>;

bool TypeAllowed(const ProvenanceOptions& options, EntityType type) {
  switch (type) {
    case EntityType::kProcess:
      return options.follow_processes;
    case EntityType::kFile:
      return options.follow_files;
    case EntityType::kNetwork:
      return options.follow_networks;
  }
  return false;
}

}  // namespace

Result<ProvenanceResult> TrackProvenance(const std::vector<ReadView>& views,
                                         const std::vector<ShardEntity>& roots,
                                         Timestamp anchor,
                                         const ProvenanceOptions& options,
                                         ThreadPool* pool, QueryContext* ctx,
                                         const EngineOptions* shard_retry) {
  if (views.empty()) {
    return Status::InvalidArgument("provenance tracking needs at least one "
                                   "read view");
  }
  if (roots.empty()) {
    return Status::InvalidArgument("provenance tracking needs at least one "
                                   "point-of-interest entity");
  }
  const size_t num_shards = views.size();
  // Bind the context thread-locally so interruptible sleeps on this thread
  // (retry backoff, injected failpoint latency) and cold-partition
  // materialization during selection honor the run's deadline and budget.
  ScopedQueryContext bind_ctx(ctx);
  const bool backward = options.backward;
  const TimeRange window =
      options.window.value_or(TimeRange{INT64_MIN, INT64_MAX});

  // Flow-direction op masks for the two reverse-index lookups. Expanding a
  // frontier entity v:
  //   * object-side lookup finds events whose object is v — in backward
  //     mode flows INTO v run subject->object; in forward mode flows OUT of
  //     v (as an object) run object->subject;
  //   * subject-side lookup (v is a process) mirrors this.
  const OpMask object_side_mask =
      options.op_mask &
      (backward ? kSubjectToObjectOps : kObjectToSubjectOps);
  const OpMask subject_side_mask =
      options.op_mask &
      (backward ? kObjectToSubjectOps : kSubjectToObjectOps);

  // Per-event agent check is only needed without partition pruning (the
  // flat-storage ablation); partitioned views restrict agents during
  // partition selection. Hybrid bitset: the hop loop's check is an
  // id-compare, not a hash probe.
  std::optional<IdFilter> agent_set;
  if (options.agents.has_value()) {
    for (const ReadView& view : views) {
      if (!view.options().enable_partitioning) {
        agent_set.emplace(*options.agents);
        break;
      }
    }
  }

  ProvenanceResult result;
  // Node identity. Entity ids are per-shard, so every shard keeps its own
  // index from NodeKey(type, local id) to the node's slot, and each node
  // carries its id in every shard's space (local_ids[slot * num_shards + s],
  // kInvalidEntityId where shard s never interned it) so one frontier
  // entity expands through every shard's reverse indexes. Translation runs
  // once per node, when it is created on a multi-shard list: its attribute
  // tuple (MakeEntityRef) is resolved in every other shard (FindEntity) and
  // the node is registered wherever it is interned. A single view therefore
  // never builds attribute strings, and a candidate lookup is one integer
  // probe in its own shard's index.
  std::vector<std::unordered_map<uint64_t, uint32_t>> node_index(num_shards);
  std::vector<EntityId> local_ids;

  auto find_node = [&](uint32_t shard, EntityType type, EntityId id) {
    const auto& index = node_index[shard];
    auto it = index.find(NodeKey(type, id));
    return it == index.end() ? UINT32_MAX : it->second;
  };

  auto add_node = [&](uint32_t shard, EntityType type, EntityId id, int depth,
                      Timestamp bound) {
    uint32_t slot = static_cast<uint32_t>(result.nodes.size());
    result.nodes.push_back(ProvenanceNode{type, id, depth, bound, shard});
    local_ids.resize(local_ids.size() + num_shards, kInvalidEntityId);
    EntityId* ids = &local_ids[static_cast<size_t>(slot) * num_shards];
    ids[shard] = id;
    if (num_shards > 1) {
      ObjectRef ref = MakeEntityRef(views[shard].entities(), type, id);
      for (size_t s = 0; s < num_shards; ++s) {
        if (s != shard) ids[s] = FindEntity(views[s].entities(), ref);
      }
    }
    for (size_t s = 0; s < num_shards; ++s) {
      if (ids[s] != kInvalidEntityId) {
        node_index[s].emplace(NodeKey(type, ids[s]), slot);
      }
    }
    return slot;
  };

  std::vector<uint32_t> frontier;
  for (const ShardEntity& root : roots) {
    if (root.shard >= num_shards) {
      return Status::InvalidArgument("root shard index out of range");
    }
    // Duplicate root (on any shard).
    if (find_node(root.shard, root.type, root.id) != UINT32_MAX) continue;
    if (ctx != nullptr) AIQL_RETURN_IF_ERROR(ctx->ChargeNodes(1));
    frontier.push_back(add_node(root.shard, root.type, root.id, 0, anchor));
  }
  result.num_roots = result.nodes.size();

  // Events already in the graph; a re-expanded entity (bound widening)
  // must not duplicate them. Pointers are stable for the views' lifetime
  // and unique across shards (distinct stores).
  std::unordered_set<const Event*> recorded_events;

  // Degraded-execution bookkeeping (shard maps only): a shard that exhausts
  // its transient-fault retries under the partial policy is dropped for the
  // rest of the run — later hops skip it and the final stats annotate it.
  std::vector<ShardTrackStatus> shard_status(num_shards);
  for (size_t s = 0; s < num_shards; ++s) {
    shard_status[s].shard = static_cast<uint32_t>(s);
  }
  std::vector<bool> shard_dropped(num_shards, false);

  for (int hop = 1; hop <= options.max_depth && !frontier.empty(); ++hop) {
    if (ctx != nullptr) AIQL_RETURN_IF_ERROR(ctx->Check());
    auto hop_start = Clock::now();
    result.stats.hops = hop;
    // Keeps hop_latency_us.size() == hops on every exit path.
    auto record_hop_latency = [&] {
      result.stats.hop_latency_us.push_back(
          std::chrono::duration_cast<std::chrono::microseconds>(
              Clock::now() - hop_start)
              .count());
    };

    // Global scan range of this hop: the union of what any frontier bound
    // admits, clamped by the window (and the hop window, which caps how far
    // one hop may reach in time).
    Timestamp min_bound = INT64_MAX;
    Timestamp max_bound = INT64_MIN;
    for (uint32_t slot : frontier) {
      min_bound = std::min(min_bound, result.nodes[slot].bound);
      max_bound = std::max(max_bound, result.nodes[slot].bound);
    }
    TimeRange scan_range = window;
    if (backward) {
      scan_range.end = std::min(scan_range.end, SatAdd(max_bound, 1));
      if (options.hop_window > 0 && min_bound != INT64_MAX) {
        // Admissible events end at >= bound - hop_window; a partition whose
        // newest event ends before min_bound - hop_window has none. An
        // infinite bound (whole-timeline anchor) is exempt — the hop window
        // limits event-to-event gaps, not the open end of the timeline.
        scan_range.start = std::max(scan_range.start,
                                    SatSub(min_bound, options.hop_window));
      }
    } else {
      scan_range.start = std::max(scan_range.start, min_bound);
      if (options.hop_window > 0 && max_bound != INT64_MIN) {
        scan_range.end = std::min(
            scan_range.end, SatAdd(SatAdd(max_bound, options.hop_window), 1));
      }
    }
    if (scan_range.empty()) {
      record_hop_latency();
      break;
    }

    // Partition selection, per shard. Over a shard map each shard's
    // selection runs under AttemptShard (`shard.track` is the chaos
    // injection site, arg = shard index): transient faults retry, and an
    // exhausted shard fails the run with kUnavailable or, under the partial
    // policy, is dropped. A single store makes one attempt and returns its
    // storage error with its own code.
    std::vector<ShardPartition> partitions;
    for (size_t s = 0; s < num_shards; ++s) {
      if (shard_dropped[s]) continue;
      auto select = [&]() -> Result<SelectedPartitions> {
        return views[s].SelectPartitions(scan_range, options.agents);
      };
      int attempts = 1;
      Result<SelectedPartitions> selected =
          shard_retry == nullptr
              ? select()
              : AttemptShard(s, *shard_retry, ctx, &attempts,
                             [&]() -> Result<SelectedPartitions> {
                               AIQL_RETURN_IF_ERROR(Failpoint::Hit(
                                   "shard.track", static_cast<int>(s)));
                               return select();
                             });
      shard_status[s].attempts = std::max(shard_status[s].attempts, attempts);
      if (ctx != nullptr) AIQL_RETURN_IF_ERROR(ctx->Check());
      if (selected.ok()) {
        for (const auto& [key, partition] : selected.value()) {
          partitions.push_back(
              ShardPartition{static_cast<uint32_t>(s), key, partition});
        }
        continue;
      }
      // AttemptShard maps an exhausted transient fault to kUnavailable; any
      // other error is hard and fails both policies.
      if (shard_retry == nullptr ||
          shard_retry->shard_policy != ShardPolicy::kPartial ||
          !IsTransientShardError(selected.status().code())) {
        return selected.status();
      }
      shard_dropped[s] = true;
      shard_status[s].dropped = true;
      shard_status[s].status = selected.status();
      result.stats.truncated = true;
    }
    if (std::all_of(shard_dropped.begin(), shard_dropped.end(),
                    [](bool dropped) { return dropped; })) {
      std::string message;
      for (const ShardTrackStatus& status : shard_status) {
        if (!message.empty()) message += "; ";
        message += "shard " + std::to_string(status.shard) + ": " +
                   status.status.ToString();
      }
      return Status::Unavailable("all " + std::to_string(num_shards) +
                                 " shard(s) unavailable: " + message);
    }
    // Each view lists its partitions in (bucket, agent, seq) order and
    // shards own disjoint agent ranges, so a stable sort of the
    // concatenation by (bucket, agent) reproduces the exact order a merged
    // single database would scan in. All downstream tie-breaks (candidate
    // sort, fanout cuts) therefore match at every shard count; one view is
    // already in that order.
    if (num_shards > 1) {
      std::stable_sort(partitions.begin(), partitions.end(),
                       [](const ShardPartition& a, const ShardPartition& b) {
                         if (a.key.bucket != b.key.bucket) {
                           return a.key.bucket < b.key.bucket;
                         }
                         return a.key.agent_id < b.key.agent_id;
                       });
    }
    result.stats.partitions_selected += partitions.size();
    if (partitions.empty()) {
      record_hop_latency();
      break;
    }

    // Scan phase: per-partition candidate collection (parallel; slots keep
    // the merge deterministic regardless of scheduling).
    std::vector<std::vector<Candidate>> found(partitions.size());
    std::vector<uint64_t> inspected(partitions.size(), 0);

    auto scan_partition = [&](size_t pi) {
      const uint32_t shard = partitions[pi].shard;
      const EventPartition& partition = *partitions[pi].partition;
      const std::vector<Event>& events = partition.events();
      std::vector<Candidate>& out = found[pi];
      uint64_t local_inspected = 0;
      // Governance: every inspected posting entry charges the row budget
      // at stride granularity; a breach stops this partition's scan (the
      // sticky context status surfaces after the parallel section).
      uint64_t since_check = 0;
      bool stop_scan = false;

      auto consider = [&](uint32_t fpos, Timestamp bound,
                          std::pair<const uint32_t*, const uint32_t*> span,
                          OpMask allowed, bool other_is_subject) {
        if (stop_scan || span.first == nullptr || allowed == 0) return;
        // Posting lists ascend in start_ts; clip to the admissible starts.
        const uint32_t* first = span.first;
        const uint32_t* last = span.second;
        if (backward) {
          // start_ts <= bound (end <= bound implies start <= bound).
          last = std::partition_point(first, last, [&](uint32_t index) {
            return events[index].start_ts <= bound;
          });
        } else {
          first = std::partition_point(first, last, [&](uint32_t index) {
            return events[index].start_ts < bound;
          });
        }
        // The hop window bounds the gap to the frontier entity's bound —
        // unless that bound is the open end of the timeline (a root with
        // no anchor), which is not an event to measure a gap against.
        // Backward events must end at or after `reach`, forward events
        // start at or before it.
        const bool windowed = options.hop_window > 0 &&
                              bound != (backward ? INT64_MAX : INT64_MIN);
        const Timestamp reach = backward
                                    ? SatSub(bound, options.hop_window)
                                    : SatAdd(bound, options.hop_window);
        for (const uint32_t* it = first; it != last; ++it) {
          const Event& event = events[*it];
          ++local_inspected;
          if (ctx != nullptr && ++since_check >= QueryContext::kCheckStride) {
            since_check = 0;
            if (!ctx->ChargeRows(QueryContext::kCheckStride).ok()) {
              stop_scan = true;
              return;
            }
          }
          if (!OpMaskContains(allowed, event.op)) continue;
          if (backward) {
            if (event.end_ts > bound) continue;
            if (windowed && event.end_ts < reach) continue;
          } else {
            // start_ts >= bound holds by the clip above.
            if (windowed && event.start_ts > reach) continue;
          }
          if (!window.Contains(event.start_ts)) continue;
          if (agent_set.has_value() && !agent_set->Contains(event.agent_id)) {
            continue;
          }
          Candidate candidate;
          candidate.event = &event;
          candidate.shard = shard;
          candidate.frontier_pos = fpos;
          candidate.partition = static_cast<uint32_t>(pi);
          candidate.event_index = *it;
          if (other_is_subject) {
            candidate.other_type = EntityType::kProcess;
            candidate.other_id = event.subject;
          } else {
            candidate.other_type = event.object_type;
            candidate.other_id = event.object;
          }
          if (!TypeAllowed(options, candidate.other_type)) continue;
          out.push_back(candidate);
        }
      };

      for (uint32_t fpos = 0; fpos < frontier.size() && !stop_scan; ++fpos) {
        const ProvenanceNode& node = result.nodes[frontier[fpos]];
        // The frontier entity in this shard's id space; invalid means the
        // shard never interned it, so it cannot appear in any posting here.
        EntityId local =
            local_ids[static_cast<size_t>(frontier[fpos]) * num_shards + shard];
        if (local == kInvalidEntityId) continue;
        consider(fpos, node.bound, partition.ObjectPostings(node.type, local),
                 object_side_mask, /*other_is_subject=*/true);
        if (node.type == EntityType::kProcess) {
          consider(fpos, node.bound, partition.SubjectPostings(local),
                   subject_side_mask, /*other_is_subject=*/false);
        }
      }
      if (ctx != nullptr && since_check > 0) {
        (void)ctx->ChargeRows(since_check);
      }
      inspected[pi] = local_inspected;
    };

    if (pool != nullptr && partitions.size() > 1) {
      if (ctx != nullptr) {
        pool->ParallelFor(
            partitions.size(), [&](size_t pi) { scan_partition(pi); },
            [ctx] { return ctx->stopped(); });
      } else {
        pool->ParallelFor(partitions.size(),
                          [&](size_t pi) { scan_partition(pi); });
      }
    } else {
      for (size_t pi = 0; pi < partitions.size(); ++pi) {
        if (ctx != nullptr && ctx->stopped()) break;
        scan_partition(pi);
      }
    }
    for (uint64_t count : inspected) result.stats.events_inspected += count;
    if (ctx != nullptr) AIQL_RETURN_IF_ERROR(ctx->Check());

    // Merge phase: per frontier entity, order candidates closest-in-time
    // first, apply the fanout budget, then materialize nodes and edges.
    std::vector<std::vector<Candidate>> per_node(frontier.size());
    for (const std::vector<Candidate>& chunk : found) {
      for (const Candidate& candidate : chunk) {
        per_node[candidate.frontier_pos].push_back(candidate);
      }
    }

    std::vector<uint32_t> next_frontier;
    std::unordered_set<uint32_t> queued;
    for (uint32_t fpos = 0; fpos < frontier.size(); ++fpos) {
      std::vector<Candidate>& candidates = per_node[fpos];
      // A re-expanded entity (see bound widening below) re-discovers the
      // events already in the graph; drop them before the fanout budget so
      // re-expansion explores new ground only.
      candidates.erase(std::remove_if(candidates.begin(), candidates.end(),
                                      [&](const Candidate& candidate) {
                                        return recorded_events.count(
                                                   candidate.event) > 0;
                                      }),
                       candidates.end());
      std::sort(candidates.begin(), candidates.end(),
                [&](const Candidate& a, const Candidate& b) {
                  if (backward) {
                    if (a.event->end_ts != b.event->end_ts) {
                      return a.event->end_ts > b.event->end_ts;
                    }
                    if (a.event->start_ts != b.event->start_ts) {
                      return a.event->start_ts > b.event->start_ts;
                    }
                  } else {
                    if (a.event->start_ts != b.event->start_ts) {
                      return a.event->start_ts < b.event->start_ts;
                    }
                    if (a.event->end_ts != b.event->end_ts) {
                      return a.event->end_ts < b.event->end_ts;
                    }
                  }
                  if (a.partition != b.partition) {
                    return a.partition < b.partition;
                  }
                  return a.event_index < b.event_index;
                });
      uint64_t dropped_here = 0;
      if (options.max_fanout > 0 && candidates.size() > options.max_fanout) {
        dropped_here += candidates.size() - options.max_fanout;
        candidates.resize(options.max_fanout);
        result.stats.truncated = true;
      }
      const uint32_t this_slot = frontier[fpos];
      for (const Candidate& candidate : candidates) {
        Timestamp bound = backward ? candidate.event->start_ts
                                   : candidate.event->end_ts;
        uint32_t other_slot = find_node(candidate.shard, candidate.other_type,
                                        candidate.other_id);
        if (other_slot != UINT32_MAX) {
          // Bound widening: an already-known entity re-reached along a
          // path with a looser time bound (on any shard) can have causal
          // neighbors the first visit could not admit — widen its bound and
          // re-expand it next hop so an untruncated result really is the
          // full closure (its depth stays at first reach).
          ProvenanceNode& existing = result.nodes[other_slot];
          bool widens = backward ? bound > existing.bound
                                 : bound < existing.bound;
          if (widens) {
            existing.bound = bound;
            if (queued.insert(other_slot).second) {
              next_frontier.push_back(other_slot);
            }
          }
        } else {
          if (options.max_nodes > 0 &&
              result.nodes.size() >= options.max_nodes) {
            result.stats.truncated = true;
            ++dropped_here;
            continue;
          }
          if (ctx != nullptr) AIQL_RETURN_IF_ERROR(ctx->ChargeNodes(1));
          other_slot = add_node(candidate.shard, candidate.other_type,
                                candidate.other_id, hop, bound);
          queued.insert(other_slot);
          next_frontier.push_back(other_slot);
        }
        recorded_events.insert(candidate.event);
        ProvenanceEdge edge;
        edge.event = *candidate.event;
        edge.hop = hop;
        if (backward) {
          edge.from = other_slot;  // discovered cause flows into the
          edge.to = this_slot;     // frontier entity
        } else {
          edge.from = this_slot;
          edge.to = other_slot;
        }
        result.edges.push_back(edge);
      }
      if (dropped_here > 0) {
        result.stats.truncated_expansions.push_back(
            TruncatedExpansion{hop, frontier[fpos], dropped_here});
      }
    }

    record_hop_latency();
    frontier = std::move(next_frontier);
  }

  // A non-empty final frontier means the depth budget stopped expansion
  // with entities still unexplored.
  if (!frontier.empty()) result.stats.truncated = true;
  for (ShardTrackStatus& status : shard_status) {
    if (status.dropped) ++result.stats.shards_dropped;
    if (status.dropped || status.attempts > 1) {
      result.stats.shard_status.push_back(std::move(status));
    }
  }
  return result;
}

}  // namespace aiql
