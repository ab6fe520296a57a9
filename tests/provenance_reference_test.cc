// Provenance tracking checked against an independent brute-force
// reference written from the specification in docs/provenance.md, not
// from the tracking loop: a naive fixpoint over every stored event that
// applies flow direction, time-monotonic bounds with widening, the
// op / entity-type / window / agent filters and the hop window. Entities
// are named by attribute key, so one reference covers a single database,
// a lazily opened snapshot and 2- and 4-shard maps alike. Untruncated runs
// only (no fanout or node budget, depth far beyond the closure); depth is
// not compared, since it records discovery order rather than the closure.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <random>
#include <set>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "common/like_matcher.h"
#include "engine/aiql_engine.h"
#include "engine/provenance.h"
#include "simulator/scenario.h"
#include "storage/database.h"
#include "storage/shard_map.h"
#include "storage/snapshot.h"

namespace aiql {
namespace {

/// One stored event with its endpoints named by attribute key.
struct RefEvent {
  OpType op = OpType::kRead;
  Timestamp start = 0;
  Timestamp end = 0;
  AgentId agent = 0;
  std::string subject;
  std::string object;
  EntityType object_type = EntityType::kFile;
};

/// (type, attribute key, final time bound).
using NodeSet = std::set<std::tuple<EntityType, std::string, Timestamp>>;
/// (op, start, end, agent, flow source key, flow destination key).
using EdgeSet = std::multiset<
    std::tuple<int, Timestamp, Timestamp, AgentId, std::string, std::string>>;

std::string KeyOf(const EntityStore& store, EntityType type, EntityId id) {
  return EntityRefKey(MakeEntityRef(store, type, id));
}

/// Every stored event of every view.
std::vector<RefEvent> AllEvents(const std::vector<ReadView>& views) {
  std::vector<RefEvent> out;
  for (const ReadView& view : views) {
    auto partitions =
        view.SelectPartitions(TimeRange{INT64_MIN, INT64_MAX}, std::nullopt);
    EXPECT_TRUE(partitions.ok()) << partitions.status().ToString();
    if (!partitions.ok()) continue;
    for (const auto& [key, partition] : *partitions) {
      (void)key;
      for (const Event& event : partition->events()) {
        RefEvent ref;
        ref.op = event.op;
        ref.start = event.start_ts;
        ref.end = event.end_ts;
        ref.agent = event.agent_id;
        ref.subject =
            KeyOf(view.entities(), EntityType::kProcess, event.subject);
        ref.object = KeyOf(view.entities(), event.object_type, event.object);
        ref.object_type = event.object_type;
        out.push_back(std::move(ref));
      }
    }
  }
  return out;
}

/// The attribute a track request's LIKE pattern matches: exe name, path,
/// or destination ip.
std::string DefaultAttribute(const ObjectRef& ref) {
  if (const auto* p = std::get_if<ProcessRef>(&ref)) return p->exe_name;
  if (const auto* f = std::get_if<FileRef>(&ref)) return f->path;
  return std::get<NetworkRef>(ref).dst_ip;
}

/// Root entity keys: every entity of `type` in any view whose default
/// attribute matches `like`.
std::map<std::string, EntityType> RootKeys(const std::vector<ReadView>& views,
                                           EntityType type,
                                           const std::string& like) {
  LikeMatcher matcher(like);
  std::map<std::string, EntityType> out;
  for (const ReadView& view : views) {
    for (EntityId id = 0; id < view.entities().NumEntities(type); ++id) {
      ObjectRef ref = MakeEntityRef(view.entities(), type, id);
      if (matcher.Matches(DefaultAttribute(ref))) {
        out.emplace(EntityRefKey(ref), type);
      }
    }
  }
  return out;
}

bool FollowsType(const ProvenanceOptions& options, EntityType type) {
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

/// The reference closure. Every entity holds one time bound; each round
/// re-examines every event against the bounds the previous round ended
/// with, so a node reached (or widened) in round k expands in round k + 1
/// with the widest bound round k gave it:
///   * an event flows from its source to its destination (subject ->
///     object for write/start/end/delete/rename/connect, object -> subject
///     for read/execute/accept); backward tracking expands the destination
///     into the source, forward tracking the source into the destination;
///   * backward admits events ending at or before the tracked entity's
///     bound and gives the source the event's start as its bound; forward
///     admits events starting at or after it and passes on the event's end;
///   * a later path that reaches a known entity with a looser bound
///     (later backward, earlier forward) widens it;
///   * a positive hop window caps the gap between the bound and the
///     event's end (backward) or start (forward), except from the open
///     ends of the timeline;
///   * the op mask, the event-start window and the agent list filter
///     events; the follow_* switches filter the entity discovered.
/// It stops when a round changes no bound. Edges are every event admitted
/// in any round.
std::pair<NodeSet, EdgeSet> ReferenceTrack(
    const std::vector<RefEvent>& events,
    const std::map<std::string, EntityType>& roots, Timestamp anchor,
    const ProvenanceOptions& options) {
  const bool backward = options.backward;
  std::map<std::string, std::pair<EntityType, Timestamp>> bound;
  for (const auto& [key, type] : roots) bound[key] = {type, anchor};
  std::set<size_t> admitted;
  for (;;) {
    auto next = bound;
    for (size_t i = 0; i < events.size(); ++i) {
      const RefEvent& e = events[i];
      if ((options.op_mask & OpBit(e.op)) == 0) continue;
      if (options.window.has_value() && !options.window->Contains(e.start)) {
        continue;
      }
      if (options.agents.has_value()) {
        bool listed = false;
        for (AgentId agent : *options.agents) listed |= agent == e.agent;
        if (!listed) continue;
      }
      const bool subject_to_object = (kSubjectToObjectOps & OpBit(e.op)) != 0;
      const std::string& source = subject_to_object ? e.subject : e.object;
      const std::string& dest = subject_to_object ? e.object : e.subject;
      const EntityType source_type =
          subject_to_object ? EntityType::kProcess : e.object_type;
      const EntityType dest_type =
          subject_to_object ? e.object_type : EntityType::kProcess;
      const std::string& tracked = backward ? dest : source;
      const std::string& found = backward ? source : dest;
      const EntityType found_type = backward ? source_type : dest_type;
      auto it = bound.find(tracked);
      if (it == bound.end()) continue;
      const Timestamp b = it->second.second;
      // The gap is non-negative once the bound admits the event, so it is
      // exact in unsigned 64-bit arithmetic wherever the two sit.
      const bool windowed = options.hop_window > 0 &&
                            b != (backward ? INT64_MAX : INT64_MIN);
      const uint64_t window = static_cast<uint64_t>(options.hop_window);
      if (backward) {
        if (e.end > b) continue;
        uint64_t gap = static_cast<uint64_t>(b) - static_cast<uint64_t>(e.end);
        if (windowed && gap > window) continue;
      } else {
        if (e.start < b) continue;
        uint64_t gap =
            static_cast<uint64_t>(e.start) - static_cast<uint64_t>(b);
        if (windowed && gap > window) continue;
      }
      if (!FollowsType(options, found_type)) continue;
      admitted.insert(i);
      const Timestamp nb = backward ? e.start : e.end;
      auto [slot, inserted] =
          next.emplace(found, std::make_pair(found_type, nb));
      if (!inserted && (backward ? nb > slot->second.second
                                 : nb < slot->second.second)) {
        slot->second.second = nb;
      }
    }
    if (next == bound) break;
    bound = std::move(next);
  }
  NodeSet nodes;
  for (const auto& [key, entry] : bound) {
    nodes.emplace(entry.first, key, entry.second);
  }
  EdgeSet edges;
  for (size_t i : admitted) {
    const RefEvent& e = events[i];
    const bool subject_to_object = (kSubjectToObjectOps & OpBit(e.op)) != 0;
    edges.emplace(static_cast<int>(e.op), e.start, e.end, e.agent,
                  subject_to_object ? e.subject : e.object,
                  subject_to_object ? e.object : e.subject);
  }
  return {std::move(nodes), std::move(edges)};
}

/// One storage configuration of a world: the engine under test, the entity
/// store behind each shard index, and fresh views for the reference.
struct Backend {
  std::string name;
  std::unique_ptr<AiqlEngine> engine;
  std::function<const EntityStore&(uint32_t)> store;
  std::function<std::vector<ReadView>()> open_views;
};

/// A world's records served four ways: one database, a v2 snapshot of it,
/// and 2- and 4-shard agent-range maps.
class World {
 public:
  World(const std::vector<EventRecord>& records, AgentId max_agent,
        const std::string& tag) {
    auto db = IngestRecords(records, StorageOptions{});
    EXPECT_TRUE(db.ok()) << db.status().ToString();
    if (!db.ok()) return;
    db_ = std::make_unique<AuditDatabase>(std::move(*db));
    snap_path_ = "/tmp/aiql_provenance_reference_" + tag + ".snap";
    EXPECT_TRUE(SaveSnapshot(*db_, snap_path_).ok());
    auto snap = SnapshotStore::Open(snap_path_);
    EXPECT_TRUE(snap.ok()) << snap.status().ToString();
    if (snap.ok()) snap_ = std::move(*snap);
    for (size_t num_shards : {2u, 4u}) {
      auto ranges = EvenAgentRanges(num_shards, 1, max_agent);
      auto routed = RouteRecordsByAgent(ranges, records);
      EXPECT_TRUE(routed.ok()) << routed.status().ToString();
      if (!routed.ok()) return;
      auto map = std::make_unique<ShardMap>();
      for (size_t s = 0; s < num_shards; ++s) {
        auto shard_db = IngestRecords((*routed)[s], StorageOptions{});
        EXPECT_TRUE(shard_db.ok()) << shard_db.status().ToString();
        if (!shard_db.ok()) return;
        shard_dbs_.push_back(
            std::make_unique<AuditDatabase>(std::move(*shard_db)));
        EXPECT_TRUE(map->AddShard(shard_dbs_.back().get(), ranges[s]).ok());
      }
      maps_.push_back(std::move(map));
    }
  }

  ~World() {
    snap_.reset();
    if (!snap_path_.empty()) std::remove(snap_path_.c_str());
  }

  std::vector<Backend> Backends() const {
    std::vector<Backend> out;
    if (db_ != nullptr) {
      const AuditDatabase* db = db_.get();
      out.push_back(Backend{
          "single-db", std::make_unique<AiqlEngine>(db),
          [db](uint32_t) -> const EntityStore& { return db->entities(); },
          [db] {
            std::vector<ReadView> views;
            views.push_back(db->OpenReadView());
            return views;
          }});
    }
    if (snap_ != nullptr) {
      const SnapshotStore* snap = snap_.get();
      out.push_back(Backend{
          "snapshot", std::make_unique<AiqlEngine>(snap),
          [snap](uint32_t) -> const EntityStore& { return snap->entities(); },
          [snap] {
            std::vector<ReadView> views;
            views.push_back(snap->OpenReadView());
            return views;
          }});
    }
    for (const auto& owned : maps_) {
      const ShardMap* map = owned.get();
      out.push_back(Backend{
          std::to_string(map->num_shards()) + "-shard",
          std::make_unique<AiqlEngine>(map),
          [map](uint32_t shard) -> const EntityStore& {
            return map->entities(shard);
          },
          [map] { return map->OpenReadViews(); }});
    }
    return out;
  }

 private:
  std::unique_ptr<AuditDatabase> db_;
  std::string snap_path_;
  std::unique_ptr<SnapshotStore> snap_;
  std::vector<std::unique_ptr<AuditDatabase>> shard_dbs_;
  std::vector<std::unique_ptr<ShardMap>> maps_;
};

/// Named option sets covering every filter the reference applies.
std::vector<std::pair<std::string, ProvenanceOptions>> OptionSets(
    TimeRange span) {
  ProvenanceOptions base;
  base.max_depth = 1 << 20;  // far beyond any closure: never truncates
  base.max_fanout = 0;
  base.max_nodes = 0;
  std::vector<std::pair<std::string, ProvenanceOptions>> out;
  out.emplace_back("unfiltered", base);
  ProvenanceOptions hop = base;
  hop.hop_window = 20 * kMinute;
  out.emplace_back("hop-window", hop);
  ProvenanceOptions ops = base;
  ops.op_mask = static_cast<OpMask>(kAllOps & ~OpBit(OpType::kRead) &
                                    ~OpBit(OpType::kStart));
  ops.follow_networks = false;
  out.emplace_back("op-and-type-filter", ops);
  ProvenanceOptions window = base;
  Duration third = (span.end - span.start) / 3;
  window.window = TimeRange{span.start + third, span.end - third};
  window.agents = std::vector<AgentId>{1, 2, 4};
  out.emplace_back("window-and-agents", window);
  return out;
}

struct Probe {
  std::string label;
  EntityType type;
  std::string like;
  bool backward;
  Timestamp anchor;
};

/// Runs every probe under every option set on every backend and compares
/// Track() with the reference computed over that backend's own events.
void CompareWithReference(const World& world, const std::vector<Probe>& probes,
                          TimeRange span) {
  for (const Backend& backend : world.Backends()) {
    SCOPED_TRACE(backend.name);
    std::vector<RefEvent> events = AllEvents(backend.open_views());
    ASSERT_FALSE(events.empty());
    std::vector<ReadView> views = backend.open_views();
    for (const Probe& probe : probes) {
      SCOPED_TRACE(probe.label);
      auto roots = RootKeys(views, probe.type, probe.like);
      ASSERT_FALSE(roots.empty());
      for (auto [label, options] : OptionSets(span)) {
        SCOPED_TRACE(label);
        options.backward = probe.backward;
        TrackRequest request;
        request.type = probe.type;
        request.name_like = probe.like;
        request.anchor = probe.anchor;
        request.options = options;
        auto result = backend.engine->Track(request);
        ASSERT_TRUE(result.ok()) << result.status().ToString();
        EXPECT_FALSE(result->stats.truncated);
        NodeSet nodes;
        for (const ProvenanceNode& node : result->nodes) {
          nodes.emplace(node.type,
                        KeyOf(backend.store(node.shard), node.type, node.id),
                        node.bound);
        }
        EdgeSet edges;
        for (const ProvenanceEdge& edge : result->edges) {
          const ProvenanceNode& from = result->nodes[edge.from];
          const ProvenanceNode& to = result->nodes[edge.to];
          edges.emplace(static_cast<int>(edge.event.op), edge.event.start_ts,
                        edge.event.end_ts, edge.event.agent_id,
                        KeyOf(backend.store(from.shard), from.type, from.id),
                        KeyOf(backend.store(to.shard), to.type, to.id));
        }
        auto [want_nodes, want_edges] =
            ReferenceTrack(events, roots, probe.anchor, options);
        EXPECT_EQ(nodes, want_nodes);
        EXPECT_EQ(edges, want_edges);
        // Vacuous comparisons prove nothing: the unfiltered closure must
        // reach beyond its roots.
        if (label == "unfiltered") {
          EXPECT_GT(want_edges.size(), 0u);
        }
      }
    }
  }
}

TEST(ProvenanceReferenceTest, CampaignWorld) {
  ScenarioOptions scenario;
  scenario.num_clients = 4;  // agents 1..8
  scenario.events_per_host_per_hour = 60;
  CampaignScenarioData data = GenerateCampaignScenario(scenario);
  World world(data.records, /*max_agent=*/8, "campaign");
  const CampaignChainTruth& truth = data.truth;
  // The chain's earliest process (chain order runs effect to cause).
  std::string entry;
  for (const auto& [type, name] : truth.chain) {
    if (type == EntityType::kProcess) entry = name;
  }
  ASSERT_FALSE(entry.empty());
  std::vector<Probe> probes = {
      {"backward from the exfiltration", EntityType::kNetwork, truth.poi_like,
       true, truth.anchor},
      {"backward over the whole timeline", EntityType::kNetwork,
       truth.poi_like, true, INT64_MAX},
      {"forward from the chain's entry process", EntityType::kProcess, entry,
       false, truth.start},
  };
  CompareWithReference(world, probes, data.window);
}

/// Seeded random graph: entities belong to hosts chosen independently of
/// the observing agent, so one entity is interned on several shards and
/// tracking must cross shards at almost every hop. Second-granularity
/// times make exact ties common.
std::vector<EventRecord> RandomGraph(uint32_t seed, TimeRange* span) {
  std::mt19937 rng(seed);
  auto pick = [&](int n) {
    return std::uniform_int_distribution<int>(0, n - 1)(rng);
  };
  const Timestamp t0 = *MakeTimestamp(2018, 5, 10);
  const int seconds = 4 * 3600;
  *span = TimeRange{t0, t0 + seconds * kSecond + kMinute};
  auto process = [&](int i) {
    return ProcessRef{static_cast<AgentId>(1 + i % 4),
                      static_cast<uint32_t>(1000 + i),
                      "p" + std::to_string(i) + ".exe", "u"};
  };
  auto file = [&](int i) {
    return FileRef{static_cast<AgentId>(1 + i % 4),
                   "/r/f" + std::to_string(i / 4)};
  };
  auto network = [&](int i) {
    return NetworkRef{static_cast<AgentId>(1 + i % 4), "10.0.0.1",
                      "10.0.1." + std::to_string(i / 2),
                      static_cast<uint16_t>(40000 + i), 443, "tcp"};
  };
  std::vector<EventRecord> records;
  for (int n = 0; n < 1500; ++n) {
    EventRecord record;
    record.agent_id = static_cast<AgentId>(1 + pick(4));
    record.op = static_cast<OpType>(pick(kNumOpTypes));
    record.start_ts = t0 + pick(seconds) * kSecond;
    record.end_ts = record.start_ts + pick(30) * kSecond;
    record.subject = process(pick(40));
    switch (record.op) {
      case OpType::kStart:
      case OpType::kEnd:
        record.object = process(pick(40));
        break;
      case OpType::kConnect:
      case OpType::kAccept:
        record.object = network(pick(16));
        break;
      case OpType::kRead:
      case OpType::kWrite:
        if (pick(4) == 0) {
          record.object = network(pick(16));
        } else {
          record.object = file(pick(48));
        }
        break;
      default:
        record.object = file(pick(48));
        break;
    }
    records.push_back(std::move(record));
  }
  std::stable_sort(records.begin(), records.end(),
                   [](const EventRecord& a, const EventRecord& b) {
                     return a.start_ts < b.start_ts;
                   });
  return records;
}

TEST(ProvenanceReferenceTest, SeededRandomGraph) {
  TimeRange span;
  std::vector<EventRecord> records = RandomGraph(/*seed=*/20190711, &span);
  World world(records, /*max_agent=*/4, "random");
  const Timestamp middle = span.start + (span.end - span.start) / 2;
  std::vector<Probe> probes = {
      {"backward from a file", EntityType::kFile, "/r/f0", true, INT64_MAX},
      {"backward from mid-run", EntityType::kProcess, "p7.exe", true, middle},
      {"forward from a process", EntityType::kProcess, "p3.exe", false,
       INT64_MIN},
      {"forward from mid-run", EntityType::kNetwork, "10.0.1.2", false,
       middle},
  };
  CompareWithReference(world, probes, span);
}

}  // namespace
}  // namespace aiql
