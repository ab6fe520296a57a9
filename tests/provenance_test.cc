// Tests for iterative causal provenance tracking: information-flow
// direction, time-monotonic pruning, hop/fanout/node budgets, reverse-index
// agreement with brute force, and end-to-end recovery of the simulator's
// planted exfiltration chain from a live database AND from a lazily opened
// v2 snapshot.

#include "engine/provenance.h"

#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "common/failpoint.h"
#include "engine/aiql_engine.h"
#include "graph/cypher_gen.h"
#include "graph/graph_store.h"
#include "simulator/scenario.h"
#include "storage/database.h"
#include "storage/snapshot.h"
#include "storage/tiered.h"

namespace aiql {
namespace {

Timestamp T0() { return *MakeTimestamp(2018, 5, 10); }

EventRecord Rec(AgentId agent, OpType op, Timestamp t, Duration len,
                ProcessRef subject, ObjectRef object, uint64_t amount = 0) {
  EventRecord record;
  record.agent_id = agent;
  record.op = op;
  record.start_ts = t;
  record.end_ts = t + len;
  record.amount = amount;
  record.subject = std::move(subject);
  record.object = std::move(object);
  return record;
}

ProcessRef Proc(uint32_t pid, const std::string& exe) {
  return ProcessRef{1, pid, exe, "root"};
}

/// Canonical graph of a result: (type, name, depth, bound) nodes, (op,
/// start, end) edge events and the truncation flag.
using CanonGraph =
    std::tuple<std::set<std::tuple<EntityType, std::string, int, Timestamp>>,
               std::multiset<std::tuple<int, Timestamp, Timestamp>>, bool>;

CanonGraph Canon(const ProvenanceResult& result, const EntityStore& entities) {
  CanonGraph out;
  for (const ProvenanceNode& node : result.nodes) {
    std::get<0>(out).emplace(node.type, entities.EntityName(node.type, node.id),
                             node.depth, node.bound);
  }
  for (const ProvenanceEdge& edge : result.edges) {
    std::get<1>(out).emplace(static_cast<int>(edge.event.op),
                             edge.event.start_ts, edge.event.end_ts);
  }
  std::get<2>(out) = result.stats.truncated;
  return out;
}

/// A single store tracks as a one-view shard list.
std::vector<ReadView> OneView(const AuditDatabase& db) {
  std::vector<ReadView> views;
  views.push_back(db.OpenReadView());
  return views;
}

/// Recovered (type, display name) set of a result.
std::set<std::pair<EntityType, std::string>> NodeNames(
    const ProvenanceResult& result, const EntityStore& entities) {
  std::set<std::pair<EntityType, std::string>> out;
  for (const ProvenanceNode& node : result.nodes) {
    out.emplace(node.type, entities.EntityName(node.type, node.id));
  }
  return out;
}

// --- micro world: a -> b -> c chain with a late decoy ------------------------

class ProvenanceChainTest : public ::testing::Test {
 protected:
  void SetUp() override {
    // writer writes f1 (t=0); reader reads f1 (t=100) and writes f2
    // (t=200); decoy writes f1 at t=150 — after the read, so a backward
    // track from f2 must not include it.
    db_ = std::make_unique<AuditDatabase>();
    ASSERT_TRUE(
        db_->Append(Rec(1, OpType::kWrite, T0(), kSecond,
                        Proc(100, "writer"), FileRef{1, "/data/f1"}))
            .ok());
    ASSERT_TRUE(db_->Append(Rec(1, OpType::kRead, T0() + 100 * kSecond,
                                kSecond, Proc(101, "reader"),
                                FileRef{1, "/data/f1"}))
                    .ok());
    ASSERT_TRUE(db_->Append(Rec(1, OpType::kWrite, T0() + 150 * kSecond,
                                kSecond, Proc(102, "decoy"),
                                FileRef{1, "/data/f1"}))
                    .ok());
    ASSERT_TRUE(db_->Append(Rec(1, OpType::kWrite, T0() + 200 * kSecond,
                                kSecond, Proc(101, "reader"),
                                FileRef{1, "/data/f2"}))
                    .ok());
    ASSERT_TRUE(db_->Seal().ok());
    views_ = OneView(*db_);
    f2_ = Find(EntityType::kFile, "/data/f2");
    f1_ = Find(EntityType::kFile, "/data/f1");
  }

  EntityId Find(EntityType type, const std::string& name) {
    const EntityStore& es = db_->entities();
    size_t n = es.NumEntities(type);
    for (EntityId id = 0; id < n; ++id) {
      if (es.EntityName(type, id) == name) return id;
    }
    ADD_FAILURE() << "entity not found: " << name;
    return kInvalidEntityId;
  }

  std::unique_ptr<AuditDatabase> db_;
  std::vector<ReadView> views_;
  EntityId f1_ = 0, f2_ = 0;
};

TEST_F(ProvenanceChainTest, BackwardFollowsFlowAndPrunesMonotonically) {
  ProvenanceOptions options;
  auto result = TrackProvenance(views_, {{0, EntityType::kFile, f2_}},
                                INT64_MAX, options);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  auto names = NodeNames(*result, db_->entities());
  std::set<std::pair<EntityType, std::string>> expected = {
      {EntityType::kFile, "/data/f2"},
      {EntityType::kProcess, "reader"},
      {EntityType::kFile, "/data/f1"},
      {EntityType::kProcess, "writer"},
  };
  // The decoy wrote f1 AFTER reader consumed it: time-monotonic pruning
  // must exclude it even though the event precedes the anchor.
  EXPECT_EQ(names, expected);
  EXPECT_EQ(result->edges.size(), 3u);
  EXPECT_FALSE(result->stats.truncated);
  EXPECT_EQ(result->num_roots, 1u);
  // Depths: f2=0, reader=1, f1=2, writer=3.
  for (const ProvenanceNode& node : result->nodes) {
    std::string name = db_->entities().EntityName(node.type, node.id);
    int expected_depth = name == "/data/f2"  ? 0
                         : name == "reader"  ? 1
                         : name == "/data/f1" ? 2
                                              : 3;
    EXPECT_EQ(node.depth, expected_depth) << name;
  }
}

TEST_F(ProvenanceChainTest, ForwardTrackingMirrorsBackward) {
  // Forward from f1 anchored at time zero: reader consumed it, then wrote
  // f2; decoy's write into f1 is an in-flow and must not appear.
  ProvenanceOptions options;
  options.backward = false;
  auto result = TrackProvenance(views_, {{0, EntityType::kFile, f1_}},
                                INT64_MIN, options);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  auto names = NodeNames(*result, db_->entities());
  std::set<std::pair<EntityType, std::string>> expected = {
      {EntityType::kFile, "/data/f1"},
      {EntityType::kProcess, "reader"},
      {EntityType::kFile, "/data/f2"},
  };
  EXPECT_EQ(names, expected);
  EXPECT_EQ(result->edges.size(), 2u);
}

TEST_F(ProvenanceChainTest, AnchorBoundsTheSearch) {
  // Anchor before reader's write into f2: nothing flows into f2 yet.
  ProvenanceOptions options;
  auto result = TrackProvenance(views_, {{0, EntityType::kFile, f2_}},
                                T0() + 150 * kSecond, options);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->nodes.size(), 1u);  // just the root
  EXPECT_TRUE(result->edges.empty());
}

TEST_F(ProvenanceChainTest, DepthBudgetTruncates) {
  ProvenanceOptions options;
  options.max_depth = 1;
  auto result = TrackProvenance(views_, {{0, EntityType::kFile, f2_}},
                                INT64_MAX, options);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->nodes.size(), 2u);  // f2 + reader
  EXPECT_TRUE(result->stats.truncated);
  EXPECT_EQ(result->stats.hops, 1);
}

TEST_F(ProvenanceChainTest, NodeBudgetTruncates) {
  ProvenanceOptions options;
  options.max_nodes = 2;
  auto result = TrackProvenance(views_, {{0, EntityType::kFile, f2_}},
                                INT64_MAX, options);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->nodes.size(), 2u);
  EXPECT_TRUE(result->stats.truncated);
}

TEST_F(ProvenanceChainTest, OpAndEntityFiltersRestrictHops) {
  // Excluding reads cuts the chain at reader (f1 unreachable).
  ProvenanceOptions options;
  options.op_mask = static_cast<OpMask>(kAllOps & ~OpBit(OpType::kRead));
  auto result = TrackProvenance(views_, {{0, EntityType::kFile, f2_}},
                                INT64_MAX, options);
  ASSERT_TRUE(result.ok());
  auto names = NodeNames(*result, db_->entities());
  EXPECT_EQ(names.count({EntityType::kFile, "/data/f1"}), 0u);
  EXPECT_EQ(names.count({EntityType::kProcess, "reader"}), 1u);

  // Excluding file hops stops at the first process.
  ProvenanceOptions no_files;
  no_files.follow_files = false;
  auto restricted = TrackProvenance(views_, {{0, EntityType::kFile, f2_}},
                                    INT64_MAX, no_files);
  ASSERT_TRUE(restricted.ok());
  auto restricted_names = NodeNames(*restricted, db_->entities());
  std::set<std::pair<EntityType, std::string>> expected = {
      {EntityType::kFile, "/data/f2"},
      {EntityType::kProcess, "reader"},
  };
  EXPECT_EQ(restricted_names, expected);
}

TEST_F(ProvenanceChainTest, EmptyRootsRejected) {
  EXPECT_FALSE(TrackProvenance(views_, {}, INT64_MAX, {}).ok());
}

TEST_F(ProvenanceChainTest, UnboundedHopWindowSaturatesInsteadOfOverflowing) {
  // A client may send any hop_window >= 0 and any anchor. The widest window
  // admits every gap these events have, so it must reproduce the unbounded
  // (hop_window = 0) graph — bound +/- window clamps at the timeline ends.
  struct Case {
    bool backward;
    EntityId root;
    Timestamp anchor;
  };
  const Case cases[] = {
      {false, f1_, INT64_MIN},      // open anchor: hop 2 reaches past MAX
      {false, f1_, INT64_MIN / 2},  // large negative anchor, windowed hop 1
      {true, f2_, INT64_MAX},       // open anchor
      {true, f2_, INT64_MAX / 2},   // late anchor, windowed hop 1
      {true, f2_, INT64_MIN / 2},   // large negative anchor: nothing admitted
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(std::string(c.backward ? "backward" : "forward") +
                 " anchor=" + std::to_string(c.anchor));
    ProvenanceOptions unbounded;
    unbounded.backward = c.backward;
    ProvenanceOptions widest = unbounded;
    widest.hop_window = INT64_MAX;
    auto expected = TrackProvenance(views_, {{0, EntityType::kFile, c.root}},
                                    c.anchor, unbounded);
    auto actual = TrackProvenance(views_, {{0, EntityType::kFile, c.root}},
                                  c.anchor, widest);
    ASSERT_TRUE(expected.ok()) << expected.status().ToString();
    ASSERT_TRUE(actual.ok()) << actual.status().ToString();
    EXPECT_EQ(Canon(*actual, db_->entities()),
              Canon(*expected, db_->entities()));
  }
  // The forward chain from f1 is the whole graph, not a truncated prefix.
  ProvenanceOptions forward;
  forward.backward = false;
  forward.hop_window = INT64_MAX;
  auto chain = TrackProvenance(views_, {{0, EntityType::kFile, f1_}},
                               INT64_MIN, forward);
  ASSERT_TRUE(chain.ok());
  EXPECT_EQ(chain->nodes.size(), 3u);
  EXPECT_EQ(chain->edges.size(), 2u);
  EXPECT_FALSE(chain->stats.truncated);
}

TEST(ProvenanceFanoutTest, FanoutBudgetKeepsClosestInTime) {
  // 10 writers feed a hot file; fanout 3 must keep the 3 latest.
  AuditDatabase db;
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(db.Append(Rec(1, OpType::kWrite, T0() + i * kMinute, kSecond,
                              Proc(200 + i, "w" + std::to_string(i)),
                              FileRef{1, "/hot"}))
                    .ok());
  }
  ASSERT_TRUE(db.Seal().ok());
  std::vector<ReadView> views = OneView(db);
  EntityId hot = 0;  // only file interned
  ProvenanceOptions options;
  options.max_fanout = 3;
  auto result =
      TrackProvenance(views, {{0, EntityType::kFile, hot}}, INT64_MAX, options);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->stats.truncated);
  auto names = NodeNames(*result, db.entities());
  EXPECT_EQ(result->edges.size(), 3u);
  EXPECT_EQ(names.count({EntityType::kProcess, "w9"}), 1u);
  EXPECT_EQ(names.count({EntityType::kProcess, "w8"}), 1u);
  EXPECT_EQ(names.count({EntityType::kProcess, "w7"}), 1u);
  EXPECT_EQ(names.count({EntityType::kProcess, "w0"}), 0u);
}

TEST(ProvenanceHopWindowTest, HopWindowBoundsTemporalGap) {
  // writer wrote the file an hour before the reader used it; a 5-minute
  // hop window must not bridge that gap, a 2-hour one must.
  AuditDatabase db;
  ASSERT_TRUE(db.Append(Rec(1, OpType::kWrite, T0(), kSecond,
                            Proc(300, "old-writer"), FileRef{1, "/f"}))
                  .ok());
  ASSERT_TRUE(db.Append(Rec(1, OpType::kRead, T0() + kHour, kSecond,
                            Proc(301, "reader"), FileRef{1, "/f"}))
                  .ok());
  ASSERT_TRUE(db.Append(Rec(1, OpType::kWrite, T0() + kHour + kMinute,
                            kSecond, Proc(301, "reader"),
                            FileRef{1, "/out"}))
                  .ok());
  ASSERT_TRUE(db.Seal().ok());
  std::vector<ReadView> views = OneView(db);
  const EntityStore& es = db.entities();
  EntityId out_file = kInvalidEntityId;
  for (EntityId id = 0; id < es.NumEntities(EntityType::kFile); ++id) {
    if (es.EntityName(EntityType::kFile, id) == "/out") out_file = id;
  }
  ASSERT_NE(out_file, kInvalidEntityId);

  ProvenanceOptions narrow;
  narrow.hop_window = 5 * kMinute;
  auto clipped = TrackProvenance(views, {{0, EntityType::kFile, out_file}},
                                 INT64_MAX, narrow);
  ASSERT_TRUE(clipped.ok());
  auto clipped_names = NodeNames(*clipped, es);
  EXPECT_EQ(clipped_names.count({EntityType::kProcess, "old-writer"}), 0u);
  EXPECT_EQ(clipped_names.count({EntityType::kFile, "/f"}), 1u);

  ProvenanceOptions wide;
  wide.hop_window = 2 * kHour;
  auto full = TrackProvenance(views, {{0, EntityType::kFile, out_file}},
                              INT64_MAX, wide);
  ASSERT_TRUE(full.ok());
  EXPECT_EQ(NodeNames(*full, es).count({EntityType::kProcess, "old-writer"}),
            1u);
}

TEST(ProvenanceWideningTest, ReReachedNodeWidensBoundAndReExpands) {
  // X is first reached through an old event (bound 10), then re-reached
  // through a much later path (X started Y shortly before Y wrote the
  // POI). The looser bound admits X's own in-flows that the first visit
  // could not see — the tracker must widen and re-expand, not silently
  // drop them, and must not duplicate edges it already recorded.
  AuditDatabase db;
  ProcessRef p = Proc(500, "p-proc");
  ProcessRef x = Proc(501, "x-proc");
  ProcessRef y = Proc(502, "y-proc");
  FileRef c{1, "/poi"};
  FileRef f{1, "/lib/payload"};
  ASSERT_TRUE(
      db.Append(Rec(1, OpType::kStart, T0() + 5 * kSecond, kSecond, p, x))
          .ok());
  ASSERT_TRUE(
      db.Append(Rec(1, OpType::kWrite, T0() + 10 * kSecond, kSecond, x, c))
          .ok());
  ASSERT_TRUE(
      db.Append(Rec(1, OpType::kExecute, T0() + 80 * kSecond, kSecond, x, f))
          .ok());
  ASSERT_TRUE(
      db.Append(Rec(1, OpType::kStart, T0() + 92 * kSecond, kSecond, x, y))
          .ok());
  ASSERT_TRUE(
      db.Append(Rec(1, OpType::kWrite, T0() + 95 * kSecond, kSecond, y, c))
          .ok());
  ASSERT_TRUE(db.Seal().ok());
  std::vector<ReadView> views = OneView(db);
  EntityId poi = kInvalidEntityId;
  const EntityStore& es = db.entities();
  for (EntityId id = 0; id < es.NumEntities(EntityType::kFile); ++id) {
    if (es.EntityName(EntityType::kFile, id) == "/poi") poi = id;
  }
  ASSERT_NE(poi, kInvalidEntityId);

  auto result =
      TrackProvenance(views, {{0, EntityType::kFile, poi}}, INT64_MAX, {});
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  auto names = NodeNames(*result, es);
  std::set<std::pair<EntityType, std::string>> expected = {
      {EntityType::kFile, "/poi"},
      {EntityType::kProcess, "x-proc"},
      {EntityType::kProcess, "y-proc"},
      {EntityType::kProcess, "p-proc"},
      {EntityType::kFile, "/lib/payload"},
  };
  EXPECT_EQ(names, expected);
  // 2 writes into the POI, p->x start, x->y start, payload->x execute —
  // and the p->x start, re-discovered during X's re-expansion, only once.
  EXPECT_EQ(result->edges.size(), 5u);
  EXPECT_FALSE(result->stats.truncated);
  // Depth reflects first reach; the widened bound reflects the later path.
  for (const ProvenanceNode& node : result->nodes) {
    if (es.EntityName(node.type, node.id) == "x-proc") {
      EXPECT_EQ(node.depth, 1);
      EXPECT_EQ(node.bound, T0() + 92 * kSecond);
    }
  }
}

// --- single-store error contract ---------------------------------------------

TEST(ProvenanceTieredTest, SingleStoreStorageErrorFailsOnceWithItsOwnCode) {
  // A fully demoted single tiered store that keeps nothing resident, so
  // every hop reopens its partitions from disk through `retention.reopen`.
  Failpoint::ClearAll();
  std::string dir = "/tmp/aiql_provenance_tiered_" +
                    std::to_string(static_cast<long>(getpid()));
  RetentionOptions retention;
  retention.dir = dir;
  retention.hot_buckets = -1;
  retention.compact_min_partitions = 0;
  retention.memory_budget_bytes = 1;
  auto created = TieredStore::Create(StorageOptions{}, retention);
  ASSERT_TRUE(created.ok()) << created.status().ToString();
  std::unique_ptr<TieredStore> store = std::move(*created);
  std::vector<EventRecord> records;
  for (int i = 0; i < 6; ++i) {
    // One write per hour: writer_i -> /data/log, then reader consumes it.
    records.push_back(Rec(1, OpType::kWrite, T0() + i * kHour, kSecond,
                          Proc(700 + i, "writer" + std::to_string(i)),
                          FileRef{1, "/data/log"}));
  }
  records.push_back(Rec(1, OpType::kRead, T0() + 6 * kHour, kSecond,
                        Proc(800, "reader"), FileRef{1, "/data/log"}));
  records.push_back(Rec(1, OpType::kWrite, T0() + 6 * kHour + kMinute,
                        kSecond, Proc(800, "reader"), FileRef{1, "/data/out"}));
  ASSERT_TRUE(store->AppendBatch(std::move(records)).ok());
  ASSERT_TRUE(store->Seal().ok());
  ASSERT_TRUE(store->CompactOnce().ok());
  ASSERT_EQ(store->stats().hot_partitions, 0u);

  {
    AiqlEngine engine(store.get());
    TrackRequest request;
    request.type = EntityType::kFile;
    request.name_like = "/data/out";
    auto clean = engine.Track(request);
    ASSERT_TRUE(clean.ok()) << clean.status().ToString();
    EXPECT_EQ(clean->nodes.size(), 9u);  // out, reader, log, 6 writers
    EXPECT_FALSE(clean->stats.truncated);

    // No retry and no kUnavailable wrapping: the reopen fault surfaces
    // once, with its own code, and nothing is dropped.
    ASSERT_TRUE(Failpoint::Configure("retention.reopen=error(IOError)").ok());
    auto failed = engine.Track(request);
    EXPECT_EQ(Failpoint::HitCount("retention.reopen"), 1u);
    ASSERT_FALSE(failed.ok());
    EXPECT_EQ(failed.status().code(), StatusCode::kIOError);

    Failpoint::ClearAll();
    auto recovered = engine.Track(request);
    ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
    EXPECT_EQ(Canon(*recovered, store->db().entities()),
              Canon(*clean, store->db().entities()));
  }
  store.reset();
  std::remove((dir + "/DATA").c_str());
  for (uint64_t seq = 0; seq <= 64; ++seq) {
    std::remove((dir + "/FOOTER." + std::to_string(seq)).c_str());
  }
  std::remove((dir + "/FOOTER.tmp").c_str());
  rmdir(dir.c_str());
}

// --- reverse index vs brute force -------------------------------------------

TEST(ReverseIndexTest, PostingsAgreeWithBruteForce) {
  DemoScenarioData data = GenerateDemoScenario({});
  auto db = IngestRecords(data.records, StorageOptions{});
  ASSERT_TRUE(db.ok());
  size_t partitions_checked = 0;
  for (const auto& [key, partition] : db->partitions()) {
    (void)key;
    const EventColumns& cols = partition->columns();
    // Brute-force per-entity lists.
    std::map<uint64_t, std::vector<uint32_t>> by_subject, by_object;
    for (uint32_t i = 0; i < cols.size(); ++i) {
      by_subject[cols.subject[i]].push_back(i);
      by_object[EventPartition::ObjectKey(cols.object_type[i],
                                          cols.object[i])]
          .push_back(i);
    }
    for (const auto& [subject, expected] : by_subject) {
      auto [first, last] =
          partition->SubjectPostings(static_cast<EntityId>(subject));
      ASSERT_NE(first, nullptr);
      EXPECT_EQ(std::vector<uint32_t>(first, last), expected);
    }
    for (const auto& [okey, expected] : by_object) {
      auto [first, last] = partition->ObjectPostings(
          static_cast<EntityType>(okey >> 32),
          static_cast<EntityId>(okey & 0xFFFFFFFF));
      ASSERT_NE(first, nullptr);
      EXPECT_EQ(std::vector<uint32_t>(first, last), expected);
    }
    // Missing keys return an empty span.
    auto [none_first, none_last] = partition->SubjectPostings(0xFFFFFF);
    EXPECT_EQ(none_first, nullptr);
    EXPECT_EQ(none_last, nullptr);
    ++partitions_checked;
  }
  EXPECT_GT(partitions_checked, 0u);
}

// --- end to end: the planted exfiltration chain ------------------------------

class ExfilScenarioTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    ScenarioOptions options;
    options.events_per_host_per_hour = 500;  // haystack, but a fast one
    data_ = new ExfilScenarioData(GenerateExfilScenario(options));
    auto db = IngestRecords(data_->records, StorageOptions{});
    ASSERT_TRUE(db.ok());
    db_ = new AuditDatabase(std::move(*db));
  }
  static void TearDownTestSuite() {
    delete db_;
    delete data_;
    db_ = nullptr;
    data_ = nullptr;
  }

  static ExfilScenarioData* data_;
  static AuditDatabase* db_;
};

ExfilScenarioData* ExfilScenarioTest::data_ = nullptr;
AuditDatabase* ExfilScenarioTest::db_ = nullptr;

TrackRequest ExfilRequest(const ExfilChainTruth& truth) {
  TrackRequest request;
  request.type = EntityType::kNetwork;
  request.name_like = truth.poi_like;
  request.anchor = truth.anchor;
  return request;
}

void VerifyChainRecovered(const ProvenanceResult& result,
                          const EntityStore& entities,
                          const ExfilChainTruth& truth) {
  std::set<std::pair<EntityType, std::string>> expected(truth.chain.begin(),
                                                        truth.chain.end());
  EXPECT_EQ(NodeNames(result, entities), expected);
  EXPECT_EQ(result.nodes.size(), truth.chain.size());
  EXPECT_EQ(result.edges.size(), truth.chain_events);
  EXPECT_FALSE(result.stats.truncated);
  EXPECT_EQ(result.stats.hops, truth.chain_depth + 1);  // +1 empty closing hop
  // Every edge's flow endpoints are nodes of the graph, and backward hops
  // are time-monotonic: each edge ends at or before its destination bound.
  for (const ProvenanceEdge& edge : result.edges) {
    ASSERT_LT(edge.from, result.nodes.size());
    ASSERT_LT(edge.to, result.nodes.size());
    EXPECT_LE(edge.event.end_ts, result.nodes[edge.to].bound);
  }
}

TEST_F(ExfilScenarioTest, BackwardTrackRecoversChainFromLiveDatabase) {
  AiqlEngine engine(db_);
  auto result = engine.Track(ExfilRequest(data_->truth));
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  VerifyChainRecovered(*result, db_->entities(), data_->truth);
  EXPECT_EQ(result->stats.hop_latency_us.size(),
            static_cast<size_t>(result->stats.hops));
}

TEST_F(ExfilScenarioTest, DepthBudgetClipsChainAndNothingOutsideIt) {
  AiqlEngine engine(db_);
  TrackRequest request = ExfilRequest(data_->truth);
  request.options.max_depth = 2;
  auto result = engine.Track(request);
  ASSERT_TRUE(result.ok());
  // Within 2 hops: conn_out, sysupd, customer.db, stage-loader.
  std::set<std::pair<EntityType, std::string>> expected(
      data_->truth.chain.begin(), data_->truth.chain.begin() + 4);
  EXPECT_EQ(NodeNames(*result, db_->entities()), expected);
  EXPECT_TRUE(result->stats.truncated);
}

TEST_F(ExfilScenarioTest, BackwardTrackRecoversChainFromV2Snapshot) {
  std::string path = "/tmp/aiql_provenance_test.snap";
  ASSERT_TRUE(SaveSnapshot(*db_, path).ok());
  auto store = SnapshotStore::Open(path);
  ASSERT_TRUE(store.ok()) << store.status().ToString();
  AiqlEngine engine(store->get());
  auto result = engine.Track(ExfilRequest(data_->truth));
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  VerifyChainRecovered(*result, (*store)->entities(), data_->truth);
  // Lazy store: the hops materialized only a subset of the partitions.
  EXPECT_GT((*store)->loaded_partitions(), 0u);
  EXPECT_LT((*store)->loaded_partitions(), (*store)->total_partitions());
  std::remove(path.c_str());
}

TEST_F(ExfilScenarioTest, ResultExportsToGraphDotAndCypher) {
  AiqlEngine engine(db_);
  auto result = engine.Track(ExfilRequest(data_->truth));
  ASSERT_TRUE(result.ok()) << result.status().ToString();

  // Dependency subgraph: same edge count, traversable adjacency.
  GraphStore graph(&db_->entities(), *result);
  EXPECT_EQ(graph.num_edges(), result->edges.size());
  const ProvenanceNode& poi = result->nodes[0];
  NodeId poi_node = graph.NodeOf(poi.type, poi.id);
  // Everything the track recovered flows INTO the POI; conn_out has 4
  // incoming event edges (connect + 3 bursts) and no outgoing ones.
  EXPECT_EQ(graph.InEdges(poi_node).size(), 4u);
  EXPECT_TRUE(graph.OutEdges(poi_node).empty());

  std::string dot = ProvenanceToDot(*result, db_->entities());
  EXPECT_NE(dot.find("digraph provenance"), std::string::npos);
  EXPECT_NE(dot.find("peripheries=2"), std::string::npos);  // POI ring
  EXPECT_NE(dot.find("sysupd.exe"), std::string::npos);
  // One DOT edge per provenance edge.
  size_t arrows = 0;
  for (size_t pos = dot.find(" -> "); pos != std::string::npos;
       pos = dot.find(" -> ", pos + 1)) {
    ++arrows;
  }
  EXPECT_EQ(arrows, result->edges.size());

  std::string cypher = ProvenanceToCypher(*result, db_->entities());
  EXPECT_NE(cypher.find("MERGE (n0:Connection"), std::string::npos);
  EXPECT_NE(cypher.find("poi: true"), std::string::npos);
  EXPECT_NE(cypher.find("[:WRITE"), std::string::npos);
  EXPECT_NE(cypher.find("[:ACCEPT"), std::string::npos);
}

TEST_F(ExfilScenarioTest, ForwardTrackFromEntryPointReachesExfiltration) {
  AiqlEngine engine(db_);
  TrackRequest request;
  request.type = EntityType::kProcess;
  request.name_like = "C:\\Windows\\Temp\\stage-loader.exe";
  request.options.backward = false;
  request.anchor = data_->truth.start;
  auto result = engine.Track(request);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  auto names = NodeNames(*result, db_->entities());
  EXPECT_EQ(names.count({EntityType::kNetwork, data_->truth.poi_name}), 1u);
  EXPECT_EQ(
      names.count({EntityType::kProcess, "C:\\Windows\\Temp\\sysupd.exe"}),
      1u);
}

}  // namespace
}  // namespace aiql
