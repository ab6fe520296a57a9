// Differential-oracle property test (issue #4 satellite, widened by issue
// #5): a deliberately naive brute-force reference matcher over the raw
// generated events, plus seeded-RNG generators of random AIQL queries —
// multi-pattern multievent queries (operation disjunctions, global time
// windows, agent filters, shared entity variables, bounded before/after
// relations, distinct) AND dependency path queries (forward/backward
// chains, anonymous nodes, per-edge hop windows), both with LIKE predicates
// covering leading/trailing/infix '%', '_', escapes and mixed case, and
// with ORDER BY + LIMIT. The optimized engine must agree with the oracle
//   * under every combination of EngineOptions toggles, and
//   * whether results are served from in-memory sealed partitions or from
//     a lazily opened v2 snapshot.
//
// Ordered results are verified tie-aware: the engine's rows must be a
// correctly ordered selection of the oracle's rows with the exact key-tuple
// sequence the comparator prescribes (ties may permute, LIMIT may keep any
// tied prefix).
//
// The oracle shares only LikeMatcher (string predicate semantics) with the
// engine; candidate filtering, joining, temporal checks, ordering, and
// projection are reimplemented as straight nested loops over the raw event
// list. Dependency semantics are reimplemented from the language spec (each
// edge an event, shared path nodes join, chain order temporal relations) —
// NOT by calling RewriteDependency.
//
// Query count per options combination defaults to 200 and can be raised
// via AIQL_ORACLE_QUERIES.
//
// Issue #6 adds a sharded axis: the same world is routed into 2/4/8-way
// agent-range shard maps (database- AND snapshot-backed), and every
// generated query also runs through the scatter/gather executor against a
// per-case rotated options combination — results must match the oracle (and
// hence the single-db engines) under the same tie-aware comparison,
// including dependency chains whose edges live on different shards.

#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "common/failpoint.h"
#include "common/like_matcher.h"
#include "common/rng.h"
#include "engine/aiql_engine.h"
#include "engine/result.h"
#include "storage/database.h"
#include "storage/shard_map.h"
#include "storage/snapshot.h"
#include "storage/tiered.h"

namespace aiql {
namespace {

Timestamp T0() { return *MakeTimestamp(2018, 5, 10); }
constexpr Duration kSpan = 6 * kHour;
// Eight agents so an 8-way shard map gets one agent per shard.
constexpr int kNumAgents = 8;

// --- generated world ---------------------------------------------------------

struct GenProc {
  AgentId agent;
  uint32_t pid;
  std::string exe;
  std::string user;
};
struct GenFile {
  AgentId agent;
  std::string path;
};
struct GenNet {
  AgentId agent;
  std::string src_ip;
  std::string dst_ip;
  uint16_t src_port;
  uint16_t dst_port;
  std::string proto;
};

struct GenEvent {
  OpType op = OpType::kRead;
  EntityType otype = EntityType::kFile;
  size_t subject = 0;  ///< index into World::procs
  size_t object = 0;   ///< index into the pool of `otype`
  Timestamp start = 0;
  Timestamp end = 0;
  uint64_t amount = 0;
  AgentId agent = 0;
};

struct World {
  std::vector<GenProc> procs;
  std::vector<GenFile> files;
  std::vector<GenNet> nets;
  std::vector<GenEvent> events;
};

World GenerateWorld(uint64_t seed, int num_events) {
  Rng rng(seed);
  World world;
  // Names deliberately include '_' and literal '%' so wildcard and escape
  // patterns discriminate.
  const char* exes[] = {"cmd.exe",      "powershell.exe", "svchost.exe",
                        "chrome.exe",   "sqlservr.exe",   "osql.exe",
                        "backup.exe",   "winword.exe",    "sshd",
                        "bash",         "python",         "nginx",
                        "update_agent", "my%app.exe"};
  const char* users[] = {"root", "alice", "bob", "system"};
  for (uint32_t i = 0; i < 40; ++i) {
    // Unique pids keep every pool entry a distinct entity, so oracle
    // identity (pool index) coincides with engine identity (EntityId).
    world.procs.push_back(
        {static_cast<AgentId>(1 + rng.Uniform(kNumAgents)), 100 + i,
         exes[rng.Uniform(14)], users[rng.Uniform(4)]});
  }
  const char* dirs[] = {"/etc", "/var/log", "/home/alice",
                        "/tmp", "/usr/bin", "/data", "/srv/app_data"};
  for (int i = 0; i < 30; ++i) {
    world.files.push_back(
        {static_cast<AgentId>(1 + rng.Uniform(kNumAgents)),
         std::string(dirs[rng.Uniform(7)]) + "/file" + std::to_string(i)});
  }
  const char* ips[] = {"10.0.0.5",      "10.0.0.9",    "172.16.0.129",
                       "93.184.216.34", "192.168.1.7", "8.8.8.8"};
  for (uint16_t i = 0; i < 20; ++i) {
    world.nets.push_back(
        {static_cast<AgentId>(1 + rng.Uniform(kNumAgents)),
         ips[rng.Uniform(6)], ips[rng.Uniform(6)],
         static_cast<uint16_t>(40000 + i),  // unique: distinct 5-tuples
         static_cast<uint16_t>(rng.Chance(0.5) ? 443 : 8000 + i),
         rng.Chance(0.8) ? "tcp" : "udp"});
  }

  const OpType file_ops[] = {OpType::kRead, OpType::kWrite, OpType::kExecute,
                             OpType::kDelete, OpType::kRename};
  const OpType net_ops[] = {OpType::kRead, OpType::kWrite, OpType::kConnect,
                            OpType::kAccept};
  const OpType proc_ops[] = {OpType::kStart, OpType::kEnd, OpType::kConnect};
  for (int i = 0; i < num_events; ++i) {
    GenEvent e;
    e.subject = rng.Uniform(world.procs.size());
    double r = rng.NextDouble();
    if (r < 0.5) {
      e.otype = EntityType::kFile;
      e.object = rng.Uniform(world.files.size());
      e.op = file_ops[rng.Uniform(5)];
    } else if (r < 0.75) {
      e.otype = EntityType::kNetwork;
      e.object = rng.Uniform(world.nets.size());
      e.op = net_ops[rng.Uniform(4)];
    } else {
      e.otype = EntityType::kProcess;
      e.object = rng.Uniform(world.procs.size());
      e.op = proc_ops[rng.Uniform(3)];
    }
    if (rng.Chance(0.05)) {  // off-matrix (op, object type) combinations
      e.op = static_cast<OpType>(rng.Uniform(kNumOpTypes));
    }
    e.start = T0() + static_cast<Duration>(rng.Uniform(kSpan / kSecond)) *
                         kSecond;
    e.end = e.start + static_cast<Duration>(rng.Uniform(120)) * kSecond;
    e.amount = rng.Uniform(1000000);
    e.agent = world.procs[e.subject].agent;
    world.events.push_back(e);
  }
  return world;
}

StorageOptions OracleStorage() {
  StorageOptions options;
  options.partition_duration = kHour;
  options.dedup_window = 0;  // oracle works on raw events 1:1
  options.max_partition_events = 200;  // exercise rollover / seq partitions
  return options;
}

std::vector<EventRecord> WorldRecords(const World& world) {
  std::vector<EventRecord> records;
  records.reserve(world.events.size());
  for (const GenEvent& e : world.events) {
    EventRecord record;
    record.agent_id = e.agent;
    record.op = e.op;
    record.start_ts = e.start;
    record.end_ts = e.end;
    record.amount = e.amount;
    const GenProc& s = world.procs[e.subject];
    record.subject = ProcessRef{s.agent, s.pid, s.exe, s.user};
    switch (e.otype) {
      case EntityType::kFile: {
        const GenFile& f = world.files[e.object];
        record.object = FileRef{f.agent, f.path};
        break;
      }
      case EntityType::kNetwork: {
        const GenNet& n = world.nets[e.object];
        record.object = NetworkRef{n.agent, n.src_ip, n.dst_ip, n.src_port,
                                   n.dst_port, n.proto};
        break;
      }
      case EntityType::kProcess: {
        const GenProc& p = world.procs[e.object];
        record.object = ProcessRef{p.agent, p.pid, p.exe, p.user};
        break;
      }
    }
    records.push_back(std::move(record));
  }
  return records;
}

AuditDatabase BuildDatabase(const World& world) {
  AuditDatabase db(OracleStorage());
  for (const EventRecord& record : WorldRecords(world)) {
    EXPECT_TRUE(db.Append(record).ok());
  }
  EXPECT_TRUE(db.Seal().ok());
  return db;
}

// --- sharded worlds ----------------------------------------------------------

/// One sharded copy of the world: per-shard databases (optionally re-opened
/// through on-disk v2 snapshots) under a ShardMap.
struct ShardedWorld {
  std::string name;
  std::vector<std::unique_ptr<AuditDatabase>> dbs;
  std::vector<std::unique_ptr<SnapshotStore>> snaps;
  std::vector<std::string> snap_paths;
  ShardMap map;

  ~ShardedWorld() {
    snaps.clear();
    for (const std::string& path : snap_paths) std::remove(path.c_str());
  }
};

std::unique_ptr<ShardedWorld> BuildShardedWorld(
    const std::vector<EventRecord>& records, size_t num_shards,
    bool snapshot_backed) {
  auto world = std::make_unique<ShardedWorld>();
  world->name = std::to_string(num_shards) + "-way " +
                (snapshot_backed ? "snapshot" : "db");
  auto ranges = EvenAgentRanges(num_shards, 1, kNumAgents);
  auto routed = RouteRecordsByAgent(ranges, records);
  if (!routed.ok()) {
    ADD_FAILURE() << routed.status().ToString();
    return nullptr;
  }
  for (size_t s = 0; s < num_shards; ++s) {
    auto db = std::make_unique<AuditDatabase>(OracleStorage());
    for (const EventRecord& record : (*routed)[s]) {
      EXPECT_TRUE(db->Append(record).ok());
    }
    EXPECT_TRUE(db->Seal().ok());
    world->dbs.push_back(std::move(db));
    Status added;
    if (snapshot_backed) {
      std::string path = "/tmp/aiql_oracle_shard_" +
                         std::to_string(num_shards) + "_" +
                         std::to_string(s) + ".snap";
      Status saved = SaveSnapshot(*world->dbs.back(), path);
      if (!saved.ok()) {
        ADD_FAILURE() << saved.ToString();
        return nullptr;
      }
      world->snap_paths.push_back(path);
      auto store = SnapshotStore::Open(path);
      if (!store.ok()) {
        ADD_FAILURE() << store.status().ToString();
        return nullptr;
      }
      world->snaps.push_back(std::move(*store));
      added = world->map.AddShard(world->snaps.back().get(), ranges[s]);
    } else {
      added = world->map.AddShard(world->dbs.back().get(), ranges[s]);
    }
    if (!added.ok()) {
      ADD_FAILURE() << added.ToString();
      return nullptr;
    }
  }
  return world;
}

// --- generated queries -------------------------------------------------------

struct GenConstraint {
  std::optional<std::string> like;     ///< default-attr LIKE
  std::optional<std::string> user_eq;  ///< proc only
  std::optional<uint16_t> dst_port;    ///< net only
};

struct GenPattern {
  EntityType otype = EntityType::kFile;
  std::vector<OpType> ops;
  std::string subj_var;
  std::string obj_var;
  GenConstraint subj;
  GenConstraint obj;
  std::string event_var;
};

struct GenTemporal {
  size_t left = 0;   ///< pattern index that must end first
  size_t right = 0;  ///< pattern index that starts later
  Duration within = 0;
  bool render_as_after = false;
};

struct GenQuery {
  std::optional<TimeRange> window;
  std::string from_text, to_text;
  std::optional<AgentId> agent;
  std::vector<GenPattern> patterns;
  std::vector<GenTemporal> rels;
  bool distinct = false;
  /// (var, attr) — attr empty renders the bare variable (default attr).
  std::vector<std::pair<std::string, std::string>> returns;
  /// ORDER BY keys: (index into `returns`, descending).
  std::vector<std::pair<size_t, bool>> order;
  /// LIMIT; only generated together with ORDER BY (an unordered LIMIT
  /// keeps an arbitrary engine-dependent subset, which no oracle can pin).
  std::optional<int64_t> limit;
};

/// One generated test case: the AIQL text handed to the engine plus the
/// independently built oracle form. For dependency queries the oracle form
/// is derived from the language spec, not from the engine's rewriter.
struct GenCase {
  std::string text;
  GenQuery oracle;
};

std::string TimeText(Timestamp ts) {
  int64_t secs = (ts - T0()) / kSecond;
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%02d:%02d:%02d 05/10/2018",
                static_cast<int>(secs / 3600),
                static_cast<int>((secs / 60) % 60),
                static_cast<int>(secs % 60));
  return buf;
}

// LIKE pools shared by both generators. Mixed case exercises the
// case-insensitive fold; '_' the single-char wildcard; '\%' / '\_' the
// escape path (rendered verbatim through the lexer, which passes unknown
// escapes untouched). "update\\_agent" matches the literal exe
// "update_agent"; "my\\%app%" and "%\\%%" match "my%app.exe".
const char* kExeLikes[] = {"%cmd%",      "%.exe",   "%sh%",
                           "%sql%",      "chrome.exe", "%w%",
                           "nginx",      "%e%",     "%CMD%",
                           "c_d.exe",    "p_thon",  "%.e_e",
                           "update\\_agent", "my\\%app%", "%\\%%",
                           "bas_"};
const char* kPathLikes[] = {"/etc/%",  "%log%",   "%file1%",
                            "/tmp/%",  "%file2_", "%a%",
                            "%app\\_data%", "/srv/%", "%file__",
                            "%FILE1%"};
const char* kIpLikes[] = {"10.0.0.%", "%129",     "8.8.8.8", "%.16.%",
                          "192.168.%", "10.0.0._", "1__.%"};

std::string RenderLike(EntityType type, Rng* rng) {
  switch (type) {
    case EntityType::kProcess:
      return kExeLikes[rng->Uniform(16)];
    case EntityType::kFile:
      return kPathLikes[rng->Uniform(10)];
    case EntityType::kNetwork:
      return kIpLikes[rng->Uniform(7)];
  }
  return "%";
}

/// Fills window / agent globals (shared by both generators).
void GenerateGlobals(Rng* rng, GenQuery* q) {
  if (rng->Chance(0.6)) {
    int64_t span_secs = kSpan / kSecond;
    int64_t a = rng->UniformRange(0, span_secs - 1);
    int64_t b = rng->UniformRange(0, span_secs - 1);
    if (a > b) std::swap(a, b);
    Timestamp from = T0() + a * kSecond;
    Timestamp to = T0() + b * kSecond;
    q->window = TimeRange{from, to + 1};  // "(from X to Y)" includes Y
    q->from_text = TimeText(from);
    q->to_text = TimeText(to);
  }
  if (rng->Chance(0.5)) {
    q->agent = static_cast<AgentId>(1 + rng->Uniform(kNumAgents));
  }
}

/// Appends ORDER BY over a subset of the returns, plus LIMIT (ordered
/// queries only — see GenQuery::limit).
void GenerateOrderAndLimit(Rng* rng, GenQuery* q) {
  if (q->returns.empty() || !rng->Chance(0.35)) return;
  size_t num_keys = 1 + (q->returns.size() > 1 && rng->Chance(0.3) ? 1 : 0);
  std::vector<size_t> picked;
  for (size_t k = 0; k < num_keys; ++k) {
    size_t index = rng->Uniform(q->returns.size());
    if (std::find(picked.begin(), picked.end(), index) != picked.end()) {
      continue;
    }
    picked.push_back(index);
    q->order.emplace_back(index, rng->Chance(0.5));
  }
  if (rng->Chance(0.5)) {
    q->limit = 1 + static_cast<int64_t>(rng->Uniform(20));
  }
}

GenQuery GenerateQuery(Rng* rng, const World& /*world*/) {
  GenQuery q;
  GenerateGlobals(rng, &q);

  const char* user_eqs[] = {"root", "alice", "bob", "system"};
  const OpType file_ops[] = {OpType::kRead, OpType::kWrite, OpType::kExecute,
                             OpType::kDelete, OpType::kRename};
  const OpType net_ops[] = {OpType::kRead, OpType::kWrite, OpType::kConnect,
                            OpType::kAccept};
  const OpType proc_ops[] = {OpType::kStart, OpType::kEnd, OpType::kConnect};

  int num_patterns = 1 + static_cast<int>(rng->Uniform(3));
  int next_proc = 0, next_file = 0, next_net = 0;
  std::vector<std::string> proc_vars, file_vars, net_vars;

  for (int i = 0; i < num_patterns; ++i) {
    GenPattern p;
    p.event_var = "e" + std::to_string(i);

    // Subject (always a process): reuse a proc var sometimes — shared vars
    // are the implicit joins the semi-join optimization prunes on.
    bool fresh_subject = proc_vars.empty() || !rng->Chance(0.3);
    if (fresh_subject) {
      p.subj_var = "p" + std::to_string(next_proc++);
      proc_vars.push_back(p.subj_var);
    } else {
      p.subj_var = proc_vars[rng->Uniform(proc_vars.size())];
    }
    if (rng->Chance(fresh_subject ? 0.6 : 0.2)) {
      p.subj.like = RenderLike(EntityType::kProcess, rng);
    }
    if (rng->Chance(0.15)) p.subj.user_eq = user_eqs[rng->Uniform(4)];

    double r = rng->NextDouble();
    if (r < 0.5) {
      p.otype = EntityType::kFile;
      p.ops.push_back(file_ops[rng->Uniform(5)]);
      if (rng->Chance(0.3)) p.ops.push_back(file_ops[rng->Uniform(5)]);
    } else if (r < 0.75) {
      p.otype = EntityType::kNetwork;
      p.ops.push_back(net_ops[rng->Uniform(4)]);
      if (rng->Chance(0.3)) p.ops.push_back(net_ops[rng->Uniform(4)]);
    } else {
      p.otype = EntityType::kProcess;
      p.ops.push_back(proc_ops[rng->Uniform(3)]);
      if (rng->Chance(0.3)) p.ops.push_back(proc_ops[rng->Uniform(3)]);
    }
    // Drop duplicate ops from the disjunction.
    std::sort(p.ops.begin(), p.ops.end());
    p.ops.erase(std::unique(p.ops.begin(), p.ops.end()), p.ops.end());

    std::vector<std::string>* typed_vars =
        p.otype == EntityType::kFile      ? &file_vars
        : p.otype == EntityType::kNetwork ? &net_vars
                                          : &proc_vars;
    bool fresh_object = typed_vars->empty() || !rng->Chance(0.35);
    if (p.otype == EntityType::kProcess && rng->Chance(0.05)) {
      p.obj_var = p.subj_var;  // subject == object identity scan
      fresh_object = false;
    } else if (fresh_object) {
      switch (p.otype) {
        case EntityType::kFile:
          p.obj_var = "f" + std::to_string(next_file++);
          break;
        case EntityType::kNetwork:
          p.obj_var = "n" + std::to_string(next_net++);
          break;
        case EntityType::kProcess:
          p.obj_var = "p" + std::to_string(next_proc++);
          break;
      }
      typed_vars->push_back(p.obj_var);
    } else {
      p.obj_var = (*typed_vars)[rng->Uniform(typed_vars->size())];
    }
    if (rng->Chance(fresh_object ? 0.5 : 0.2)) {
      p.obj.like = RenderLike(p.otype, rng);
    }
    if (p.otype == EntityType::kNetwork && rng->Chance(0.15)) {
      p.obj.dst_port = 443;
    }
    q.patterns.push_back(std::move(p));
  }

  if (num_patterns >= 2 && rng->Chance(0.7)) {
    int num_rels = 1 + static_cast<int>(rng->Uniform(2));
    for (int r = 0; r < num_rels; ++r) {
      GenTemporal rel;
      rel.left = rng->Uniform(q.patterns.size());
      rel.right = rng->Uniform(q.patterns.size());
      if (rel.left == rel.right) continue;
      if (rng->Chance(0.4)) {
        const Duration bounds[] = {kMinute, 5 * kMinute, 30 * kMinute,
                                   2 * kHour};
        rel.within = bounds[rng->Uniform(4)];
      }
      rel.render_as_after = rng->Chance(0.5);
      q.rels.push_back(rel);
    }
  }

  // Return items: a subset of the entity vars (at least one), optionally an
  // event amount; `distinct` sometimes.
  std::vector<std::string> entity_vars;
  for (const GenPattern& p : q.patterns) {
    for (const std::string& var : {p.subj_var, p.obj_var}) {
      if (std::find(entity_vars.begin(), entity_vars.end(), var) ==
          entity_vars.end()) {
        entity_vars.push_back(var);
      }
    }
  }
  bool all_vars = rng->Chance(0.6);
  for (const std::string& var : entity_vars) {
    if (all_vars || rng->Chance(0.5)) q.returns.emplace_back(var, "");
  }
  if (q.returns.empty()) q.returns.emplace_back(entity_vars.front(), "");
  if (rng->Chance(0.3)) {
    size_t i = rng->Uniform(q.patterns.size());
    q.returns.emplace_back(q.patterns[i].event_var, "amount");
  }
  q.distinct = rng->Chance(0.4);
  GenerateOrderAndLimit(rng, &q);
  return q;
}

std::string RenderOrderAndLimit(const GenQuery& q) {
  std::string text;
  if (!q.order.empty()) {
    text += " order by ";
    for (size_t i = 0; i < q.order.size(); ++i) {
      if (i > 0) text += ", ";
      const auto& [index, desc] = q.order[i];
      text += q.returns[index].first;
      if (!q.returns[index].second.empty()) {
        text += "." + q.returns[index].second;
      }
      if (desc) text += " desc";
    }
  }
  if (q.limit.has_value()) text += " limit " + std::to_string(*q.limit);
  return text;
}

std::string RenderQuery(const GenQuery& q) {
  std::string text;
  if (q.window.has_value()) {
    text += "(from \"" + q.from_text + "\" to \"" + q.to_text + "\") ";
  }
  if (q.agent.has_value()) {
    text += "agentid = " + std::to_string(*q.agent) + " ";
  }
  for (const GenPattern& p : q.patterns) {
    auto render_entity = [](EntityType type, const std::string& var,
                            const GenConstraint& c) {
      std::string out = type == EntityType::kFile      ? "file "
                        : type == EntityType::kNetwork ? "ip "
                                                       : "proc ";
      out += var;
      std::vector<std::string> constraints;
      if (c.like.has_value()) constraints.push_back("\"" + *c.like + "\"");
      if (c.user_eq.has_value()) {
        constraints.push_back("user = \"" + *c.user_eq + "\"");
      }
      if (c.dst_port.has_value()) {
        constraints.push_back("dst_port = " + std::to_string(*c.dst_port));
      }
      if (!constraints.empty()) {
        out += "[";
        for (size_t i = 0; i < constraints.size(); ++i) {
          if (i > 0) out += ", ";
          out += constraints[i];
        }
        out += "]";
      }
      return out;
    };
    text += render_entity(EntityType::kProcess, p.subj_var, p.subj) + " ";
    for (size_t i = 0; i < p.ops.size(); ++i) {
      if (i > 0) text += " || ";
      text += OpTypeToString(p.ops[i]);
    }
    text += " " + render_entity(p.otype, p.obj_var, p.obj);
    text += " as " + p.event_var + " ";
  }
  if (!q.rels.empty()) {
    text += "with ";
    for (size_t i = 0; i < q.rels.size(); ++i) {
      const GenTemporal& rel = q.rels[i];
      if (i > 0) text += ", ";
      std::string bound;
      if (rel.within > 0) {
        bound = "[" + std::to_string(rel.within / kMinute) + " min]";
      }
      const std::string& left = q.patterns[rel.left].event_var;
      const std::string& right = q.patterns[rel.right].event_var;
      if (rel.render_as_after) {
        text += right + " after" + bound + " " + left;
      } else {
        text += left + " before" + bound + " " + right;
      }
    }
    text += " ";
  }
  text += "return ";
  if (q.distinct) text += "distinct ";
  for (size_t i = 0; i < q.returns.size(); ++i) {
    if (i > 0) text += ", ";
    text += q.returns[i].first;
    if (!q.returns[i].second.empty()) text += "." + q.returns[i].second;
  }
  text += RenderOrderAndLimit(q);
  return text;
}

// --- generated dependency queries --------------------------------------------

/// One path node as generated: anonymous nodes render without a variable
/// but keep a synthetic oracle var (the join the engine's rewriter creates
/// with its internal names).
struct GenDepNode {
  EntityType type = EntityType::kProcess;
  std::string var;   ///< oracle variable (always set)
  bool anonymous = false;
  GenConstraint constraint;
};

struct GenDepEdge {
  bool arrow_forward = true;  ///< previous node is the event's subject
  std::vector<OpType> ops;
  Duration within = 0;  ///< hop window vs the previous edge (never edge 0)
};

std::string RenderEntityDecl(EntityType type, const std::string& var,
                             const GenConstraint& c) {
  std::string out = type == EntityType::kFile      ? "file "
                    : type == EntityType::kNetwork ? "ip "
                                                   : "proc ";
  out += var;
  std::vector<std::string> constraints;
  if (c.like.has_value()) constraints.push_back("\"" + *c.like + "\"");
  if (c.user_eq.has_value()) {
    constraints.push_back("user = \"" + *c.user_eq + "\"");
  }
  if (c.dst_port.has_value()) {
    constraints.push_back("dst_port = " + std::to_string(*c.dst_port));
  }
  if (!constraints.empty()) {
    out += "[";
    for (size_t i = 0; i < constraints.size(); ++i) {
      if (i > 0) out += ", ";
      out += constraints[i];
    }
    out += "]";
  }
  while (!out.empty() && out.back() == ' ') out.pop_back();
  return out;
}

/// Generates a dependency path query plus its independent oracle form:
/// every edge becomes one event pattern (the arrow fixing the subject
/// side), shared path nodes join through their variable, and consecutive
/// events are chained before/after per the path direction with the edge's
/// hop window as the bound. Node constraints apply to the entity, i.e. at
/// every occurrence of its variable.
GenCase GenerateDependencyCase(Rng* rng, const World& /*world*/) {
  const OpType file_ops[] = {OpType::kRead, OpType::kWrite, OpType::kExecute,
                             OpType::kDelete, OpType::kRename};
  const OpType net_ops[] = {OpType::kRead, OpType::kWrite, OpType::kConnect,
                            OpType::kAccept};
  const OpType proc_ops[] = {OpType::kStart, OpType::kEnd, OpType::kConnect};
  const char* user_eqs[] = {"root", "alice", "bob", "system"};

  bool forward = rng->Chance(0.5);
  int num_edges = 1 + static_cast<int>(rng->Uniform(3));

  std::vector<GenDepNode> nodes;
  std::vector<GenDepEdge> edges;
  int anon_counter = 0;

  auto make_node = [&](EntityType type, bool may_be_anonymous) {
    GenDepNode node;
    node.type = type;
    node.anonymous = may_be_anonymous && rng->Chance(0.25);
    node.var = node.anonymous
                   ? "$anon" + std::to_string(++anon_counter)
                   : "d" + std::to_string(nodes.size());
    if (rng->Chance(0.45)) {
      node.constraint.like = RenderLike(type, rng);
    }
    if (type == EntityType::kProcess && rng->Chance(0.15)) {
      node.constraint.user_eq = user_eqs[rng->Uniform(4)];
    }
    if (type == EntityType::kNetwork && rng->Chance(0.2)) {
      node.constraint.dst_port = 443;
    }
    nodes.push_back(node);
  };

  auto random_type = [&]() {
    double r = rng->NextDouble();
    return r < 0.45   ? EntityType::kFile
           : r < 0.7  ? EntityType::kNetwork
                      : EntityType::kProcess;
  };

  // The start node stays named so the return clause always has a variable.
  make_node(rng->Chance(0.6) ? EntityType::kProcess : random_type(), false);
  for (int i = 0; i < num_edges; ++i) {
    const GenDepNode& prev = nodes.back();
    GenDepEdge edge;
    // The event's subject must be a process: a non-process previous node
    // forces a backward arrow (target becomes the subject); from a process
    // either direction is legal (backward then needs a process target).
    if (prev.type != EntityType::kProcess) {
      edge.arrow_forward = false;
    } else {
      edge.arrow_forward = rng->Chance(0.65);
    }
    EntityType target_type =
        edge.arrow_forward ? random_type() : EntityType::kProcess;
    // The event's object side decides which operations are legal.
    EntityType object_type = edge.arrow_forward ? target_type : prev.type;
    switch (object_type) {
      case EntityType::kFile:
        edge.ops.push_back(file_ops[rng->Uniform(5)]);
        if (rng->Chance(0.3)) edge.ops.push_back(file_ops[rng->Uniform(5)]);
        break;
      case EntityType::kNetwork:
        edge.ops.push_back(net_ops[rng->Uniform(4)]);
        if (rng->Chance(0.3)) edge.ops.push_back(net_ops[rng->Uniform(4)]);
        break;
      case EntityType::kProcess:
        edge.ops.push_back(proc_ops[rng->Uniform(3)]);
        if (rng->Chance(0.3)) edge.ops.push_back(proc_ops[rng->Uniform(3)]);
        break;
    }
    std::sort(edge.ops.begin(), edge.ops.end());
    edge.ops.erase(std::unique(edge.ops.begin(), edge.ops.end()),
                   edge.ops.end());
    if (i > 0 && rng->Chance(0.35)) {
      const Duration bounds[] = {kMinute, 5 * kMinute, 30 * kMinute,
                                 2 * kHour};
      edge.within = bounds[rng->Uniform(4)];
    }
    edges.push_back(edge);
    make_node(target_type, true);
  }

  // Oracle form: one pattern per edge, chained temporally.
  GenCase gen;
  GenerateGlobals(rng, &gen.oracle);
  for (int i = 0; i < num_edges; ++i) {
    const GenDepNode& prev = nodes[i];
    const GenDepNode& target = nodes[i + 1];
    const GenDepNode& subj = edges[i].arrow_forward ? prev : target;
    const GenDepNode& obj = edges[i].arrow_forward ? target : prev;
    GenPattern p;
    p.otype = obj.type;
    p.ops = edges[i].ops;
    p.subj_var = subj.var;
    p.obj_var = obj.var;
    // A node's constraint filters the entity itself, so it holds at every
    // occurrence of the variable.
    p.subj.like = subj.constraint.like;
    p.subj.user_eq = subj.constraint.user_eq;
    p.obj.like = obj.constraint.like;
    p.obj.dst_port = obj.constraint.dst_port;
    if (obj.type == EntityType::kProcess) p.obj.user_eq = obj.constraint.user_eq;
    p.event_var = "$dep" + std::to_string(i + 1);
    gen.oracle.patterns.push_back(std::move(p));
    if (i > 0) {
      GenTemporal rel;
      // forward: event i-1 ends before event i starts; backward reversed.
      rel.left = forward ? static_cast<size_t>(i - 1) : static_cast<size_t>(i);
      rel.right = forward ? static_cast<size_t>(i) : static_cast<size_t>(i - 1);
      rel.within = edges[i].within;
      gen.oracle.rels.push_back(rel);
    }
  }

  // Returns: a subset of the named nodes (the start node guarantees one).
  std::vector<std::string> named;
  for (const GenDepNode& node : nodes) {
    if (!node.anonymous) named.push_back(node.var);
  }
  bool all_vars = rng->Chance(0.6);
  for (const std::string& var : named) {
    if (all_vars || rng->Chance(0.5)) {
      gen.oracle.returns.emplace_back(var, "");
    }
  }
  if (gen.oracle.returns.empty()) {
    gen.oracle.returns.emplace_back(named.front(), "");
  }
  gen.oracle.distinct = rng->Chance(0.4);
  GenerateOrderAndLimit(rng, &gen.oracle);

  // Render the path text.
  std::string text;
  if (gen.oracle.window.has_value()) {
    text += "(from \"" + gen.oracle.from_text + "\" to \"" +
            gen.oracle.to_text + "\") ";
  }
  if (gen.oracle.agent.has_value()) {
    text += "agentid = " + std::to_string(*gen.oracle.agent) + " ";
  }
  text += forward ? "forward: " : "backward: ";
  text += RenderEntityDecl(nodes[0].type,
                           nodes[0].anonymous ? "" : nodes[0].var,
                           nodes[0].constraint);
  for (int i = 0; i < num_edges; ++i) {
    text += edges[i].arrow_forward ? " ->[" : " <-[";
    for (size_t k = 0; k < edges[i].ops.size(); ++k) {
      if (k > 0) text += " || ";
      text += OpTypeToString(edges[i].ops[k]);
    }
    if (edges[i].within > 0) {
      text += ", " + std::to_string(edges[i].within / kMinute) + " min";
    }
    text += "] ";
    const GenDepNode& target = nodes[i + 1];
    text += RenderEntityDecl(target.type,
                             target.anonymous ? "" : target.var,
                             target.constraint);
  }
  text += " return ";
  if (gen.oracle.distinct) text += "distinct ";
  for (size_t i = 0; i < gen.oracle.returns.size(); ++i) {
    if (i > 0) text += ", ";
    text += gen.oracle.returns[i].first;
  }
  text += RenderOrderAndLimit(gen.oracle);
  gen.text = std::move(text);
  return gen;
}

// --- the brute-force oracle --------------------------------------------------

/// Compiled-per-query constraint matchers (LikeMatcher is the one component
/// shared with the engine: it defines the language's LIKE semantics).
struct OracleConstraint {
  std::optional<LikeMatcher> like;
  std::optional<LikeMatcher> user_eq;
  std::optional<uint16_t> dst_port;

  explicit OracleConstraint(const GenConstraint& c) {
    if (c.like.has_value()) like.emplace(*c.like);
    if (c.user_eq.has_value()) user_eq.emplace(*c.user_eq);
    dst_port = c.dst_port;
  }
};

bool OracleBefore(const GenEvent& a, const GenEvent& b, Duration within) {
  if (a.end > b.start) return false;
  if (within > 0 && b.start - a.end > within) return false;
  return true;
}

/// One row per joined event tuple, exactly like the engine's backtracking
/// join; distinct dedupes rendered rows.
ResultTable OracleExecute(const World& world, const GenQuery& q,
                          size_t* out_rows_bound) {
  const size_t num_patterns = q.patterns.size();
  std::vector<OracleConstraint> subj_cs, obj_cs;
  for (const GenPattern& p : q.patterns) {
    subj_cs.emplace_back(p.subj);
    obj_cs.emplace_back(p.obj);
  }

  auto subject_ok = [&](const GenEvent& e, size_t pi) {
    const GenProc& proc = world.procs[e.subject];
    const OracleConstraint& c = subj_cs[pi];
    if (c.like.has_value() && !c.like->Matches(proc.exe)) return false;
    if (c.user_eq.has_value() && !c.user_eq->Matches(proc.user)) return false;
    return true;
  };
  auto object_ok = [&](const GenEvent& e, size_t pi) {
    const OracleConstraint& c = obj_cs[pi];
    switch (e.otype) {
      case EntityType::kFile:
        return !c.like.has_value() ||
               c.like->Matches(world.files[e.object].path);
      case EntityType::kNetwork: {
        const GenNet& n = world.nets[e.object];
        if (c.like.has_value() && !c.like->Matches(n.dst_ip)) return false;
        if (c.dst_port.has_value() && n.dst_port != *c.dst_port) return false;
        return true;
      }
      case EntityType::kProcess: {
        const GenProc& proc = world.procs[e.object];
        if (c.like.has_value() && !c.like->Matches(proc.exe)) return false;
        if (c.user_eq.has_value() && !c.user_eq->Matches(proc.user)) {
          return false;
        }
        return true;
      }
    }
    return false;
  };

  // Per-pattern candidate events (raw linear scans).
  std::vector<std::vector<size_t>> cands(num_patterns);
  for (size_t k = 0; k < world.events.size(); ++k) {
    const GenEvent& e = world.events[k];
    if (q.window.has_value() && !(e.start >= q.window->start &&
                                  e.start < q.window->end)) {
      continue;
    }
    if (q.agent.has_value() && e.agent != *q.agent) continue;
    for (size_t pi = 0; pi < num_patterns; ++pi) {
      const GenPattern& p = q.patterns[pi];
      if (e.otype != p.otype) continue;
      if (std::find(p.ops.begin(), p.ops.end(), e.op) == p.ops.end()) {
        continue;
      }
      if (!subject_ok(e, pi) || !object_ok(e, pi)) continue;
      if (p.subj_var == p.obj_var &&
          (p.otype != EntityType::kProcess || e.subject != e.object)) {
        continue;
      }
      cands[pi].push_back(k);
    }
  }
  size_t bound = 1;
  for (const auto& c : cands) {
    bound = c.empty() ? 0 : std::min<size_t>(bound * c.size(), SIZE_MAX / 2);
  }
  *out_rows_bound = bound;

  ResultTable table;
  for (const auto& [var, attr] : q.returns) {
    table.columns.push_back(attr.empty() ? var : var + "." + attr);
  }

  // Nested-loop join over the candidate lists with entity-variable
  // consistency and temporal relation checks.
  struct Binding {
    EntityType type;
    size_t index;
  };
  std::map<std::string, Binding> bindings;
  std::vector<size_t> assignment(num_patterns, 0);
  std::set<std::vector<std::string>> distinct_rows;

  auto project = [&]() {
    std::vector<std::string> rendered;
    std::vector<Value> row;
    for (const auto& [var, attr] : q.returns) {
      Value value = int64_t{0};
      bool is_event = false;
      for (size_t pi = 0; pi < num_patterns; ++pi) {
        if (q.patterns[pi].event_var == var) {
          value = static_cast<int64_t>(
              world.events[assignment[pi]].amount);  // attr == "amount"
          is_event = true;
          break;
        }
      }
      if (!is_event) {
        const Binding& b = bindings.at(var);
        switch (b.type) {
          case EntityType::kProcess:
            value = world.procs[b.index].exe;
            break;
          case EntityType::kFile:
            value = world.files[b.index].path;
            break;
          case EntityType::kNetwork:
            value = world.nets[b.index].dst_ip;
            break;
        }
      }
      rendered.push_back(ValueToString(value));
      row.push_back(std::move(value));
    }
    if (q.distinct && !distinct_rows.insert(rendered).second) return;
    table.rows.push_back(std::move(row));
  };

  auto join = [&](auto&& self, size_t pi) -> void {
    if (pi == num_patterns) {
      project();
      return;
    }
    const GenPattern& p = q.patterns[pi];
    for (size_t k : cands[pi]) {
      const GenEvent& e = world.events[k];
      assignment[pi] = k;

      bool ok = true;
      for (const GenTemporal& rel : q.rels) {
        size_t other = rel.left == pi   ? rel.right
                       : rel.right == pi ? rel.left
                                         : num_patterns;
        if (other >= pi) continue;  // other pattern not yet assigned
        const GenEvent& a = world.events[assignment[rel.left]];
        const GenEvent& b = world.events[assignment[rel.right]];
        if (!OracleBefore(a, b, rel.within)) {
          ok = false;
          break;
        }
      }

      std::vector<std::string> bound_here;
      auto bind = [&](const std::string& var, EntityType type,
                      size_t index) {
        if (!ok) return;
        auto it = bindings.find(var);
        if (it == bindings.end()) {
          bindings.emplace(var, Binding{type, index});
          bound_here.push_back(var);
        } else if (it->second.type != type || it->second.index != index) {
          ok = false;
        }
      };
      bind(p.subj_var, EntityType::kProcess, e.subject);
      bind(p.obj_var, e.otype, e.object);

      if (ok) self(self, pi + 1);
      for (const std::string& var : bound_here) bindings.erase(var);
    }
  };
  join(join, 0);
  return table;
}

// --- result comparison -------------------------------------------------------

/// Cell comparison replicating the engine's ORDER BY semantics (numbers
/// numerically, strings lexicographically, mixed treats strings as 0).
int CompareCells(const Value& a, const Value& b) {
  bool a_str = std::holds_alternative<std::string>(a);
  bool b_str = std::holds_alternative<std::string>(b);
  if (a_str && b_str) {
    return std::get<std::string>(a).compare(std::get<std::string>(b));
  }
  auto num = [](const Value& v) {
    if (const auto* i = std::get_if<int64_t>(&v)) {
      return static_cast<double>(*i);
    }
    if (const auto* d = std::get_if<double>(&v)) return *d;
    return 0.0;
  };
  double l = num(a), r = num(b);
  return l < r ? -1 : (l > r ? 1 : 0);
}

std::string RenderRow(const std::vector<Value>& row) {
  std::string out;
  for (const Value& value : row) {
    out += ValueToString(value);
    out += '\x1f';
  }
  return out;
}

/// Compares the engine's table with the oracle's. Unordered queries demand
/// multiset equality. Ordered queries are verified tie-aware: the engine's
/// key-tuple sequence must equal the comparator's prescribed sequence
/// (truncated under LIMIT), and every returned row must exist in the
/// oracle's result multiset — so ties may permute and LIMIT may keep any
/// tied prefix, but nothing else. Returns an empty string on agreement.
std::string CompareResult(ResultTable engine, ResultTable oracle,
                          const GenQuery& q) {
  if (engine.columns != oracle.columns) return "column headers differ";
  if (q.order.empty()) {
    engine.SortRows();
    oracle.SortRows();
    if (!(engine == oracle)) {
      return "rows differ: engine=" + std::to_string(engine.num_rows()) +
             " oracle=" + std::to_string(oracle.num_rows());
    }
    return "";
  }

  // Ordered: columns of the keys are the return indexes themselves.
  const auto& keys = q.order;
  std::stable_sort(
      oracle.rows.begin(), oracle.rows.end(),
      [&](const std::vector<Value>& a, const std::vector<Value>& b) {
        for (const auto& [column, desc] : keys) {
          int cmp = CompareCells(a[column], b[column]);
          if (cmp != 0) return desc ? cmp > 0 : cmp < 0;
        }
        return false;
      });
  size_t expect = oracle.rows.size();
  if (q.limit.has_value()) {
    expect = std::min(expect, static_cast<size_t>(*q.limit));
  }
  if (engine.rows.size() != expect) {
    return "row count: engine=" + std::to_string(engine.num_rows()) +
           " expected=" + std::to_string(expect) + " (oracle total " +
           std::to_string(oracle.num_rows()) + ")";
  }
  for (size_t i = 0; i < expect; ++i) {
    for (const auto& [column, desc] : keys) {
      (void)desc;
      if (CompareCells(engine.rows[i][column], oracle.rows[i][column]) != 0) {
        return "order-key sequence diverges at row " + std::to_string(i);
      }
    }
  }
  std::multiset<std::string> pool;
  for (const auto& row : oracle.rows) pool.insert(RenderRow(row));
  for (const auto& row : engine.rows) {
    auto it = pool.find(RenderRow(row));
    if (it == pool.end()) return "engine row not in oracle result";
    pool.erase(it);
  }
  return "";
}

// --- the test ----------------------------------------------------------------

std::vector<std::pair<std::string, EngineOptions>> AllOptionCombos() {
  std::vector<std::pair<std::string, EngineOptions>> out;
  for (int mask = 0; mask < 16; ++mask) {
    EngineOptions options;
    options.enable_reordering = (mask & 1) != 0;
    options.enable_parallelism = (mask & 2) != 0;
    options.num_threads = 2;
    options.enable_semi_join = (mask & 4) != 0;
    options.enable_temporal_pruning = (mask & 8) != 0;
    std::string name = std::string("reorder=") + ((mask & 1) ? "1" : "0") +
                       " parallel=" + ((mask & 2) ? "1" : "0") +
                       " semijoin=" + ((mask & 4) ? "1" : "0") +
                       " temporal=" + ((mask & 8) ? "1" : "0");
    out.emplace_back(std::move(name), options);
  }
  return out;
}

TEST(OracleDiffTest, EngineMatchesBruteForceOracle) {
  uint64_t seed = 20180510;
  if (const char* env = std::getenv("AIQL_ORACLE_SEED")) {
    seed = static_cast<uint64_t>(std::strtoull(env, nullptr, 10));
  }
  World world = GenerateWorld(seed, 1500);
  AuditDatabase db = BuildDatabase(world);

  std::string snap_path = "/tmp/aiql_oracle_diff_test.snap";
  ASSERT_TRUE(SaveSnapshot(db, snap_path).ok());
  auto store = SnapshotStore::Open(snap_path);
  ASSERT_TRUE(store.ok()) << store.status().ToString();

  auto combos = AllOptionCombos();
  std::vector<std::unique_ptr<AiqlEngine>> db_engines, snap_engines;
  for (const auto& [name, options] : combos) {
    db_engines.push_back(std::make_unique<AiqlEngine>(&db, options));
    snap_engines.push_back(
        std::make_unique<AiqlEngine>(store->get(), options));
  }

  // Sharded axis: the same records routed into 1/2/4/8-way shard maps, each
  // once database-backed and once snapshot-backed (a one-shard map runs
  // its store's executor directly, the others scatter/gather).
  std::vector<EventRecord> records = WorldRecords(world);
  std::vector<std::unique_ptr<ShardedWorld>> sharded_worlds;
  for (size_t num_shards : {1u, 2u, 4u, 8u}) {
    for (bool snapshot_backed : {false, true}) {
      auto sharded = BuildShardedWorld(records, num_shards, snapshot_backed);
      ASSERT_NE(sharded, nullptr);
      sharded_worlds.push_back(std::move(sharded));
    }
  }

  // Tiered axis: the same records fully demoted into retention directories.
  // One store keeps an unlimited cold cache and runs merge compaction (so
  // merged partitions face the oracle); the other gets a deliberately tiny
  // byte budget, so every query evicts and re-materializes cold partitions.
  // Tiny-budget and unlimited must both match the oracle on every query.
  auto build_tiered = [&](const std::string& dir, size_t budget,
                          size_t min_merge) -> std::unique_ptr<TieredStore> {
    RetentionOptions retention;
    retention.dir = dir;
    retention.hot_buckets = -1;  // demote everything
    retention.memory_budget_bytes = budget;
    retention.compact_min_partitions = min_merge;
    auto store = TieredStore::Create(OracleStorage(), retention);
    if (!store.ok()) {
      ADD_FAILURE() << store.status().ToString();
      return nullptr;
    }
    EXPECT_TRUE((*store)->AppendBatch(records).ok());
    EXPECT_TRUE((*store)->Seal().ok());
    EXPECT_TRUE((*store)->CompactOnce().ok());
    EXPECT_EQ((*store)->stats().hot_partitions, 0u);
    return std::move(*store);
  };
  std::string tiered_dirs[] = {"/tmp/aiql_oracle_tiered_unlimited_" +
                                   std::to_string(getpid()),
                               "/tmp/aiql_oracle_tiered_tiny_" +
                                   std::to_string(getpid())};
  auto tiered_unlimited =
      build_tiered(tiered_dirs[0], /*budget=*/0, /*min_merge=*/2);
  auto tiered_tiny =
      build_tiered(tiered_dirs[1], /*budget=*/4096, /*min_merge=*/0);
  ASSERT_NE(tiered_unlimited, nullptr);
  ASSERT_NE(tiered_tiny, nullptr);
  EXPECT_GT(tiered_unlimited->stats().merges, 0u);
  std::vector<std::unique_ptr<AiqlEngine>> tiered_engines;
  tiered_engines.push_back(
      std::make_unique<AiqlEngine>(tiered_unlimited.get()));
  tiered_engines.push_back(std::make_unique<AiqlEngine>(tiered_tiny.get()));
  const char* tiered_names[] = {"tiered unlimited", "tiered tiny-budget"};

  int target = 200;
  if (const char* env = std::getenv("AIQL_ORACLE_QUERIES")) {
    target = std::max(1, std::atoi(env));
  }

  Rng rng(seed * 7919);
  int executed = 0;
  int attempts = 0;
  int mismatches = 0;
  int dependency_cases = 0;
  int ordered_cases = 0;
  int sharded_executions = 0;
  while (executed < target && attempts < target * 20) {
    ++attempts;
    GenCase gen;
    bool is_dependency = rng.Chance(0.35);
    if (is_dependency) {
      gen = GenerateDependencyCase(&rng, world);
    } else {
      gen.oracle = GenerateQuery(&rng, world);
      gen.text = RenderQuery(gen.oracle);
    }
    const GenQuery& q = gen.oracle;
    size_t rows_bound = 0;
    ResultTable expected = OracleExecute(world, q, &rows_bound);
    // Skip pathological cross products: they only stress row copying.
    if (rows_bound > 100000 || expected.rows.size() > 20000) continue;
    // Count coverage only for cases that actually execute below.
    if (is_dependency) ++dependency_cases;
    if (!q.order.empty()) ++ordered_cases;

    for (size_t c = 0; c < combos.size(); ++c) {
      for (AiqlEngine* engine : {db_engines[c].get(), snap_engines[c].get()}) {
        const char* source = engine == db_engines[c].get() ? "db" : "snapshot";
        auto result = engine->Execute(gen.text);
        ASSERT_TRUE(result.ok())
            << "[" << combos[c].first << " via " << source << "] failed on: "
            << gen.text << "\n  " << result.status().ToString();
        std::string failure = CompareResult(result->table, expected, q);
        if (!failure.empty()) {
          ++mismatches;
          ADD_FAILURE() << "[" << combos[c].first << " via " << source
                        << "] MISMATCH on: " << gen.text << "\n  "
                        << failure;
        }
      }
    }

    // Sharded axis: every shard configuration, with the options combination
    // rotating per case so all 16 combos meet the scatter/gather paths. The
    // oracle table doubles as the single-db reference the satellite demands
    // (the loop above just proved every single-db engine agrees with it).
    const auto& [shard_combo_name, shard_options] =
        combos[executed % combos.size()];
    for (const auto& sharded : sharded_worlds) {
      AiqlEngine engine(&sharded->map, shard_options);
      auto result = engine.Execute(gen.text);
      ASSERT_TRUE(result.ok())
          << "[" << shard_combo_name << " via " << sharded->name
          << "] failed on: " << gen.text << "\n  "
          << result.status().ToString();
      std::string failure = CompareResult(result->table, expected, q);
      if (!failure.empty()) {
        ++mismatches;
        ADD_FAILURE() << "[" << shard_combo_name << " via " << sharded->name
                      << "] MISMATCH on: " << gen.text << "\n  " << failure;
      }
      ++sharded_executions;
    }

    // Tiered axis: the same query against the all-cold stores.
    for (size_t t = 0; t < tiered_engines.size(); ++t) {
      auto result = tiered_engines[t]->Execute(gen.text);
      ASSERT_TRUE(result.ok())
          << "[" << tiered_names[t] << "] failed on: " << gen.text << "\n  "
          << result.status().ToString();
      std::string failure = CompareResult(result->table, expected, q);
      if (!failure.empty()) {
        ++mismatches;
        ADD_FAILURE() << "[" << tiered_names[t] << "] MISMATCH on: "
                      << gen.text << "\n  " << failure;
      }
    }
    ++executed;
  }
  // The widened generator must actually exercise the new surfaces.
  EXPECT_GT(dependency_cases, target / 8);
  EXPECT_GT(ordered_cases, target / 8);
  std::remove(snap_path.c_str());
  EXPECT_EQ(mismatches, 0);
  ASSERT_GE(executed, std::min(target, 50))
      << "query generator rejected too many candidates";

  // Every query ran against every shard configuration too (the acceptance
  // floor is 500 sharded executions with zero mismatches).
  EXPECT_GE(sharded_executions, std::min(target, 100) * 5);

  // Every query ran against the lazy store as well; by now it should have
  // materialized partitions on demand.
  EXPECT_GT((*store)->loaded_partitions(), 0u);

  // The tiny-budget tiered store must have been under real cache pressure —
  // identical results above were produced through eviction + re-reads.
  RetentionStats tiny_stats = tiered_tiny->stats();
  EXPECT_GT(tiny_stats.cache.evictions, 0u);
  EXPECT_GT(tiny_stats.reopens, 0u);
  tiered_engines.clear();
  tiered_unlimited.reset();
  tiered_tiny.reset();
  for (const std::string& dir : tiered_dirs) {
    std::remove((dir + "/DATA").c_str());
    for (uint64_t seq = 0; seq <= 64; ++seq) {
      std::remove((dir + "/FOOTER." + std::to_string(seq)).c_str());
    }
    rmdir(dir.c_str());
  }
}

// A handcrafted cross-shard join: the two patterns' events live on
// different shards and only the shared process variable binds them — the
// scatter/gather executor must exchange the binding across the shard
// boundary and return exactly one row under every options combination.
TEST(OracleDiffTest, CrossShardJoinDeterministic) {
  auto rec = [](AgentId agent, OpType op, Timestamp start, ProcessRef subject,
                ObjectRef object) {
    EventRecord record;
    record.agent_id = agent;
    record.op = op;
    record.start_ts = start;
    record.end_ts = start + kSecond;
    record.amount = 1;
    record.subject = std::move(subject);
    record.object = std::move(object);
    return record;
  };
  ProcessRef alpha{1, 100, "alpha.exe", "root"};
  ProcessRef beta{2, 200, "beta.exe", "root"};
  std::vector<EventRecord> records;
  // The matching pair: alpha writes a file on agent 1, then the SAME
  // process is observed connecting on agent 2.
  records.push_back(rec(1, OpType::kWrite, T0() + 10 * kSecond, alpha,
                        FileRef{1, "/data/x"}));
  records.push_back(
      rec(2, OpType::kConnect, T0() + 60 * kSecond, alpha,
          NetworkRef{2, "10.0.0.2", "8.8.8.8", 40000, 443, "tcp"}));
  // Decoys: a different process connecting, and an alpha write AFTER the
  // connect (fails the temporal relation).
  records.push_back(
      rec(2, OpType::kConnect, T0() + 70 * kSecond, beta,
          NetworkRef{2, "10.0.0.2", "9.9.9.9", 40001, 443, "tcp"}));
  records.push_back(rec(1, OpType::kWrite, T0() + 120 * kSecond, alpha,
                        FileRef{1, "/data/late"}));

  auto ranges = EvenAgentRanges(2, 1, 2);
  auto routed = RouteRecordsByAgent(ranges, records);
  ASSERT_TRUE(routed.ok()) << routed.status().ToString();
  std::vector<std::unique_ptr<AuditDatabase>> dbs;
  ShardMap map;
  for (size_t s = 0; s < 2; ++s) {
    auto db = std::make_unique<AuditDatabase>(OracleStorage());
    for (const EventRecord& record : (*routed)[s]) {
      ASSERT_TRUE(db->Append(record).ok());
    }
    ASSERT_TRUE(db->Seal().ok());
    dbs.push_back(std::move(db));
    ASSERT_TRUE(map.AddShard(dbs.back().get(), ranges[s]).ok());
  }

  const std::string query =
      "proc p1[\"alpha.exe\"] write file f1[\"/data/x\"] as e1 "
      "proc p1 connect ip n1 as e2 "
      "with e1 before e2 "
      "return p1, f1, n1";
  for (const auto& [name, options] : AllOptionCombos()) {
    AiqlEngine engine(&map, options);
    auto result = engine.Execute(query);
    ASSERT_TRUE(result.ok())
        << "[" << name << "] " << result.status().ToString();
    ASSERT_EQ(result->table.num_rows(), 1u) << "[" << name << "]";
    EXPECT_EQ(ValueToString(result->table.rows[0][0]), "alpha.exe");
    EXPECT_EQ(ValueToString(result->table.rows[0][1]), "/data/x");
    EXPECT_EQ(ValueToString(result->table.rows[0][2]), "8.8.8.8");
  }
}

// --- chaos axis --------------------------------------------------------------

/// True when `sub`'s rows (as a multiset) are contained in `super`'s.
bool RowsAreSubset(const ResultTable& sub,
                   const std::multiset<std::string>& super) {
  std::multiset<std::string> pool = super;
  for (const auto& row : sub.rows) {
    auto it = pool.find(RenderRow(row));
    if (it == pool.end()) return false;
    pool.erase(it);
  }
  return true;
}

// A sampled query subset reruns with random failpoints armed. The contract
// under injected faults: strict mode either heals through retries (result
// byte-identical to the oracle) or fails cleanly with the injected /
// kUnavailable code — never silently wrong rows; partial mode returns a
// subset of the oracle rows with per-shard annotations that account for
// every dropped shard; and with failpoints cleared the same query matches
// the oracle byte-identically again.
TEST(OracleDiffTest, ChaosFailpointAxisMatchesOracle) {
  Failpoint::ClearAll();
  uint64_t seed = 20180510;
  if (const char* env = std::getenv("AIQL_ORACLE_SEED")) {
    seed = static_cast<uint64_t>(std::strtoull(env, nullptr, 10));
  }
  World world = GenerateWorld(seed, 1200);
  std::vector<EventRecord> records = WorldRecords(world);
  auto sharded = BuildShardedWorld(records, 4, /*snapshot_backed=*/true);
  ASSERT_NE(sharded, nullptr);

  int target = 20;
  if (const char* env = std::getenv("AIQL_ORACLE_CHAOS_QUERIES")) {
    target = std::max(1, std::atoi(env));
  }

  EngineOptions strict_options;
  strict_options.shard_retry_backoff = std::chrono::milliseconds(1);
  EngineOptions partial_options = strict_options;
  partial_options.default_limits.shard_policy = ShardPolicy::kPartial;

  Rng rng(seed * 104729);
  int executed = 0;
  int attempts = 0;
  int degraded_runs = 0;
  while (executed < target && attempts < target * 20) {
    ++attempts;
    GenQuery q = GenerateQuery(&rng, world);
    // Subset-vs-oracle comparison is only sound un-limited: a top-k of a
    // shard subset need not be a subset of the global top-k.
    q.order.clear();
    q.limit.reset();
    std::string text = RenderQuery(q);
    size_t rows_bound = 0;
    ResultTable expected = OracleExecute(world, q, &rows_bound);
    if (rows_bound > 100000 || expected.rows.size() > 20000) continue;
    std::multiset<std::string> oracle_pool;
    for (const auto& row : expected.rows) oracle_pool.insert(RenderRow(row));

    // Weighted toward deterministic shard faults so the partial-mode
    // degradation path is reliably exercised; the probabilistic / healing
    // faults cover retry recovery and checksum-caught corruption.
    std::string fault;
    switch (rng.Uniform(10)) {
      case 0:
      case 1:
      case 2:
      case 3:
        fault = "shard.scatter=error(IOError)@arg" +
                std::to_string(rng.Uniform(4));
        break;
      case 4:
      case 5:
        fault = "shard.scatter=error(Unavailable)@p0.4@seed" +
                std::to_string(rng.Next());
        break;
      case 6:
        fault = "snapshot.read.partition=error(IOError)@p0.25@seed" +
                std::to_string(rng.Next());
        break;
      case 7:
        fault = "snapshot.read.partition=corrupt@nth1";
        break;
      default:
        fault = "shard.scatter=latency(2000)@arg" +
                std::to_string(rng.Uniform(4));
        break;
    }
    auto clean_failure_code = [](StatusCode code) {
      return code == StatusCode::kUnavailable ||
             code == StatusCode::kIOError || code == StatusCode::kCorruption;
    };

    // Strict under fault: exact match or a clean failure.
    ASSERT_TRUE(Failpoint::Configure(fault).ok()) << fault;
    {
      AiqlEngine engine(&sharded->map, strict_options);
      auto result = engine.Execute(text);
      if (result.ok()) {
        EXPECT_EQ(CompareResult(result->table, expected, q), "")
            << "[strict chaos '" << fault << "'] on: " << text;
      } else {
        EXPECT_TRUE(clean_failure_code(result.status().code()))
            << "[strict chaos '" << fault << "'] dirty failure on: " << text
            << "\n  " << result.status().ToString();
      }
    }
    Failpoint::ClearAll();

    // Partial under fault (re-armed so per-site hit counters restart):
    // subset of the oracle rows with accounting annotations, or a clean
    // all-shards-failed error.
    ASSERT_TRUE(Failpoint::Configure(fault).ok()) << fault;
    {
      AiqlEngine engine(&sharded->map, partial_options);
      auto result = engine.Execute(text);
      if (result.ok()) {
        if (result->degraded.partial) {
          ++degraded_runs;
          EXPECT_TRUE(RowsAreSubset(result->table, oracle_pool))
              << "[partial chaos '" << fault
              << "'] rows not a subset of oracle on: " << text;
          int dropped = 0;
          for (const ShardExecStatus& st : result->degraded.shard_status) {
            if (st.dropped) ++dropped;
          }
          EXPECT_GE(dropped, 1);
          EXPECT_EQ(dropped, result->degraded.shards_failed +
                                 result->degraded.shards_timed_out)
              << "[partial chaos '" << fault << "'] annotation mismatch";
        } else {
          EXPECT_EQ(CompareResult(result->table, expected, q), "")
              << "[partial chaos '" << fault << "' not degraded] on: "
              << text;
        }
      } else {
        EXPECT_TRUE(clean_failure_code(result.status().code()))
            << "[partial chaos '" << fault << "'] dirty failure on: " << text
            << "\n  " << result.status().ToString();
      }
    }
    Failpoint::ClearAll();

    // Fault cleared: byte-identical to the oracle again.
    {
      AiqlEngine engine(&sharded->map, strict_options);
      auto result = engine.Execute(text);
      ASSERT_TRUE(result.ok())
          << "[cleared '" << fault << "'] " << result.status().ToString();
      EXPECT_EQ(CompareResult(result->table, expected, q), "")
          << "[cleared '" << fault << "'] on: " << text;
    }
    ++executed;
  }
  ASSERT_GE(executed, std::min(target, 10))
      << "chaos query generator rejected too many candidates";
  // The catalog skews toward real degradation; make sure the partial path
  // actually exercised shard drops rather than healing everything.
  EXPECT_GE(degraded_runs, executed / 4);
}

}  // namespace
}  // namespace aiql
