// Domain-specific data model for system monitoring data (paper §2.1).
//
// System entities are files, processes, and network connections. A system
// event is an interaction <subject, operation, object> (SVO) between two
// entities: the subject is always a process; the object is a file, a process,
// or a network connection. Events carry the host (agent) id and a time
// interval, giving the data its strong spatial and temporal properties.

#ifndef AIQL_STORAGE_DATA_MODEL_H_
#define AIQL_STORAGE_DATA_MODEL_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <variant>

#include "common/interner.h"
#include "common/status.h"
#include "common/time_utils.h"

namespace aiql {

/// Host identifier inside the enterprise (the paper's `agentid`).
using AgentId = uint32_t;

/// Dense per-type entity index inside an EntityStore.
using EntityId = uint32_t;
inline constexpr EntityId kInvalidEntityId = UINT32_MAX;

/// The three entity kinds of the SVO model.
enum class EntityType : uint8_t {
  kProcess = 0,
  kFile = 1,
  kNetwork = 2,
};
inline constexpr int kNumEntityTypes = 3;

const char* EntityTypeToString(EntityType type);

/// System-call level operations, grouped by the object they act on:
/// process events (start/end/connect), file events (read/write/execute/
/// delete/rename), network events (read/write/connect/accept).
enum class OpType : uint8_t {
  kStart = 0,    ///< subject spawns object process
  kEnd = 1,      ///< subject terminates object process
  kRead = 2,     ///< file or socket read
  kWrite = 3,    ///< file or socket write
  kExecute = 4,  ///< subject executes a file image
  kDelete = 5,   ///< file unlink
  kRename = 6,   ///< file rename
  kConnect = 7,  ///< outbound connection; object may be a remote process
                 ///< (cross-host session stitched by the collection agents)
  kAccept = 8,   ///< inbound connection accepted
};
inline constexpr int kNumOpTypes = 9;

const char* OpTypeToString(OpType op);

/// Parses an operation keyword ("read", "write", ...). Case-insensitive;
/// accepts the aliases exec=execute, fork=start, terminate=end.
Result<OpType> ParseOpType(std::string_view text);

/// Compact bitmask over OpType (AIQL's `read || write` disjunctions).
using OpMask = uint16_t;
inline constexpr OpMask OpBit(OpType op) {
  return static_cast<OpMask>(1u << static_cast<unsigned>(op));
}
inline constexpr bool OpMaskContains(OpMask mask, OpType op) {
  return (mask & OpBit(op)) != 0;
}
inline constexpr OpMask kAllOps = static_cast<OpMask>((1u << kNumOpTypes) - 1);

// ---------------------------------------------------------------------------
// Stored (interned) entity representations.
// ---------------------------------------------------------------------------

/// A process instance on one host. `exe_name` / `user` are ids into the
/// store's exe/user interners.
struct ProcessEntity {
  AgentId agent_id = 0;
  uint32_t pid = 0;
  StringId exe_name = kInvalidStringId;
  StringId user = kInvalidStringId;

  bool operator==(const ProcessEntity&) const = default;
};

/// A file identified by (host, absolute path).
struct FileEntity {
  AgentId agent_id = 0;
  StringId path = kInvalidStringId;

  bool operator==(const FileEntity&) const = default;
};

/// A network connection 5-tuple observed from `agent_id`.
struct NetworkEntity {
  AgentId agent_id = 0;
  StringId src_ip = kInvalidStringId;
  StringId dst_ip = kInvalidStringId;
  uint16_t src_port = 0;
  uint16_t dst_port = 0;
  StringId protocol = kInvalidStringId;

  bool operator==(const NetworkEntity&) const = default;
};

// ---------------------------------------------------------------------------
// Stored event representation (post-interning, fixed width).
// ---------------------------------------------------------------------------

/// One (possibly merge-deduplicated) system event.
struct Event {
  Timestamp start_ts = 0;
  Timestamp end_ts = 0;
  uint64_t amount = 0;       ///< bytes transferred (0 when N/A)
  EntityId subject = 0;      ///< process entity id
  EntityId object = 0;       ///< entity id within `object_type`'s store
  AgentId agent_id = 0;      ///< host the event was observed on
  uint32_t merge_count = 1;  ///< number of raw events merged into this one
  OpType op = OpType::kRead;
  EntityType object_type = EntityType::kFile;
};

// ---------------------------------------------------------------------------
// Raw ingestion records (pre-interning, carry attribute strings).
// ---------------------------------------------------------------------------

/// Reference to a process by attributes, as emitted by a collection agent.
struct ProcessRef {
  AgentId agent_id = 0;
  uint32_t pid = 0;
  std::string exe_name;
  std::string user;
};

/// Reference to a file by (host, path).
struct FileRef {
  AgentId agent_id = 0;
  std::string path;
};

/// Reference to a network connection by its observed 5-tuple.
struct NetworkRef {
  AgentId agent_id = 0;
  std::string src_ip;
  std::string dst_ip;
  uint16_t src_port = 0;
  uint16_t dst_port = 0;
  std::string protocol = "tcp";
};

/// Object side of a raw event.
using ObjectRef = std::variant<ProcessRef, FileRef, NetworkRef>;

/// EntityType of an ObjectRef alternative.
EntityType ObjectRefType(const ObjectRef& ref);

/// One raw event as produced by a data-collection agent (or the simulator
/// standing in for one).
struct EventRecord {
  AgentId agent_id = 0;  ///< observing host
  OpType op = OpType::kRead;
  Timestamp start_ts = 0;
  Timestamp end_ts = 0;  ///< defaults to start_ts when zero
  uint64_t amount = 0;
  ProcessRef subject;
  ObjectRef object;
};

}  // namespace aiql

#endif  // AIQL_STORAGE_DATA_MODEL_H_
