#include "engine/projector.h"

#include "query/attributes.h"

namespace aiql {

template <typename EventAt>
Value Projector::ResolveWith(const AttrRefAst& ref,
                             const EventAt& event_at) const {
  auto event_it = analyzed_.event_index.find(ref.var);
  if (event_it != analyzed_.event_index.end()) {
    const Event event = event_at(event_it->second);
    return EventAttr(event, ref.attr.empty() ? "amount" : ref.attr);
  }
  const auto& occurrences = analyzed_.entity_occurrences.at(ref.var);
  const VarOccurrence& occ = occurrences.front();
  const Event event = event_at(occ.pattern);
  EntityId id = occ.is_subject ? event.subject : event.object;
  EntityType type =
      occ.is_subject ? EntityType::kProcess : event.object_type;
  return EntityAttr(type, id, ref.attr);
}

Value Projector::Resolve(const AttrRefAst& ref,
                         const std::vector<EventRef>& assignment) const {
  return ResolveWith(ref, [&](int p) { return assignment[p].Get(); });
}

Value Projector::Resolve(const AttrRefAst& ref,
                         const std::vector<const Event*>& assignment) const {
  return ResolveWith(ref, [&](int p) { return *assignment[p]; });
}

Value Projector::EventAttr(const Event& event, const std::string& attr) const {
  if (attr == "amount" || attr == "bytes") {
    return static_cast<int64_t>(event.amount);
  }
  if (attr == "start_time" || attr == "starttime" || attr == "start_ts") {
    return static_cast<int64_t>(event.start_ts);
  }
  if (attr == "end_time" || attr == "endtime" || attr == "end_ts") {
    return static_cast<int64_t>(event.end_ts);
  }
  if (attr == "agentid" || attr == "agent_id") {
    return static_cast<int64_t>(event.agent_id);
  }
  return std::string(OpTypeToString(event.op));  // "op"
}

Value Projector::EntityAttr(EntityType type, EntityId id,
                            const std::string& attr_in) const {
  std::string attr = attr_in.empty() ? DefaultEntityAttr(type) : attr_in;
  switch (type) {
    case EntityType::kProcess: {
      const ProcessEntity& p = store_.processes()[id];
      if (attr == "exe_name" || attr == "exename" || attr == "name" ||
          attr == "exe") {
        return std::string(store_.exe_names().Get(p.exe_name));
      }
      if (attr == "pid") return static_cast<int64_t>(p.pid);
      if (attr == "user" || attr == "username") {
        return std::string(store_.users().Get(p.user));
      }
      return static_cast<int64_t>(p.agent_id);
    }
    case EntityType::kFile: {
      const FileEntity& f = store_.files()[id];
      if (attr == "path" || attr == "name" || attr == "filename") {
        return std::string(store_.paths().Get(f.path));
      }
      return static_cast<int64_t>(f.agent_id);
    }
    case EntityType::kNetwork: {
      const NetworkEntity& n = store_.networks()[id];
      if (attr == "dst_ip" || attr == "dstip" || attr == "dip") {
        return std::string(store_.ips().Get(n.dst_ip));
      }
      if (attr == "src_ip" || attr == "srcip" || attr == "sip") {
        return std::string(store_.ips().Get(n.src_ip));
      }
      if (attr == "protocol" || attr == "proto") {
        return std::string(store_.protocols().Get(n.protocol));
      }
      if (attr == "dst_port" || attr == "dstport" || attr == "dport") {
        return static_cast<int64_t>(n.dst_port);
      }
      if (attr == "src_port" || attr == "srcport" || attr == "sport") {
        return static_cast<int64_t>(n.src_port);
      }
      return static_cast<int64_t>(n.agent_id);
    }
  }
  return int64_t{0};
}

bool CompareValues(const Value& left, CmpOp op, const Value& right) {
  auto as_double = [](const Value& v) -> double {
    if (const auto* i = std::get_if<int64_t>(&v)) {
      return static_cast<double>(*i);
    }
    if (const auto* d = std::get_if<double>(&v)) return *d;
    return 0;
  };
  bool both_strings = std::holds_alternative<std::string>(left) &&
                      std::holds_alternative<std::string>(right);
  int cmp;
  if (both_strings) {
    cmp = std::get<std::string>(left).compare(std::get<std::string>(right));
  } else {
    double l = as_double(left), r = as_double(right);
    cmp = l < r ? -1 : (l > r ? 1 : 0);
  }
  switch (op) {
    case CmpOp::kEq:
      return cmp == 0;
    case CmpOp::kNe:
      return cmp != 0;
    case CmpOp::kLt:
      return cmp < 0;
    case CmpOp::kLe:
      return cmp <= 0;
    case CmpOp::kGt:
      return cmp > 0;
    case CmpOp::kGe:
      return cmp >= 0;
    default:
      return false;
  }
}

bool TemporalHolds(Timestamp a_end, Timestamp b_start, Duration within) {
  if (a_end > b_start) return false;
  if (within > 0 && b_start - a_end > within) return false;
  return true;
}

}  // namespace aiql
