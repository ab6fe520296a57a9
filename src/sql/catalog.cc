#include "sql/catalog.h"

#include <algorithm>

namespace aiql {

namespace {

std::string StringOf(const StringInterner& pool, StringId id) {
  return std::string(pool.Get(id));
}

const std::vector<std::string> kProcessColumns = {"id", "agentid", "pid",
                                                  "exe_name", "username"};
const std::vector<std::string> kFileColumns = {"id", "agentid", "path"};
const std::vector<std::string> kNetworkColumns = {
    "id", "agentid", "src_ip", "src_port", "dst_ip", "dst_port", "protocol"};
const std::vector<std::string> kEventColumns = {
    "id",        "agentid",  "subject_id", "op",    "object_type",
    "object_id", "start_ts", "end_ts",     "amount"};
const std::vector<std::string> kAuditLogColumns = {
    "agentid",     "op",          "start_ts",       "end_ts",
    "amount",      "subject_pid", "subject_exe",    "subject_user",
    "object_type", "object_agentid", "object_pid",  "object_exe",
    "object_user", "file_path",   "src_ip",         "src_port",
    "dst_ip",      "dst_port",    "protocol"};

}  // namespace

Result<std::vector<std::string>> OptimizedCatalog::GetSchema(
    const std::string& table) const {
  if (table == "process") return kProcessColumns;
  if (table == "file") return kFileColumns;
  if (table == "network") return kNetworkColumns;
  if (table == "events") return kEventColumns;
  return Status::NotFound("unknown table '" + table + "'");
}

Status OptimizedCatalog::Scan(
    const std::string& table, const ScanHints& hints,
    const std::function<void(std::vector<SqlValue>&&)>& fn) const {
  // Every table reads through one view: it holds the store's state lock,
  // so a writer cannot intern entities (growing the tables) mid-scan.
  ReadView view = db_->OpenReadView();
  const EntityStore& es = view.entities();
  if (table == "process") {
    for (EntityId id = 0; id < es.processes().size(); ++id) {
      const ProcessEntity& p = es.processes()[id];
      fn({SqlValue(static_cast<int64_t>(id)),
          SqlValue(static_cast<int64_t>(p.agent_id)),
          SqlValue(static_cast<int64_t>(p.pid)),
          SqlValue(StringOf(es.exe_names(), p.exe_name)),
          SqlValue(StringOf(es.users(), p.user))});
    }
    return Status::OK();
  }
  if (table == "file") {
    for (EntityId id = 0; id < es.files().size(); ++id) {
      const FileEntity& f = es.files()[id];
      fn({SqlValue(static_cast<int64_t>(id)),
          SqlValue(static_cast<int64_t>(f.agent_id)),
          SqlValue(StringOf(es.paths(), f.path))});
    }
    return Status::OK();
  }
  if (table == "network") {
    for (EntityId id = 0; id < es.networks().size(); ++id) {
      const NetworkEntity& n = es.networks()[id];
      fn({SqlValue(static_cast<int64_t>(id)),
          SqlValue(static_cast<int64_t>(n.agent_id)),
          SqlValue(StringOf(es.ips(), n.src_ip)),
          SqlValue(static_cast<int64_t>(n.src_port)),
          SqlValue(StringOf(es.ips(), n.dst_ip)),
          SqlValue(static_cast<int64_t>(n.dst_port)),
          SqlValue(StringOf(es.protocols(), n.protocol))});
    }
    return Status::OK();
  }
  if (table == "events") {
    // Partition pruning from hints (PostgreSQL constraint exclusion).
    AIQL_ASSIGN_OR_RETURN(
        auto partitions,
        view.SelectPartitions(hints.time, hints.agents, kAllOps));
    int64_t row_id = 0;
    for (const auto& [key, partition] : partitions) {
      for (size_t i = 0; i < partition->size(); ++i) {
        const Event e = partition->Row(i);
        fn({SqlValue(row_id++),
            SqlValue(static_cast<int64_t>(e.agent_id)),
            SqlValue(static_cast<int64_t>(e.subject)),
            SqlValue(std::string(OpTypeToString(e.op))),
            SqlValue(std::string(EntityTypeToString(e.object_type))),
            SqlValue(static_cast<int64_t>(e.object)),
            SqlValue(e.start_ts), SqlValue(e.end_ts),
            SqlValue(static_cast<int64_t>(e.amount))});
      }
    }
    return Status::OK();
  }
  return Status::NotFound("unknown table '" + table + "'");
}

FlatCatalog::FlatCatalog(const AuditDatabase* db) : db_(db) {
  num_rows_ = db->OpenReadView().stats().total_events;
}

Result<std::vector<std::string>> FlatCatalog::GetSchema(
    const std::string& table) const {
  if (table == "audit_log") return kAuditLogColumns;
  return Status::NotFound("unknown table '" + table +
                          "' (flat storage only has audit_log)");
}

Status FlatCatalog::Scan(
    const std::string& table, const ScanHints& hints,
    const std::function<void(std::vector<SqlValue>&&)>& fn) const {
  // No pruning: the hints are ignored and every event is read, the cost of
  // a raw log table without the optimized storage.
  (void)hints;
  if (table != "audit_log") {
    return Status::NotFound("unknown table '" + table + "'");
  }
  ReadView view = db_->OpenReadView();
  const EntityStore& es = view.entities();
  for (const auto& [key, partition] : view.partitions()) {
    for (size_t i = 0; i < partition->size(); ++i) {
      const Event e = partition->Row(i);
      const ProcessEntity& subj = es.processes()[e.subject];
      std::vector<SqlValue> row(kAuditLogColumns.size());
      row[0] = static_cast<int64_t>(e.agent_id);
      row[1] = std::string(OpTypeToString(e.op));
      row[2] = e.start_ts;
      row[3] = e.end_ts;
      row[4] = static_cast<int64_t>(e.amount);
      row[5] = static_cast<int64_t>(subj.pid);
      row[6] = StringOf(es.exe_names(), subj.exe_name);
      row[7] = StringOf(es.users(), subj.user);
      row[8] = std::string(EntityTypeToString(e.object_type));
      switch (e.object_type) {
        case EntityType::kProcess: {
          const ProcessEntity& obj = es.processes()[e.object];
          row[9] = static_cast<int64_t>(obj.agent_id);
          row[10] = static_cast<int64_t>(obj.pid);
          row[11] = StringOf(es.exe_names(), obj.exe_name);
          row[12] = StringOf(es.users(), obj.user);
          break;
        }
        case EntityType::kFile: {
          const FileEntity& obj = es.files()[e.object];
          row[9] = static_cast<int64_t>(obj.agent_id);
          row[13] = StringOf(es.paths(), obj.path);
          break;
        }
        case EntityType::kNetwork: {
          const NetworkEntity& obj = es.networks()[e.object];
          row[9] = static_cast<int64_t>(obj.agent_id);
          row[14] = StringOf(es.ips(), obj.src_ip);
          row[15] = static_cast<int64_t>(obj.src_port);
          row[16] = StringOf(es.ips(), obj.dst_ip);
          row[17] = static_cast<int64_t>(obj.dst_port);
          row[18] = StringOf(es.protocols(), obj.protocol);
          break;
        }
      }
      fn(std::move(row));
    }
  }
  return Status::OK();
}

}  // namespace aiql
