#include "storage/log_format.h"

#include <charconv>
#include <type_traits>
#include <cstdio>
#include <fstream>

#include "common/string_utils.h"

namespace aiql {

namespace {

void EscapeTo(std::string_view text, std::string* out) {
  for (char c : text) {
    switch (c) {
      case '\\':
        *out += "\\\\";
        break;
      case '\t':
        *out += "\\t";
        break;
      case '\n':
        *out += "\\n";
        break;
      default:
        *out += c;
    }
  }
}

std::string Unescape(std::string_view text) {
  std::string out;
  out.reserve(text.size());
  for (size_t i = 0; i < text.size(); ++i) {
    if (text[i] == '\\' && i + 1 < text.size()) {
      char next = text[++i];
      out += next == 't' ? '\t' : next == 'n' ? '\n' : next;
    } else {
      out += text[i];
    }
  }
  return out;
}

// Splits on raw tabs (escapes keep payload tabs out of the raw stream).
std::vector<std::string_view> SplitFields(std::string_view line) {
  return SplitString(line, '\t');
}

/// Parses a whole field as integer type T. A value T cannot hold (too large,
/// or negative for an unsigned T) is rejected, never narrowed.
template <typename T>
Result<T> ParseInt(std::string_view field, const char* what) {
  T value = 0;
  auto [ptr, ec] =
      std::from_chars(field.data(), field.data() + field.size(), value);
  bool negative = field.size() > 1 && field[0] == '-' && field[1] >= '0' &&
                  field[1] <= '9';
  if (ec == std::errc::result_out_of_range ||
      (std::is_unsigned_v<T> && negative)) {
    return Status::Corruption(std::string(what) + " field '" +
                              std::string(field) + "' is out of range");
  }
  if (ec != std::errc() || ptr != field.data() + field.size()) {
    return Status::Corruption(std::string("bad ") + what + " field '" +
                              std::string(field) + "'");
  }
  return value;
}

}  // namespace

std::string FormatLogLine(const EventRecord& record) {
  std::string out;
  out += std::to_string(record.start_ts);
  out += '\t';
  out += std::to_string(record.end_ts);
  out += '\t';
  out += std::to_string(record.agent_id);
  out += '\t';
  out += OpTypeToString(record.op);
  out += '\t';
  out += std::to_string(record.amount);
  out += '\t';
  out += std::to_string(record.subject.pid);
  out += '\t';
  EscapeTo(record.subject.exe_name, &out);
  out += '\t';
  EscapeTo(record.subject.user, &out);
  out += '\t';
  switch (ObjectRefType(record.object)) {
    case EntityType::kProcess: {
      const auto& proc = std::get<ProcessRef>(record.object);
      out += "proc\t";
      out += std::to_string(proc.agent_id);
      out += '\t';
      out += std::to_string(proc.pid);
      out += '\t';
      EscapeTo(proc.exe_name, &out);
      out += '\t';
      EscapeTo(proc.user, &out);
      break;
    }
    case EntityType::kFile: {
      const auto& file = std::get<FileRef>(record.object);
      out += "file\t";
      out += std::to_string(file.agent_id);
      out += '\t';
      EscapeTo(file.path, &out);
      break;
    }
    case EntityType::kNetwork: {
      const auto& net = std::get<NetworkRef>(record.object);
      out += "net\t";
      out += std::to_string(net.agent_id);
      out += '\t';
      EscapeTo(net.src_ip, &out);
      out += '\t';
      out += std::to_string(net.src_port);
      out += '\t';
      EscapeTo(net.dst_ip, &out);
      out += '\t';
      out += std::to_string(net.dst_port);
      out += '\t';
      EscapeTo(net.protocol, &out);
      break;
    }
  }
  return out;
}

Result<EventRecord> ParseLogLine(std::string_view line) {
  auto fields = SplitFields(line);
  if (fields.size() < 10) {
    return Status::Corruption("expected at least 10 fields, got " +
                              std::to_string(fields.size()));
  }
  EventRecord record;
  AIQL_ASSIGN_OR_RETURN(record.start_ts,
                        ParseInt<Timestamp>(fields[0], "start_ts"));
  AIQL_ASSIGN_OR_RETURN(record.end_ts,
                        ParseInt<Timestamp>(fields[1], "end_ts"));
  AIQL_ASSIGN_OR_RETURN(record.agent_id, ParseInt<AgentId>(fields[2], "agent"));
  AIQL_ASSIGN_OR_RETURN(record.op, ParseOpType(fields[3]));
  AIQL_ASSIGN_OR_RETURN(record.amount, ParseInt<uint64_t>(fields[4], "amount"));
  record.subject.agent_id = record.agent_id;
  AIQL_ASSIGN_OR_RETURN(record.subject.pid,
                        ParseInt<uint32_t>(fields[5], "subj_pid"));
  record.subject.exe_name = Unescape(fields[6]);
  record.subject.user = Unescape(fields[7]);

  std::string_view kind = fields[8];
  if (kind == "proc") {
    if (fields.size() != 13) {
      return Status::Corruption("proc object expects 13 fields");
    }
    ProcessRef proc;
    AIQL_ASSIGN_OR_RETURN(proc.agent_id,
                          ParseInt<AgentId>(fields[9], "obj agent"));
    AIQL_ASSIGN_OR_RETURN(proc.pid, ParseInt<uint32_t>(fields[10], "obj pid"));
    proc.exe_name = Unescape(fields[11]);
    proc.user = Unescape(fields[12]);
    record.object = std::move(proc);
  } else if (kind == "file") {
    if (fields.size() != 11) {
      return Status::Corruption("file object expects 11 fields");
    }
    FileRef file;
    AIQL_ASSIGN_OR_RETURN(file.agent_id,
                          ParseInt<AgentId>(fields[9], "obj agent"));
    file.path = Unescape(fields[10]);
    record.object = std::move(file);
  } else if (kind == "net") {
    if (fields.size() != 15) {
      return Status::Corruption("net object expects 15 fields");
    }
    NetworkRef net;
    AIQL_ASSIGN_OR_RETURN(net.agent_id,
                          ParseInt<AgentId>(fields[9], "obj agent"));
    AIQL_ASSIGN_OR_RETURN(net.src_port,
                          ParseInt<uint16_t>(fields[11], "src_port"));
    AIQL_ASSIGN_OR_RETURN(net.dst_port,
                          ParseInt<uint16_t>(fields[13], "dst_port"));
    net.src_ip = Unescape(fields[10]);
    net.dst_ip = Unescape(fields[12]);
    net.protocol = Unescape(fields[14]);
    record.object = std::move(net);
  } else {
    return Status::Corruption("unknown object kind '" + std::string(kind) +
                              "'");
  }
  return record;
}

Status WriteAuditLog(const std::vector<EventRecord>& records,
                     const std::string& path) {
  std::ofstream out(path, std::ios::trunc);
  if (!out) {
    return Status::IOError("cannot open '" + path + "' for writing");
  }
  out << "# aiql audit log v1 (" << records.size() << " events)\n";
  for (const EventRecord& record : records) {
    out << FormatLogLine(record) << '\n';
  }
  out.flush();
  if (!out) {
    return Status::IOError("write failure on '" + path + "'");
  }
  return Status::OK();
}

Result<std::vector<EventRecord>> ReadAuditLog(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    return Status::IOError("cannot open '" + path + "' for reading");
  }
  std::vector<EventRecord> records;
  std::string line;
  size_t line_number = 0;
  while (std::getline(in, line)) {
    ++line_number;
    std::string_view trimmed = TrimString(line);
    if (trimmed.empty() || trimmed.front() == '#') continue;
    auto record = ParseLogLine(trimmed);
    if (!record.ok()) {
      return Status::Corruption("line " + std::to_string(line_number) +
                                ": " + record.status().message());
    }
    records.push_back(std::move(record).value());
  }
  return records;
}

}  // namespace aiql
