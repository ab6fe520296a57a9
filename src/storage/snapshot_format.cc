#include "storage/snapshot_format.h"

#include <algorithm>
#include <array>
#include <cstring>
#include <utility>

#include "common/varint.h"
#include "storage/entity_store.h"
#include "storage/partition.h"

namespace aiql {
namespace snapfmt {

// --- little-endian fixed-width helpers ---------------------------------------

void PutFixed32(std::string* dst, uint32_t v) {
  for (int i = 0; i < 4; ++i) {
    dst->push_back(static_cast<char>((v >> (8 * i)) & 0xFF));
  }
}

void PutFixed64(std::string* dst, uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    dst->push_back(static_cast<char>((v >> (8 * i)) & 0xFF));
  }
}

uint32_t GetFixed32(const char* p) {
  uint32_t v = 0;
  for (int i = 0; i < 4; ++i) {
    v |= static_cast<uint32_t>(static_cast<uint8_t>(p[i])) << (8 * i);
  }
  return v;
}

uint64_t GetFixed64(const char* p) {
  uint64_t v = 0;
  for (int i = 0; i < 8; ++i) {
    v |= static_cast<uint64_t>(static_cast<uint8_t>(p[i])) << (8 * i);
  }
  return v;
}

// --- cursor ------------------------------------------------------------------

uint64_t Cursor::U64Slow() {
  uint64_t v = 0;
  const char* next = ok_ ? GetVarint64(p_, limit_, &v) : nullptr;
  if (next == nullptr) {
    Fail();
    return 0;
  }
  p_ = next;
  return v;
}

int64_t Cursor::I64() {
  uint64_t raw = U64();
  return ZigZagDecode(raw);
}

uint8_t Cursor::Byte() {
  if (!ok_ || p_ >= limit_) {
    Fail();
    return 0;
  }
  return static_cast<uint8_t>(*p_++);
}

std::string_view Cursor::Bytes(size_t n) {
  if (!ok_ || static_cast<size_t>(limit_ - p_) < n) {
    Fail();
    return {};
  }
  std::string_view out(p_, n);
  p_ += n;
  return out;
}

// --- 64-bit-safe positioning -------------------------------------------------

int Seek64(FILE* file, int64_t offset, int whence) {
#if defined(_WIN32)
  return _fseeki64(file, offset, whence);
#else
  return fseeko(file, static_cast<off_t>(offset), whence);
#endif
}

int64_t Tell64(FILE* file) {
#if defined(_WIN32)
  return _ftelli64(file);
#else
  return static_cast<int64_t>(ftello(file));
#endif
}

// =============================================================================
// encoding
// =============================================================================

namespace {

void PutDictionary(std::string* out, const StringInterner& interner) {
  PutVarint64(out, interner.size());
  interner.ForEach([&](StringId, std::string_view text) {
    PutVarint64(out, text.size());
    out->append(text);
  });
}

void EncodeEntityIndex(std::string* out, const EntityPostingIndex& index) {
  PutVarint64(out, index.keys.size());
  uint64_t prev_key = 0;
  for (size_t k = 0; k < index.keys.size(); ++k) {
    PutVarint64(out, k == 0 ? index.keys[0] : index.keys[k] - prev_key);
    prev_key = index.keys[k];
    uint32_t begin = index.offsets[k];
    uint32_t end = index.offsets[k + 1];
    PutVarint64(out, end - begin);
    uint32_t prev_index = 0;
    for (uint32_t i = begin; i < end; ++i) {
      PutVarint64(out, i == begin ? index.indexes[i]
                                  : index.indexes[i] - prev_index);
      prev_index = index.indexes[i];
    }
  }
}

void EncodeOptions(std::string* out, const StorageOptions& options) {
  PutVarintSigned(out, options.partition_duration);
  PutVarintSigned(out, options.dedup_window);
  out->push_back(options.enable_partitioning ? 1 : 0);
  PutVarint64(out, options.batch_commit_size);
  PutVarint64(out, options.max_partition_events);
}

void EncodeStats(std::string* out, const DatabaseStats& stats) {
  PutVarint64(out, stats.total_events);
  PutVarint64(out, stats.raw_events);
  PutVarint64(out, stats.total_partitions);
  PutVarint64(out, stats.partitions_sealed);
  for (uint64_t count : stats.op_counts) PutVarint64(out, count);
  PutVarintSigned(out, stats.min_ts);
  PutVarintSigned(out, stats.max_ts);
}

void PutSegmentRef(std::string* out, const SegmentRef& ref) {
  PutVarint64(out, ref.offset);
  PutVarint64(out, ref.length);
  PutVarint64(out, ref.checksum);
}

}  // namespace

PartitionDirEntry MakeDirEntry(int64_t bucket, AgentId agent, uint32_t seq,
                               const SegmentRef& segment,
                               const EventPartition& partition) {
  PartitionDirEntry entry;
  entry.bucket = bucket;
  entry.agent = agent;
  entry.seq = seq;
  entry.segment = segment;
  entry.events = partition.size();
  entry.raw_events = partition.raw_event_count();
  entry.min_ts = partition.min_ts();
  entry.max_ts = partition.max_ts();
  for (int op = 0; op < kNumOpTypes; ++op) {
    entry.op_counts[op] = partition.OpCount(static_cast<OpType>(op));
  }
  return entry;
}

void EncodeHeader(std::string* out) {
  PutFixed64(out, kV2Magic);
  PutFixed32(out, kV2Version);
}

void EncodeMetaSegment(const EntityStore& es, std::string* out) {
  PutDictionary(out, es.exe_names());
  PutDictionary(out, es.users());
  PutDictionary(out, es.paths());
  PutDictionary(out, es.ips());
  PutDictionary(out, es.protocols());

  PutVarint64(out, es.processes().size());
  for (const ProcessEntity& p : es.processes()) {
    PutVarint64(out, p.agent_id);
    PutVarint64(out, p.pid);
    PutVarint64(out, p.exe_name);
    PutVarint64(out, p.user);
  }
  PutVarint64(out, es.files().size());
  for (const FileEntity& f : es.files()) {
    PutVarint64(out, f.agent_id);
    PutVarint64(out, f.path);
  }
  PutVarint64(out, es.networks().size());
  for (const NetworkEntity& n : es.networks()) {
    PutVarint64(out, n.agent_id);
    PutVarint64(out, n.src_ip);
    PutVarint64(out, n.dst_ip);
    PutVarint64(out, n.src_port);
    PutVarint64(out, n.dst_port);
    PutVarint64(out, n.protocol);
  }
}

void EncodePartitionSegment(const EventPartition& partition,
                            std::string* out) {
  const std::vector<Event>& events = partition.events();
  const size_t n = events.size();
  PutVarint64(out, n);

  // start_ts: first value zigzag, then non-negative deltas.
  int64_t prev = 0;
  for (size_t i = 0; i < n; ++i) {
    if (i == 0) {
      PutVarintSigned(out, events[i].start_ts);
    } else {
      PutVarint64(out,
                  static_cast<uint64_t>(events[i].start_ts) -
                      static_cast<uint64_t>(prev));
    }
    prev = events[i].start_ts;
  }
  // Durations (end - start >= 0 by ingest validation).
  for (const Event& e : events) {
    PutVarint64(out, static_cast<uint64_t>(e.end_ts) -
                         static_cast<uint64_t>(e.start_ts));
  }
  for (const Event& e : events) PutVarint64(out, e.subject);
  for (const Event& e : events) PutVarint64(out, e.object);
  // agent_id: RLE — constant within a partition under time x agent
  // partitioning, so this column is typically two varints.
  for (size_t i = 0; i < n;) {
    size_t run = i + 1;
    while (run < n && events[run].agent_id == events[i].agent_id) ++run;
    PutVarint64(out, events[i].agent_id);
    PutVarint64(out, run - i);
    i = run;
  }
  for (const Event& e : events) PutVarint64(out, e.amount);
  for (const Event& e : events) PutVarint64(out, e.merge_count);
  // object_type: RLE.
  for (size_t i = 0; i < n;) {
    size_t run = i + 1;
    while (run < n && events[run].object_type == events[i].object_type) ++run;
    out->push_back(static_cast<char>(events[i].object_type));
    PutVarint64(out, run - i);
    i = run;
  }

  // Posting lists (ascending event indexes, delta-encoded). Together they
  // cover every index exactly once, which also encodes the op column.
  for (int op = 0; op < kNumOpTypes; ++op) {
    const OpPostingList& list = partition.posting(static_cast<OpType>(op));
    PutVarint64(out, list.indexes.size());
    uint32_t prev_index = 0;
    for (size_t i = 0; i < list.indexes.size(); ++i) {
      PutVarint64(out, i == 0 ? list.indexes[0]
                              : list.indexes[i] - prev_index);
      prev_index = list.indexes[i];
    }
  }

  // Subject-exe statistics, sorted by exe id for deterministic bytes.
  std::vector<std::pair<StringId, uint64_t>> exe_counts(
      partition.subject_exe_counts().begin(),
      partition.subject_exe_counts().end());
  std::sort(exe_counts.begin(), exe_counts.end());
  PutVarint64(out, exe_counts.size());
  for (const auto& [exe, count] : exe_counts) {
    PutVarint64(out, exe);
    PutVarint64(out, count);
  }

  // Reverse entity indexes (v2 format version 3): CSR groups of ascending
  // event indexes keyed by strictly ascending entity keys — keys and
  // in-group indexes both delta-encode into small varints.
  EncodeEntityIndex(out, partition.subject_index());
  EncodeEntityIndex(out, partition.object_index());
}

void EncodeFooter(const FooterData& footer, std::string* out) {
  EncodeOptions(out, footer.options);
  EncodeStats(out, footer.stats);
  PutSegmentRef(out, footer.meta);
  PutVarint64(out, footer.partitions.size());
  for (const PartitionDirEntry& entry : footer.partitions) {
    PutVarintSigned(out, entry.bucket);
    PutVarint64(out, entry.agent);
    PutVarint64(out, entry.seq);
    PutSegmentRef(out, entry.segment);
    PutVarint64(out, entry.events);
    PutVarint64(out, entry.raw_events);
    PutVarintSigned(out, entry.min_ts);
    PutVarintSigned(out, entry.max_ts);
    for (uint64_t count : entry.op_counts) PutVarint64(out, count);
  }
}

void EncodeTrailer(uint64_t footer_offset, uint64_t footer_checksum,
                   std::string* out) {
  PutFixed64(out, footer_offset);
  PutFixed64(out, footer_checksum);
  PutFixed64(out, kV2Magic);
}

// =============================================================================
// decoding
// =============================================================================

namespace {

Status DecodeSegmentRef(Cursor* cur, uint64_t data_end, SegmentRef* ref) {
  ref->offset = cur->U64();
  ref->length = cur->U64();
  ref->checksum = cur->U64();
  if (!cur->ok()) return Status::Corruption("snapshot footer truncated");
  if (ref->offset < kV2HeaderSize || ref->length > data_end ||
      ref->offset > data_end - ref->length) {
    return Status::Corruption("snapshot segment outside the data area");
  }
  return Status::OK();
}

Result<std::vector<std::string>> DecodeDictionary(Cursor* cur) {
  uint64_t count = cur->U64();
  if (!cur->ok() || count > cur->remaining()) {
    return Status::Corruption("snapshot dictionary truncated");
  }
  std::vector<std::string> out;
  out.reserve(static_cast<size_t>(count));
  for (uint64_t i = 0; i < count; ++i) {
    uint64_t len = cur->U64();
    std::string_view text = cur->Bytes(static_cast<size_t>(len));
    if (!cur->ok()) {
      return Status::Corruption("snapshot dictionary truncated");
    }
    out.emplace_back(text);
  }
  return out;
}

/// Decodes one reverse entity index of an `n`-event partition and checks
/// it against the decoded columns: keys strictly ascending, every group
/// non-empty with strictly ascending event indexes, every listed event
/// carrying the group's key (`key_of(event index)`), and the groups totalling
/// `n`. An event has exactly one key, so no event can sit in two groups:
/// together these checks mean every event is listed exactly once.
template <typename KeyOf>
Status DecodeEntityIndex(Cursor* cur, size_t n, const KeyOf& key_of,
                         const char* what, EntityPostingIndex* index) {
  auto corrupt = [&] {
    return Status::Corruption(std::string("partition ") + what +
                              " index corrupt");
  };
  uint64_t num_keys = cur->U64();
  if (!cur->ok() || num_keys > n) return corrupt();
  index->keys.resize(static_cast<size_t>(num_keys));
  index->offsets.resize(static_cast<size_t>(num_keys) + 1);
  index->indexes.resize(n);
  uint32_t* out = index->indexes.data();
  uint64_t key = 0;
  size_t total = 0;
  for (size_t k = 0; k < num_keys; ++k) {
    uint64_t delta = cur->U64();
    if (k > 0 && (delta == 0 || delta > UINT64_MAX - key)) return corrupt();
    key += delta;
    uint64_t count = cur->U64();
    if (count == 0 || count > n - total) return corrupt();
    index->keys[k] = key;
    index->offsets[k] = static_cast<uint32_t>(total);
    uint64_t event = cur->U64();
    if (event >= n || key_of(event) != key) return corrupt();
    out[total] = static_cast<uint32_t>(event);
    for (uint64_t i = 1; i < count; ++i) {
      uint64_t d = cur->U64();
      if (d == 0 || d >= n - event) return corrupt();
      event += d;
      if (key_of(event) != key) return corrupt();
      out[total + i] = static_cast<uint32_t>(event);
    }
    total += static_cast<size_t>(count);
  }
  if (!cur->ok()) return corrupt();
  index->offsets[num_keys] = static_cast<uint32_t>(total);
  if (total != n) {
    return Status::Corruption(std::string("partition ") + what +
                              " index does not cover every event");
  }
  return Status::OK();
}

/// Decodes a run-length column ((value, run) pairs covering `n` rows) into
/// `column`. `read_value` returns false for an out-of-domain value.
template <typename T, typename ReadValue>
bool DecodeRuns(Cursor* cur, size_t n, const ReadValue& read_value,
                std::vector<T>* column) {
  column->resize(n);
  for (size_t covered = 0; covered < n;) {
    T value{};
    bool valid = read_value(&value);
    uint64_t run = cur->U64();
    if (!cur->ok() || !valid || run == 0 || run > n - covered) return false;
    std::fill_n(column->begin() + covered, run, value);
    covered += static_cast<size_t>(run);
  }
  return true;
}

}  // namespace

Status DecodeFooter(std::string_view bytes, uint64_t data_end,
                    FooterData* footer) {
  Cursor cur(bytes);
  footer->options.partition_duration = cur.I64();
  footer->options.dedup_window = cur.I64();
  footer->options.enable_partitioning = cur.Byte() != 0;
  footer->options.batch_commit_size = static_cast<size_t>(cur.U64());
  footer->options.max_partition_events = static_cast<size_t>(cur.U64());

  footer->stats.total_events = cur.U64();
  footer->stats.raw_events = cur.U64();
  footer->stats.total_partitions = cur.U64();
  footer->stats.partitions_sealed = cur.U64();
  for (uint64_t& count : footer->stats.op_counts) count = cur.U64();
  footer->stats.min_ts = cur.I64();
  footer->stats.max_ts = cur.I64();

  AIQL_RETURN_IF_ERROR(DecodeSegmentRef(&cur, data_end, &footer->meta));

  uint64_t num_partitions = cur.U64();
  if (!cur.ok()) return Status::Corruption("snapshot footer truncated");
  // Each directory entry takes >= 16 bytes, bounding the claimed count.
  if (num_partitions > cur.remaining()) {
    return Status::Corruption("snapshot footer partition count implausible");
  }
  footer->partitions.reserve(static_cast<size_t>(num_partitions));
  for (uint64_t i = 0; i < num_partitions; ++i) {
    PartitionDirEntry entry;
    entry.bucket = cur.I64();
    entry.agent = static_cast<AgentId>(cur.U64());
    entry.seq = static_cast<uint32_t>(cur.U64());
    AIQL_RETURN_IF_ERROR(DecodeSegmentRef(&cur, data_end, &entry.segment));
    entry.events = cur.U64();
    entry.raw_events = cur.U64();
    entry.min_ts = cur.I64();
    entry.max_ts = cur.I64();
    for (uint64_t& count : entry.op_counts) count = cur.U64();
    if (!cur.ok()) return Status::Corruption("snapshot footer truncated");
    footer->partitions.push_back(entry);
  }
  if (!cur.AtEnd()) {
    return Status::Corruption("snapshot footer has trailing bytes");
  }
  return Status::OK();
}

Status DecodeMetaSegment(std::string_view bytes, EntityStore* store) {
  Cursor cur(bytes);
  AIQL_ASSIGN_OR_RETURN(std::vector<std::string> exe_names,
                        DecodeDictionary(&cur));
  AIQL_ASSIGN_OR_RETURN(std::vector<std::string> users,
                        DecodeDictionary(&cur));
  AIQL_ASSIGN_OR_RETURN(std::vector<std::string> paths,
                        DecodeDictionary(&cur));
  AIQL_ASSIGN_OR_RETURN(std::vector<std::string> ips, DecodeDictionary(&cur));
  AIQL_ASSIGN_OR_RETURN(std::vector<std::string> protocols,
                        DecodeDictionary(&cur));
  AIQL_RETURN_IF_ERROR(
      store->RestoreDictionaries(exe_names, users, paths, ips, protocols));

  auto dict_string = [](const std::vector<std::string>& dict,
                        uint64_t id) -> const std::string* {
    return id < dict.size() ? &dict[id] : nullptr;
  };

  uint64_t num_procs = cur.U64();
  if (!cur.ok() || num_procs > cur.remaining()) {
    return Status::Corruption("snapshot entity table truncated");
  }
  for (uint64_t i = 0; i < num_procs; ++i) {
    uint64_t agent = cur.U64();
    uint64_t pid = cur.U64();
    const std::string* exe = dict_string(exe_names, cur.U64());
    const std::string* user = dict_string(users, cur.U64());
    if (!cur.ok() || exe == nullptr || user == nullptr ||
        agent > UINT32_MAX || pid > UINT32_MAX) {
      return Status::Corruption("snapshot process table corrupt");
    }
    store->InternProcess(ProcessRef{static_cast<AgentId>(agent),
                                    static_cast<uint32_t>(pid), *exe, *user});
  }
  if (store->processes().size() != num_procs) {
    return Status::Corruption("snapshot process table has duplicates");
  }

  uint64_t num_files = cur.U64();
  if (!cur.ok() || num_files > cur.remaining()) {
    return Status::Corruption("snapshot entity table truncated");
  }
  for (uint64_t i = 0; i < num_files; ++i) {
    uint64_t agent = cur.U64();
    const std::string* path = dict_string(paths, cur.U64());
    if (!cur.ok() || path == nullptr || agent > UINT32_MAX) {
      return Status::Corruption("snapshot file table corrupt");
    }
    store->InternFile(FileRef{static_cast<AgentId>(agent), *path});
  }
  if (store->files().size() != num_files) {
    return Status::Corruption("snapshot file table has duplicates");
  }

  uint64_t num_nets = cur.U64();
  if (!cur.ok() || num_nets > cur.remaining()) {
    return Status::Corruption("snapshot entity table truncated");
  }
  for (uint64_t i = 0; i < num_nets; ++i) {
    NetworkRef ref;
    uint64_t agent = cur.U64();
    const std::string* src = dict_string(ips, cur.U64());
    const std::string* dst = dict_string(ips, cur.U64());
    uint64_t src_port = cur.U64();
    uint64_t dst_port = cur.U64();
    const std::string* proto = dict_string(protocols, cur.U64());
    if (!cur.ok() || src == nullptr || dst == nullptr || proto == nullptr ||
        agent > UINT32_MAX || src_port > UINT16_MAX ||
        dst_port > UINT16_MAX) {
      return Status::Corruption("snapshot network table corrupt");
    }
    ref.agent_id = static_cast<AgentId>(agent);
    ref.src_ip = *src;
    ref.dst_ip = *dst;
    ref.src_port = static_cast<uint16_t>(src_port);
    ref.dst_port = static_cast<uint16_t>(dst_port);
    ref.protocol = *proto;
    store->InternNetwork(ref);
  }
  if (store->networks().size() != num_nets) {
    return Status::Corruption("snapshot network table has duplicates");
  }
  if (!cur.AtEnd()) {
    return Status::Corruption("snapshot META segment has trailing bytes");
  }
  return Status::OK();
}

Status DecodePartitionSegment(std::string_view bytes,
                              const PartitionDirEntry& entry,
                              const EntityStore& store,
                              EventPartition* partition) {
  // One pass over the segment in its stored order, straight into the
  // columns. Wrapped or out-of-domain values are caught by the row pass at
  // the end, which checks every event once.
  Cursor cur(bytes);
  uint64_t n64 = cur.U64();
  if (!cur.ok() || n64 != entry.events || n64 > bytes.size()) {
    return Status::Corruption("partition segment event count mismatch");
  }
  const size_t n = static_cast<size_t>(n64);
  SealedPartitionParts parts;
  EventColumns& cols = parts.columns;

  cols.start_ts.resize(n);
  if (n > 0) {
    uint64_t start = static_cast<uint64_t>(cur.I64());
    cols.start_ts[0] = static_cast<Timestamp>(start);
    for (size_t i = 1; i < n; ++i) {
      start += cur.U64();
      cols.start_ts[i] = static_cast<Timestamp>(start);
    }
  }
  cols.end_ts.resize(n);
  for (size_t i = 0; i < n; ++i) {
    cols.end_ts[i] = static_cast<Timestamp>(
        static_cast<uint64_t>(cols.start_ts[i]) + cur.U64());
  }
  // Entity ids are 32-bit; OR-ing the raw values exposes any wider one.
  uint64_t id_bits = 0;
  cols.subject.resize(n);
  for (size_t i = 0; i < n; ++i) {
    uint64_t id = cur.U64();
    id_bits |= id;
    cols.subject[i] = static_cast<EntityId>(id);
  }
  cols.object.resize(n);
  for (size_t i = 0; i < n; ++i) {
    uint64_t id = cur.U64();
    id_bits |= id;
    cols.object[i] = static_cast<EntityId>(id);
  }
  if (id_bits > UINT32_MAX) {
    return Status::Corruption("partition references unknown entities");
  }
  bool agents_ok = DecodeRuns(&cur, n,
                              [&](AgentId* agent) {
                                uint64_t v = cur.U64();
                                *agent = static_cast<AgentId>(v);
                                return v <= UINT32_MAX;
                              },
                              &cols.agent_id);
  if (!agents_ok) return Status::Corruption("partition agent column corrupt");
  cols.amount.resize(n);
  for (size_t i = 0; i < n; ++i) cols.amount[i] = cur.U64();
  std::vector<uint32_t> merge_counts(n);
  for (size_t i = 0; i < n; ++i) {
    uint64_t merge_count = cur.U64();
    if (merge_count == 0 || merge_count > UINT32_MAX) {
      return Status::Corruption("partition merge counts corrupt");
    }
    merge_counts[i] = static_cast<uint32_t>(merge_count);
  }
  bool types_ok = DecodeRuns(&cur, n,
                             [&](EntityType* type) {
                               uint8_t v = cur.Byte();
                               *type = static_cast<EntityType>(v);
                               return v < kNumEntityTypes;
                             },
                             &cols.object_type);
  if (!types_ok) {
    return Status::Corruption("partition object-type column corrupt");
  }
  if (!cur.ok()) return Status::Corruption("partition segment truncated");

  // Posting lists: strictly ascending, and jointly covering every event
  // index exactly once. They scatter the op column; zone maps are the
  // first and last referenced start.
  constexpr OpType kNoOp = static_cast<OpType>(0xFF);
  cols.op.assign(n, kNoOp);
  uint64_t total_postings = 0;
  for (int op = 0; op < kNumOpTypes; ++op) {
    uint64_t count = cur.U64();
    if (!cur.ok() || count != entry.op_counts[op] ||
        count > n - total_postings) {
      return Status::Corruption("partition posting lists corrupt");
    }
    OpPostingList& list = parts.postings[op];
    list.indexes.resize(static_cast<size_t>(count));
    // The first delta is the first index itself. A zero delta later on
    // repeats an index, which the taken-slot check refuses.
    uint64_t index = 0;
    for (size_t i = 0; i < count; ++i) {
      uint64_t d = cur.U64();
      if (d >= n - index) {
        return Status::Corruption("partition posting lists corrupt");
      }
      index += d;
      if (cols.op[index] != kNoOp) {
        return Status::Corruption("partition posting lists corrupt");
      }
      cols.op[index] = static_cast<OpType>(op);
      list.indexes[i] = static_cast<uint32_t>(index);
    }
    if (count > 0) {
      list.min_start_ts = cols.start_ts[list.indexes.front()];
      list.max_start_ts = cols.start_ts[list.indexes.back()];
    }
    total_postings += count;
  }
  if (!cur.ok()) return Status::Corruption("partition posting lists corrupt");
  if (total_postings != n) {
    return Status::Corruption("partition posting lists do not cover events");
  }

  // Subject-exe statistics: strictly ascending known exe ids, each counting
  // at least one event and together no more than the partition holds.
  uint64_t num_exe = cur.U64();
  if (!cur.ok() || num_exe > cur.remaining()) {
    return Status::Corruption("partition statistics truncated");
  }
  if (num_exe > n) return Status::Corruption("partition statistics corrupt");
  parts.subject_exe_counts.reserve(static_cast<size_t>(num_exe));
  uint64_t prev_exe = 0;
  uint64_t exe_events = 0;
  for (uint64_t i = 0; i < num_exe; ++i) {
    uint64_t exe = cur.U64();
    uint64_t count = cur.U64();
    if (!cur.ok() || exe >= store.exe_names().size() ||
        (i > 0 && exe <= prev_exe) || count == 0 || count > n - exe_events) {
      return Status::Corruption("partition statistics corrupt");
    }
    parts.subject_exe_counts.emplace(static_cast<StringId>(exe), count);
    prev_exe = exe;
    exe_events += count;
  }

  AIQL_RETURN_IF_ERROR(DecodeEntityIndex(
      &cur, n,
      [&](uint64_t i) { return static_cast<uint64_t>(cols.subject[i]); },
      "subject", &parts.subject_index));
  AIQL_RETURN_IF_ERROR(DecodeEntityIndex(
      &cur, n,
      [&](uint64_t i) {
        return EventPartition::ObjectKey(cols.object_type[i], cols.object[i]);
      },
      "object", &parts.object_index));
  if (!cur.AtEnd()) {
    return Status::Corruption("partition segment has trailing bytes");
  }

  // Row pass: builds the Event rows and checks each event once — interval,
  // (start, end) order, entity-id bounds — while accumulating the bounds
  // and raw count the footer directory must agree with.
  const size_t num_processes = store.processes().size();
  std::array<size_t, kNumEntityTypes> num_objects;
  for (int t = 0; t < kNumEntityTypes; ++t) {
    num_objects[t] = store.NumEntities(static_cast<EntityType>(t));
  }
  parts.events.resize(n);
  Timestamp max_ts = INT64_MIN;
  uint64_t raw = 0;
  for (size_t i = 0; i < n; ++i) {
    const Timestamp start = cols.start_ts[i];
    const Timestamp end = cols.end_ts[i];
    if (end < start) {
      return Status::Corruption("partition event interval corrupt");
    }
    if (i > 0 && (start < cols.start_ts[i - 1] ||
                  (start == cols.start_ts[i - 1] &&
                   end < cols.end_ts[i - 1]))) {
      return Status::Corruption("partition events out of order");
    }
    const EntityType object_type = cols.object_type[i];
    if (cols.subject[i] >= num_processes ||
        cols.object[i] >= num_objects[static_cast<size_t>(object_type)]) {
      return Status::Corruption("partition references unknown entities");
    }
    max_ts = std::max(max_ts, end);
    raw += merge_counts[i];
    parts.events[i] = Event{.start_ts = start,
                            .end_ts = end,
                            .amount = cols.amount[i],
                            .subject = cols.subject[i],
                            .object = cols.object[i],
                            .agent_id = cols.agent_id[i],
                            .merge_count = merge_counts[i],
                            .op = cols.op[i],
                            .object_type = object_type};
  }
  if (n > 0) {
    parts.min_ts = cols.start_ts[0];
    parts.max_ts = max_ts;
    if (parts.min_ts != entry.min_ts || parts.max_ts != entry.max_ts) {
      return Status::Corruption("partition time bounds disagree with footer");
    }
  }
  if (raw != entry.raw_events) {
    return Status::Corruption("partition raw-event count disagrees with "
                              "footer");
  }
  parts.raw_count = raw;

  partition->RestoreSealed(std::move(parts));
  return Status::OK();
}

}  // namespace snapfmt
}  // namespace aiql
