#include "storage/snapshot_format.h"

#include <algorithm>
#include <array>
#include <cstring>
#include <utility>

#include "common/bitpack.h"
#include "common/varint.h"
#include "storage/entity_store.h"
#include "storage/key_summary.h"
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

/// A reverse entity index as four packed streams: the key deltas (the
/// first key itself, then strictly positive steps), the group sizes, each
/// group's first event index, and the in-group event deltas of every group
/// in key order. First events are absolute indexes, so their own stream
/// keeps them from widening the blocks of small in-group steps.
void EncodeEntityIndex(std::string* out, const EntityPostingIndex& index) {
  const std::vector<uint64_t>& keys = index.keys;
  const std::vector<uint32_t>& offsets = index.offsets;
  const std::vector<uint32_t>& events = index.indexes;
  const size_t num_keys = keys.size();
  PutVarint64(out, num_keys);
  bitpack::Put(out, num_keys, [&](size_t k) {
    return k == 0 ? keys[0] : keys[k] - keys[k - 1];
  });
  bitpack::Put(out, num_keys,
               [&](size_t k) { return offsets[k + 1] - offsets[k]; });
  bitpack::Put(out, num_keys, [&](size_t k) { return events[offsets[k]]; });
  std::vector<uint32_t> steps;
  steps.reserve(events.size() - num_keys);
  for (size_t k = 0; k < num_keys; ++k) {
    for (uint32_t i = offsets[k] + 1; i < offsets[k + 1]; ++i) {
      steps.push_back(events[i] - events[i - 1]);
    }
  }
  bitpack::Put(out, steps.size(), [&](size_t i) { return steps[i]; });
}

/// The footer's options byte, kept so files stay byte-identical: every
/// store partitions, so it is always 1 and any other value is refused.
constexpr char kPartitionedOptionsByte = 1;

void EncodeOptions(std::string* out, const StorageOptions& options) {
  PutVarintSigned(out, options.partition_duration);
  PutVarintSigned(out, options.dedup_window);
  out->push_back(kPartitionedOptionsByte);
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

/// Grain of the persisted op start fences.
constexpr uint64_t kFenceGrain = kSecond;

/// The fence of starts [min_start, max_start] in a partition spanning
/// [min_ts, max_ts] (min_ts <= min_start <= max_start <= max_ts).
StartFence GridFence(Timestamp min_ts, Timestamp max_ts, Timestamp min_start,
                     Timestamp max_start) {
  const uint64_t base = static_cast<uint64_t>(min_ts);
  const uint64_t span = static_cast<uint64_t>(max_ts) - base;
  const uint64_t lo = (static_cast<uint64_t>(min_start) - base) /
                      kFenceGrain * kFenceGrain;
  const uint64_t hi_offset = static_cast<uint64_t>(max_start) - base;
  uint64_t hi = hi_offset / kFenceGrain * kFenceGrain;
  if (hi < hi_offset) hi = span - hi < kFenceGrain ? span : hi + kFenceGrain;
  return StartFence{static_cast<Timestamp>(base + lo),
                    static_cast<Timestamp>(base + hi)};
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
    const OpPostingList& list = partition.posting(static_cast<OpType>(op));
    entry.op_counts[op] = list.size();
    if (!list.empty()) {
      entry.op_fences[op] = GridFence(entry.min_ts, entry.max_ts,
                                      list.min_start_ts, list.max_start_ts);
    }
  }
  entry.exe_counts.assign(partition.subject_exe_counts().begin(),
                          partition.subject_exe_counts().end());
  std::sort(entry.exe_counts.begin(), entry.exe_counts.end());
  entry.key_summary =
      BuildKeySummary(partition.subject_index(), partition.object_index());
  return entry;
}

PartitionStats PartitionDirEntry::Stats() const {
  return PartitionStats{PartitionKey{bucket, agent}, min_ts, max_ts, events,
                        &op_counts, &key_summary};
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
  const EventColumns& cols = partition.columns();
  const size_t n = cols.size();
  PutVarint64(out, n);

  // start_ts: first value zigzag, then the n - 1 non-negative deltas.
  if (n > 0) PutVarintSigned(out, cols.start_ts[0]);
  bitpack::Put(out, n > 0 ? n - 1 : 0, [&](size_t i) {
    return static_cast<uint64_t>(cols.start_ts[i + 1]) -
           static_cast<uint64_t>(cols.start_ts[i]);
  });
  // Durations (end - start >= 0 by ingest validation).
  bitpack::Put(out, n, [&](size_t i) {
    return static_cast<uint64_t>(cols.end_ts[i]) -
           static_cast<uint64_t>(cols.start_ts[i]);
  });
  bitpack::Put(out, n, [&](size_t i) { return cols.subject[i]; });
  bitpack::Put(out, n, [&](size_t i) { return cols.object[i]; });
  // agent_id: one RLE run (agent, n) of the partition's agent. The decoder
  // requires every run to name the directory entry's agent.
  if (n > 0) {
    PutVarint64(out, partition.agent_id());
    PutVarint64(out, n);
  }
  bitpack::Put(out, n, [&](size_t i) { return cols.amount[i]; });
  bitpack::Put(out, n, [&](size_t i) { return cols.merge_count[i]; });
  // object_type: RLE.
  for (size_t i = 0; i < n;) {
    size_t run = i + 1;
    while (run < n && cols.object_type[run] == cols.object_type[i]) ++run;
    out->push_back(static_cast<char>(cols.object_type[i]));
    PutVarint64(out, run - i);
    i = run;
  }

  // Posting lists (ascending event indexes, delta-packed; the first delta
  // is the first index). Together they cover every index exactly once,
  // which also encodes the op column.
  for (int op = 0; op < kNumOpTypes; ++op) {
    const std::vector<uint32_t>& indexes =
        partition.posting(static_cast<OpType>(op)).indexes;
    PutVarint64(out, indexes.size());
    bitpack::Put(out, indexes.size(), [&](size_t i) {
      return i == 0 ? indexes[0] : indexes[i] - indexes[i - 1];
    });
  }

  // Reverse entity indexes: CSR groups of ascending event indexes keyed by
  // strictly ascending entity keys.
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
    // Fences of the non-empty ops, in grains from the partition's first
    // start: min, then the width (rounded up, as the clamp may cut it).
    for (int op = 0; op < kNumOpTypes; ++op) {
      if (entry.op_counts[op] == 0) continue;
      const StartFence& fence = entry.op_fences[op];
      const uint64_t lo = static_cast<uint64_t>(fence.min_start_ts) -
                          static_cast<uint64_t>(entry.min_ts);
      const uint64_t width = static_cast<uint64_t>(fence.max_start_ts) -
                             static_cast<uint64_t>(fence.min_start_ts);
      PutVarint64(out, lo / kFenceGrain);
      PutVarint64(out, width / kFenceGrain + (width % kFenceGrain != 0));
    }
    PutVarint64(out, entry.exe_counts.size());
    StringId prev_exe = 0;
    for (const auto& [exe, count] : entry.exe_counts) {
      PutVarint64(out, exe - prev_exe);
      PutVarint64(out, count);
      prev_exe = exe;
    }
    PutVarint64(out, entry.key_summary.size());
    out->append(entry.key_summary);
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
  const size_t num = static_cast<size_t>(num_keys);
  index->keys.resize(num);
  index->offsets.resize(num + 1);
  index->indexes.resize(n);
  uint64_t* keys = index->keys.data();
  uint32_t* offsets = index->offsets.data();
  uint32_t* out = index->indexes.data();
  uint64_t key = 0;
  if (!cur->Packed(num, [&](const uint64_t* deltas, size_t m, size_t first) {
        for (size_t i = 0; i < m; ++i) {
          const uint64_t delta = deltas[i];
          if (first + i > 0 && (delta == 0 || delta > UINT64_MAX - key)) {
            return false;
          }
          key += delta;
          keys[first + i] = key;
        }
        return true;
      })) {
    return corrupt();
  }
  size_t total = 0;
  if (!cur->Packed(num, [&](const uint64_t* sizes, size_t m, size_t first) {
        for (size_t i = 0; i < m; ++i) {
          if (sizes[i] == 0 || sizes[i] > n - total) return false;
          offsets[first + i] = static_cast<uint32_t>(total);
          total += static_cast<size_t>(sizes[i]);
        }
        return true;
      })) {
    return corrupt();
  }
  offsets[num] = static_cast<uint32_t>(total);
  if (total != n) {
    return Status::Corruption(std::string("partition ") + what +
                              " index does not cover every event");
  }
  if (!cur->Packed(num, [&](const uint64_t* events, size_t m, size_t first) {
        for (size_t i = 0; i < m; ++i) {
          const size_t k = first + i;
          if (events[i] >= n || key_of(events[i]) != keys[k]) return false;
          out[offsets[k]] = static_cast<uint32_t>(events[i]);
        }
        return true;
      })) {
    return corrupt();
  }
  // In-group steps fill every slot but the groups' first ones, in order:
  // the groups total n, so the n - num steps end at the last slot.
  size_t k = 0;
  size_t slot = 0;
  if (!cur->Packed(n - num, [&](const uint64_t* steps, size_t m, size_t) {
        for (size_t i = 0; i < m; ++i) {
          ++slot;
          while (slot == offsets[k + 1]) {
            ++k;
            ++slot;
          }
          const uint64_t previous = out[slot - 1];
          if (steps[i] == 0 || steps[i] >= n - previous) return false;
          const uint64_t event = previous + steps[i];
          if (key_of(event) != keys[k]) return false;
          out[slot] = static_cast<uint32_t>(event);
        }
        return true;
      })) {
    return corrupt();
  }
  return Status::OK();
}

/// Fills `column[0, count)` from one packed stream with `convert(value,
/// row)` per value; false on a malformed stream.
template <typename T, typename Convert>
bool UnpackColumn(Cursor* cur, T* column, size_t count,
                  const Convert& convert) {
  return cur->Packed(count,
                     [&](const uint64_t* values, size_t m, size_t first) {
                       for (size_t i = 0; i < m; ++i) {
                         column[first + i] = convert(values[i], first + i);
                       }
                       return true;
                     });
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

/// Decodes one directory entry's statistics and checks them against each
/// other; selection acts on them before any segment checksum is read.
Status DecodeDirStats(Cursor* cur, PartitionDirEntry* entry) {
  auto corrupt = [](const char* what) {
    return Status::Corruption(std::string("snapshot directory ") + what);
  };
  entry->events = cur->U64();
  entry->raw_events = cur->U64();
  entry->min_ts = cur->I64();
  entry->max_ts = cur->I64();
  uint64_t op_total = 0;
  for (uint64_t& count : entry->op_counts) {
    count = cur->U64();
    if (count > entry->events - op_total) {
      return corrupt("op counts exceed the event count");
    }
    op_total += count;
  }
  if (!cur->ok()) return Status::Corruption("snapshot footer truncated");
  if (op_total != entry->events) {
    return corrupt("op counts disagree with the event count");
  }
  if (entry->events > entry->raw_events) {
    return corrupt("event count exceeds the raw event count");
  }
  if (entry->events > 0 && entry->min_ts > entry->max_ts) {
    return corrupt("time bounds inverted");
  }
  // Every fence lies inside [min_ts, max_ts]: grain counts are checked
  // against the unsigned span before they are scaled, so nothing wraps; the
  // last grain is clamped to max_ts.
  const uint64_t span = static_cast<uint64_t>(entry->max_ts) -
                        static_cast<uint64_t>(entry->min_ts);
  for (int op = 0; op < kNumOpTypes; ++op) {
    if (entry->op_counts[op] == 0) continue;
    const uint64_t lo_grains = cur->U64();
    const uint64_t width_grains = cur->U64();
    if (!cur->ok() || lo_grains > span / kFenceGrain) {
      return corrupt("op fence outside the time bounds");
    }
    const uint64_t lo = lo_grains * kFenceGrain;
    const uint64_t room = span - lo;
    if (width_grains > room / kFenceGrain + 1) {
      return corrupt("op fence outside the time bounds");
    }
    const uint64_t hi = width_grains > room / kFenceGrain
                            ? span
                            : lo + width_grains * kFenceGrain;
    const uint64_t base = static_cast<uint64_t>(entry->min_ts);
    entry->op_fences[op] = StartFence{static_cast<Timestamp>(base + lo),
                                      static_cast<Timestamp>(base + hi)};
  }
  const uint64_t num_exe = cur->U64();
  if (!cur->ok() || num_exe > entry->events || num_exe > cur->remaining()) {
    return corrupt("exe counts implausible");
  }
  entry->exe_counts.reserve(static_cast<size_t>(num_exe));
  uint64_t exe = 0;
  uint64_t exe_events = 0;
  for (uint64_t i = 0; i < num_exe; ++i) {
    const uint64_t delta = cur->U64();
    const uint64_t count = cur->U64();
    if (!cur->ok() || (i > 0 && delta == 0) || delta > UINT32_MAX - exe ||
        count == 0 || count > entry->events - exe_events) {
      return corrupt("exe counts corrupt");
    }
    exe += delta;
    exe_events += count;
    entry->exe_counts.emplace_back(static_cast<StringId>(exe), count);
  }
  const uint64_t summary_bytes = cur->U64();
  if (!cur->ok() || summary_bytes > MaxKeySummaryBytes(entry->events) ||
      (summary_bytes == 0) != (entry->events == 0)) {
    return corrupt("entity summary size out of bounds");
  }
  entry->key_summary = std::string(cur->Bytes(summary_bytes));
  if (!cur->ok()) return Status::Corruption("snapshot footer truncated");
  return Status::OK();
}

}  // namespace

Status CheckDirectoryExes(const FooterData& footer, const EntityStore& store) {
  for (const PartitionDirEntry& entry : footer.partitions) {
    if (!entry.exe_counts.empty() &&
        entry.exe_counts.back().first >= store.exe_names().size()) {
      return Status::Corruption("snapshot directory names an unknown exe");
    }
  }
  return Status::OK();
}

Status DecodeFooter(std::string_view bytes, uint64_t data_end,
                    FooterData* footer) {
  Cursor cur(bytes);
  footer->options.partition_duration = cur.I64();
  footer->options.dedup_window = cur.I64();
  if (cur.Byte() != kPartitionedOptionsByte && cur.ok()) {
    return Status::InvalidArgument(
        "unpartitioned snapshots are unsupported");
  }
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
    PartitionDirEntry& entry = footer->partitions.emplace_back();
    entry.bucket = cur.I64();
    entry.agent = static_cast<AgentId>(cur.U64());
    entry.seq = static_cast<uint32_t>(cur.U64());
    AIQL_RETURN_IF_ERROR(DecodeSegmentRef(&cur, data_end, &entry.segment));
    AIQL_RETURN_IF_ERROR(DecodeDirStats(&cur, &entry));
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

/// The value columns are five packed streams of n values each, and a
/// packed block of 128 values takes at least two bytes (a one-byte base and
/// a zero width), so a segment holds fewer than 13 events per byte.
constexpr uint64_t kMaxEventsPerSegmentByte = 16;

Status DecodePartitionSegment(std::string_view bytes,
                              const PartitionDirEntry& entry,
                              const EntityStore& store,
                              EventPartition* partition) {
  // One pass over the segment in its stored order, straight into the
  // columns. Wrapped or out-of-domain values are caught by the check pass
  // at the end, which checks every event once.
  Cursor cur(bytes);
  uint64_t n64 = cur.U64();
  if (!cur.ok() || n64 != entry.events ||
      n64 / kMaxEventsPerSegmentByte > bytes.size()) {
    return Status::Corruption("partition segment event count mismatch");
  }
  const size_t n = static_cast<size_t>(n64);
  SealedPartitionParts parts;
  EventColumns& cols = parts.columns;

  cols.start_ts.resize(n);
  if (n > 0) {
    uint64_t start = static_cast<uint64_t>(cur.I64());
    cols.start_ts[0] = static_cast<Timestamp>(start);
    UnpackColumn(&cur, cols.start_ts.data() + 1, n - 1,
                 [&](uint64_t delta, size_t) {
                   start += delta;
                   return static_cast<Timestamp>(start);
                 });
  }
  cols.end_ts.resize(n);
  UnpackColumn(&cur, cols.end_ts.data(), n,
               [&](uint64_t duration, size_t i) {
                 return static_cast<Timestamp>(
                     static_cast<uint64_t>(cols.start_ts[i]) + duration);
               });
  // Entity ids are 32-bit; OR-ing the raw values exposes any wider one.
  uint64_t id_bits = 0;
  auto entity_id = [&](uint64_t id, size_t) {
    id_bits |= id;
    return static_cast<EntityId>(id);
  };
  cols.subject.resize(n);
  UnpackColumn(&cur, cols.subject.data(), n, entity_id);
  cols.object.resize(n);
  UnpackColumn(&cur, cols.object.data(), n, entity_id);
  if (id_bits > UINT32_MAX) {
    return Status::Corruption("partition references unknown entities");
  }
  // The agent runs carry no column: each must name the directory entry's
  // agent, so a segment cannot relabel its events.
  for (size_t covered = 0; covered < n;) {
    uint64_t agent = cur.U64();
    uint64_t run = cur.U64();
    if (!cur.ok() || agent != entry.agent || run == 0 || run > n - covered) {
      return Status::Corruption("partition agent runs corrupt");
    }
    covered += static_cast<size_t>(run);
  }
  parts.agent = entry.agent;
  cols.amount.resize(n);
  UnpackColumn(&cur, cols.amount.data(), n,
               [](uint64_t amount, size_t) { return amount; });
  // Merge counts lie in [1, 2^32): count - 1 wraps a zero past the bound.
  uint64_t merge_out_of_range = 0;
  cols.merge_count.resize(n);
  UnpackColumn(&cur, cols.merge_count.data(), n,
               [&](uint64_t count, size_t) {
                 merge_out_of_range |=
                     static_cast<uint64_t>(count - 1 >= UINT32_MAX);
                 return static_cast<uint32_t>(count);
               });
  if (merge_out_of_range != 0) {
    return Status::Corruption("partition merge counts corrupt");
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
    if (!cur.Packed(count, [&](const uint64_t* deltas, size_t m,
                               size_t first) {
          for (size_t i = 0; i < m; ++i) {
            if (deltas[i] >= n - index) return false;
            index += deltas[i];
            if (cols.op[index] != kNoOp) return false;
            cols.op[index] = static_cast<OpType>(op);
            list.indexes[first + i] = static_cast<uint32_t>(index);
          }
          return true;
        })) {
      return Status::Corruption("partition posting lists corrupt");
    }
    if (count > 0) {
      list.min_start_ts = cols.start_ts[list.indexes.front()];
      list.max_start_ts = cols.start_ts[list.indexes.back()];
    }
    total_postings += count;
  }
  if (total_postings != n) {
    return Status::Corruption("partition posting lists do not cover events");
  }

  // The directory's op fences must be the postings' zone maps on the
  // fence grid.
  for (int op = 0; op < kNumOpTypes; ++op) {
    const OpPostingList& list = parts.postings[op];
    if (list.empty()) continue;
    const StartFence fence = GridFence(entry.min_ts, entry.max_ts,
                                       list.min_start_ts, list.max_start_ts);
    if (fence.min_start_ts != entry.op_fences[op].min_start_ts ||
        fence.max_start_ts != entry.op_fences[op].max_start_ts) {
      return Status::Corruption("partition op fences disagree with footer");
    }
  }
  // Subject-exe statistics come from the directory entry, validated when
  // the footer was decoded (DecodeFooter, CheckDirectoryExes).
  parts.subject_exe_counts.insert(entry.exe_counts.begin(),
                                  entry.exe_counts.end());

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

  // Check pass: checks each event once — interval, (start, end) order,
  // entity-id bounds — while accumulating the bounds and raw count the
  // footer directory must agree with.
  const size_t num_processes = store.processes().size();
  std::array<size_t, kNumEntityTypes> num_objects;
  for (int t = 0; t < kNumEntityTypes; ++t) {
    num_objects[t] = store.NumEntities(static_cast<EntityType>(t));
  }
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
    raw += cols.merge_count[i];
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
  // The directory's entity summary must be the one these indexes build.
  if (BuildKeySummary(parts.subject_index, parts.object_index) !=
      entry.key_summary) {
    return Status::Corruption("partition entity summary disagrees with "
                              "footer");
  }

  partition->RestoreSealed(std::move(parts));
  return Status::OK();
}

}  // namespace snapfmt
}  // namespace aiql
