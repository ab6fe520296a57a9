#include "storage/partition.h"

#include <algorithm>

namespace aiql {

bool EventPartition::Append(const Event& event, Duration dedup_window) {
  return AppendWithExe(event, kInvalidStringId, dedup_window);
}

bool EventPartition::AppendWithExe(const Event& event, StringId subject_exe,
                                   Duration dedup_window) {
  raw_count_ += 1;
  if (dedup_window > 0) {
    MergeKey key{event.subject, event.object, event.op, event.object_type};
    auto it = merge_tail_.find(key);
    if (it != merge_tail_.end()) {
      Event& tail = events_[it->second];
      if (event.start_ts >= tail.start_ts &&
          event.start_ts - tail.end_ts <= dedup_window) {
        tail.end_ts = std::max(tail.end_ts, event.end_ts);
        tail.amount += event.amount;
        tail.merge_count += event.merge_count;
        if (tail.end_ts > max_ts_) max_ts_ = tail.end_ts;
        return true;
      }
      it->second = events_.size();
      events_.push_back(event);
      AccountEvent(event, subject_exe);
      return false;
    }
    merge_tail_.emplace(key, events_.size());
  }
  events_.push_back(event);
  AccountEvent(event, subject_exe);
  return false;
}

void EventPartition::AccountEvent(const Event& event, StringId subject_exe) {
  if (event.start_ts < min_ts_) min_ts_ = event.start_ts;
  if (event.end_ts > max_ts_) max_ts_ = event.end_ts;
  op_counts_[static_cast<size_t>(event.op)] += 1;
  if (subject_exe != kInvalidStringId) {
    subject_exe_counts_[subject_exe] += 1;
  }
}

void EventPartition::Seal() {
  if (TryBeginSeal()) FinishSeal();
}

bool EventPartition::TryBeginSeal() {
  uint8_t expected = kOpen;
  return seal_state_.compare_exchange_strong(expected, kSealing,
                                             std::memory_order_acq_rel);
}

void EventPartition::FinishSeal() {
  std::sort(events_.begin(), events_.end(),
            [](const Event& a, const Event& b) {
              if (a.start_ts != b.start_ts) return a.start_ts < b.start_ts;
              return a.end_ts < b.end_ts;
            });
  merge_tail_.clear();
  BuildSealArtifacts();
  seal_state_.store(kSealed, std::memory_order_release);
}

void EventColumns::Clear() {
  start_ts.clear();
  end_ts.clear();
  subject.clear();
  object.clear();
  agent_id.clear();
  amount.clear();
  op.clear();
  object_type.clear();
}

void EventColumns::Reserve(size_t n) {
  start_ts.reserve(n);
  end_ts.reserve(n);
  subject.reserve(n);
  object.reserve(n);
  agent_id.reserve(n);
  amount.reserve(n);
  op.reserve(n);
  object_type.reserve(n);
}

void EventColumns::PushBack(const Event& event) {
  start_ts.push_back(event.start_ts);
  end_ts.push_back(event.end_ts);
  subject.push_back(event.subject);
  object.push_back(event.object);
  agent_id.push_back(event.agent_id);
  amount.push_back(event.amount);
  op.push_back(event.op);
  object_type.push_back(event.object_type);
}

void EntityPostingIndex::Clear() {
  keys.clear();
  offsets.clear();
  indexes.clear();
}

std::pair<const uint32_t*, const uint32_t*> EntityPostingIndex::Lookup(
    uint64_t key) const {
  auto it = std::lower_bound(keys.begin(), keys.end(), key);
  if (it == keys.end() || *it != key) return {nullptr, nullptr};
  size_t slot = static_cast<size_t>(it - keys.begin());
  return {indexes.data() + offsets[slot], indexes.data() + offsets[slot + 1]};
}

namespace {

/// Builds a CSR index from per-event keys: sort (key, event index) pairs —
/// ties keep ascending event index, so each group stays time-sorted — then
/// split into groups.
void BuildEntityIndex(const std::vector<uint64_t>& event_keys,
                      EntityPostingIndex* index) {
  index->Clear();
  const size_t n = event_keys.size();
  if (n == 0) return;
  std::vector<std::pair<uint64_t, uint32_t>> kv;
  kv.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    kv.emplace_back(event_keys[i], static_cast<uint32_t>(i));
  }
  std::sort(kv.begin(), kv.end());
  index->indexes.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    if (i == 0 || kv[i].first != kv[i - 1].first) {
      index->keys.push_back(kv[i].first);
      index->offsets.push_back(static_cast<uint32_t>(i));
    }
    index->indexes.push_back(kv[i].second);
  }
  index->offsets.push_back(static_cast<uint32_t>(n));
}

}  // namespace

void EventPartition::BuildSealArtifacts() {
  columns_.Clear();
  columns_.Reserve(events_.size());
  for (OpPostingList& list : op_postings_) {
    list.indexes.clear();
    list.min_start_ts = INT64_MAX;
    list.max_start_ts = INT64_MIN;
  }
  for (size_t i = 0; i < op_postings_.size(); ++i) {
    op_postings_[i].indexes.reserve(op_counts_[i]);
  }
  for (size_t i = 0; i < events_.size(); ++i) {
    const Event& event = events_[i];
    columns_.PushBack(event);
    OpPostingList& list = op_postings_[static_cast<size_t>(event.op)];
    list.indexes.push_back(static_cast<uint32_t>(i));
    if (event.start_ts < list.min_start_ts) list.min_start_ts = event.start_ts;
    if (event.start_ts > list.max_start_ts) list.max_start_ts = event.start_ts;
  }

  // Reverse entity indexes (per-subject / per-object event postings) for
  // provenance frontier expansion.
  std::vector<uint64_t> keys(events_.size());
  for (size_t i = 0; i < events_.size(); ++i) keys[i] = events_[i].subject;
  BuildEntityIndex(keys, &subject_index_);
  for (size_t i = 0; i < events_.size(); ++i) {
    keys[i] = ObjectKey(events_[i].object_type, events_[i].object);
  }
  BuildEntityIndex(keys, &object_index_);
}

std::pair<size_t, size_t> EventPartition::PostingRange(
    OpType op, const TimeRange& range) const {
  const OpPostingList& list = op_postings_[static_cast<size_t>(op)];
  if (list.empty() || list.min_start_ts >= range.end ||
      list.max_start_ts < range.start) {
    return {0, 0};
  }
  auto starts_before = [this](uint32_t index, Timestamp t) {
    return columns_.start_ts[index] < t;
  };
  auto lo = list.indexes.begin();
  auto hi = list.indexes.end();
  if (list.min_start_ts < range.start) {
    lo = std::lower_bound(lo, hi, range.start, starts_before);
  }
  if (list.max_start_ts >= range.end) {
    hi = std::lower_bound(lo, hi, range.end, starts_before);
  }
  return {static_cast<size_t>(lo - list.indexes.begin()),
          static_cast<size_t>(hi - list.indexes.begin())};
}

uint64_t EventPartition::OpCountInRange(OpMask mask,
                                        const TimeRange& range) const {
  uint64_t total = 0;
  for (int i = 0; i < kNumOpTypes; ++i) {
    if ((mask & (1u << i)) == 0) continue;
    auto [lo, hi] = PostingRange(static_cast<OpType>(i), range);
    total += hi - lo;
  }
  return total;
}

size_t EventPartition::MemoryFootprint() const {
  size_t bytes = events_.size() * sizeof(Event);
  bytes += columns_.size() *
           (sizeof(Timestamp) * 2 + sizeof(EntityId) * 2 + sizeof(AgentId) +
            sizeof(uint64_t) + sizeof(OpType) + sizeof(EntityType));
  for (const OpPostingList& list : op_postings_) {
    bytes += list.indexes.size() * sizeof(uint32_t);
  }
  for (const EntityPostingIndex* index : {&subject_index_, &object_index_}) {
    bytes += index->keys.size() * sizeof(uint64_t);
    bytes += index->offsets.size() * sizeof(uint32_t);
    bytes += index->indexes.size() * sizeof(uint32_t);
  }
  // Hash maps: approximate per-entry overhead (node + bucket pointer).
  bytes += subject_exe_counts_.size() * (sizeof(StringId) + sizeof(uint64_t) +
                                         2 * sizeof(void*));
  bytes += merge_tail_.size() * (sizeof(MergeKey) + sizeof(size_t) +
                                 2 * sizeof(void*));
  return bytes;
}

uint64_t EventPartition::SubjectExeCount(StringId exe) const {
  auto it = subject_exe_counts_.find(exe);
  return it == subject_exe_counts_.end() ? 0 : it->second;
}

size_t EventPartition::LowerBound(Timestamp t) const {
  if (sealed()) {
    // Binary search the dense timestamp column: ~6x fewer bytes per probe
    // than striding over 48-byte Event rows.
    auto it = std::lower_bound(columns_.start_ts.begin(),
                               columns_.start_ts.end(), t);
    return static_cast<size_t>(it - columns_.start_ts.begin());
  }
  auto it = std::lower_bound(
      events_.begin(), events_.end(), t,
      [](const Event& e, Timestamp ts) { return e.start_ts < ts; });
  return static_cast<size_t>(it - events_.begin());
}

void EventPartition::RestoreSealed(SealedPartitionParts parts) {
  events_ = std::move(parts.events);
  columns_ = std::move(parts.columns);
  op_postings_ = std::move(parts.postings);
  subject_index_ = std::move(parts.subject_index);
  object_index_ = std::move(parts.object_index);
  subject_exe_counts_ = std::move(parts.subject_exe_counts);
  min_ts_ = parts.min_ts;
  max_ts_ = parts.max_ts;
  raw_count_ = parts.raw_count;
  for (size_t op = 0; op < op_postings_.size(); ++op) {
    op_counts_[op] = op_postings_[op].indexes.size();
  }
  merge_tail_.clear();
  seal_state_.store(kSealed, std::memory_order_release);
}

void EventPartition::RebuildStats(
    const std::vector<ProcessEntity>& processes) {
  op_counts_.fill(0);
  subject_exe_counts_.clear();
  min_ts_ = INT64_MAX;
  max_ts_ = INT64_MIN;
  raw_count_ = 0;
  for (const Event& event : events_) {
    raw_count_ += event.merge_count;
    StringId exe = event.subject < processes.size()
                       ? processes[event.subject].exe_name
                       : kInvalidStringId;
    AccountEvent(event, exe);
  }
}

}  // namespace aiql
