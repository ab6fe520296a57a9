#include "storage/database.h"

#include <algorithm>

#include "common/failpoint.h"
#include "storage/key_summary.h"
#include "storage/snapshot.h"
#include "storage/snapshot_format.h"
#include "storage/tiered.h"

namespace aiql {

bool PartitionStatsSelected(const TimeRange& range,
                            const std::optional<std::vector<AgentId>>& agents,
                            OpMask ops, SummaryKeyGroups* keys,
                            const PartitionStats& stats) {
  if (agents.has_value()) {
    bool found = std::find(agents->begin(), agents->end(),
                           stats.key.agent_id) != agents->end();
    if (!found) return false;
  }
  if (stats.events == 0) return false;
  // [min_ts, max_ts] overlaps [range.start, range.end), compared without
  // forming max_ts + 1, which overflows for an event ending at INT64_MAX.
  if (stats.max_ts < range.start || stats.min_ts >= range.end) return false;
  bool has_op = false;
  for (int op = 0; op < kNumOpTypes && !has_op; ++op) {
    has_op = ((ops >> op) & 1) != 0 && (*stats.op_counts)[op] > 0;
  }
  if (!has_op) return false;
  if (keys != nullptr && stats.key_summary != nullptr) {
    if (!keys->MayMatch(*stats.key_summary)) return false;
    if (!Failpoint::Hit("storage.summary.miss", stats.key.Fold()).ok()) {
      return false;
    }
  }
  return true;
}

namespace {

PartitionStats ResidentStats(const PartitionKey& key,
                             const EventPartition& partition) {
  return PartitionStats{key,
                        partition.min_ts(),
                        partition.max_ts(),
                        partition.size(),
                        &partition.op_counts(),
                        nullptr};
}

/// Events of `entry`'s ops in `ops` that start inside `range`, when its op
/// fences decide it: each fence lies wholly inside or wholly outside.
std::optional<uint64_t> FencedOpCount(const snapfmt::PartitionDirEntry& entry,
                                      OpMask ops, const TimeRange& range) {
  uint64_t total = 0;
  for (int op = 0; op < kNumOpTypes; ++op) {
    if (((ops >> op) & 1) == 0 || entry.op_counts[op] == 0) continue;
    const snapfmt::StartFence& fence = entry.op_fences[op];
    if (fence.min_start_ts >= range.end || fence.max_start_ts < range.start) {
      continue;
    }
    if (fence.min_start_ts < range.start || fence.max_start_ts >= range.end) {
      return std::nullopt;
    }
    total += entry.op_counts[op];
  }
  return total;
}

uint64_t DirectoryExeCount(const snapfmt::PartitionDirEntry& entry,
                           StringId exe) {
  auto it = std::lower_bound(
      entry.exe_counts.begin(), entry.exe_counts.end(), exe,
      [](const std::pair<StringId, uint64_t>& e, StringId id) {
        return e.first < id;
      });
  return it != entry.exe_counts.end() && it->first == exe ? it->second : 0;
}

}  // namespace

// --- ReadView ---------------------------------------------------------------

template <typename Fn>
Status ReadView::ForEachPartition(const Fn& fn) const {
  // Both lists are ordered by (bucket, agent, seq), and within one
  // (bucket, agent) the cold partitions carry the lower seqs (they were
  // sealed, and demoted, before any resident sibling existed). Emitting
  // cold before resident on a key tie therefore preserves the all-hot
  // order, which is what makes tiered results byte-identical.
  size_t hot = 0;
  size_t cold = 0;
  while (hot < partitions_.size() || cold < cold_.size()) {
    bool take_cold = hot == partitions_.size();
    if (!take_cold && cold < cold_.size()) {
      const PartitionKey& hk = partitions_[hot].first;
      take_cold = std::pair<int64_t, AgentId>(cold_[cold]->bucket,
                                              cold_[cold]->agent) <=
                  std::pair<int64_t, AgentId>(hk.bucket, hk.agent_id);
    }
    if (take_cold) {
      AIQL_RETURN_IF_ERROR(fn(cold_[cold]->Stats(), nullptr, cold));
      ++cold;
    } else {
      const auto& [key, partition] = partitions_[hot++];
      AIQL_RETURN_IF_ERROR(fn(ResidentStats(key, *partition), partition, 0));
    }
  }
  return Status::OK();
}

Result<const EventPartition*> ReadView::MaterializeCold(size_t index) const {
  std::shared_ptr<const EventPartition> pin;
  if (tiered_ != nullptr) {
    const auto& dir =
        *static_cast<const TieredStore::ColdDir*>(tiered_cold_.get());
    AIQL_ASSIGN_OR_RETURN(pin, tiered_->MaterializeCold(*dir[index]));
  } else {
    AIQL_ASSIGN_OR_RETURN(pin, store_->MaterializePartition(index));
  }
  const EventPartition* partition = pin.get();
  pins_->Add(std::move(pin));
  return partition;
}

Result<std::vector<std::pair<PartitionKey, const EventPartition*>>>
ReadView::SelectPartitions(const TimeRange& range,
                           const std::optional<std::vector<AgentId>>& agents,
                           OpMask ops, SummaryKeyGroups* keys) const {
  std::vector<std::pair<PartitionKey, const EventPartition*>> out;
  AIQL_RETURN_IF_ERROR(ForEachPartition(
      [&](const PartitionStats& stats, const EventPartition* partition,
          size_t cold) -> Status {
        if (!PartitionStatsSelected(range, agents, ops, keys, stats)) {
          return Status::OK();
        }
        if (partition == nullptr) {
          AIQL_ASSIGN_OR_RETURN(partition, MaterializeCold(cold));
        }
        out.emplace_back(stats.key, partition);
        return Status::OK();
      }));
  return out;
}

Result<ReadView::EstimateCounts> ReadView::CountForEstimate(
    const TimeRange& range, const std::optional<std::vector<AgentId>>& agents,
    OpMask ops, const std::vector<StringId>& exes) const {
  EstimateCounts counts;
  AIQL_RETURN_IF_ERROR(ForEachPartition(
      [&](const PartitionStats& stats, const EventPartition* partition,
          size_t cold) -> Status {
        if (!PartitionStatsSelected(range, agents, kAllOps, nullptr, stats)) {
          return Status::OK();
        }
        if (partition == nullptr) {
          const snapfmt::PartitionDirEntry& entry = *cold_[cold];
          for (StringId exe : exes) {
            counts.exe_events += DirectoryExeCount(entry, exe);
          }
          if (std::optional<uint64_t> fenced =
                  FencedOpCount(entry, ops, range)) {
            counts.op_events += *fenced;
            return Status::OK();
          }
          AIQL_ASSIGN_OR_RETURN(partition, MaterializeCold(cold));
        } else {
          for (StringId exe : exes) {
            counts.exe_events += partition->SubjectExeCount(exe);
          }
        }
        // Posting lists give the exact op count inside the range
        // (zone-map clipped, then binary searched).
        counts.op_events += partition->OpCountInRange(ops, range);
        return Status::OK();
      }));
  return counts;
}

// --- AuditDatabase ----------------------------------------------------------

AuditDatabase::AuditDatabase(StorageOptions options)
    : options_(options), sync_(std::make_unique<Sync>()) {
  if (options_.partition_duration <= 0) options_.partition_duration = kHour;
  if (options_.batch_commit_size == 0) options_.batch_commit_size = 1;
}

AuditDatabase::~AuditDatabase() {
  if (sync_ != nullptr) WaitForBackgroundSeals();
}

Status AuditDatabase::ValidateRecord(EventRecord* record) const {
  if (record->end_ts == 0) record->end_ts = record->start_ts;
  if (record->end_ts < record->start_ts) {
    return Status::InvalidArgument("event ends before it starts");
  }
  if (record->subject.exe_name.empty()) {
    return Status::InvalidArgument("event subject has no executable name");
  }
  return Status::OK();
}

Status AuditDatabase::Append(EventRecord record) {
  if (sealed()) {
    return Status::InvalidArgument("database is sealed");
  }
  AIQL_RETURN_IF_ERROR(ValidateRecord(&record));
  pending_.push_back(std::move(record));
  if (pending_.size() >= options_.batch_commit_size) return Flush();
  return Status::OK();
}

Status AuditDatabase::AppendBatch(std::vector<EventRecord> records) {
  if (sealed()) {
    return Status::InvalidArgument("database is sealed");
  }
  // All-or-nothing: validate the whole batch before buffering anything, so
  // a malformed record mid-batch leaves the database unchanged.
  for (EventRecord& record : records) {
    AIQL_RETURN_IF_ERROR(ValidateRecord(&record));
  }
  pending_.reserve(pending_.size() + records.size());
  for (EventRecord& record : records) {
    pending_.push_back(std::move(record));
  }
  if (pending_.size() >= options_.batch_commit_size) return Flush();
  return Status::OK();
}

Status AuditDatabase::Flush() {
  if (pending_.empty()) return Status::OK();
  std::vector<EventRecord> batch;
  batch.swap(pending_);
  std::unique_lock<std::shared_mutex> lock(sync_->state_mu);
  Status first_error;
  for (const EventRecord& record : batch) {
    // Records were validated in Append; a commit failure here is an
    // invariant violation — propagate it instead of discarding it.
    Status status = CommitRecordLocked(record);
    if (!status.ok() && first_error.ok()) first_error = std::move(status);
  }
  return first_error;
}

Status AuditDatabase::CommitRecordLocked(const EventRecord& record) {
  EntityId subject = entities_.InternProcess(record.subject);
  auto [object_type, object] = entities_.InternObject(record.object);

  Event event;
  event.start_ts = record.start_ts;
  event.end_ts = record.end_ts;
  event.amount = record.amount;
  event.subject = subject;
  event.object = object;
  event.agent_id = record.agent_id;
  event.merge_count = 1;
  event.op = record.op;
  event.object_type = object_type;

  int64_t bucket = record.start_ts / options_.partition_duration;
  if (record.start_ts < 0 &&
      record.start_ts % options_.partition_duration != 0) {
    bucket -= 1;  // floor division for negative timestamps
  }
  const AgentId agent = record.agent_id;
  // Bucket rotation: once this agent's stream moves into a later bucket,
  // its older open partitions can no longer grow — seal them.
  auto [clock_it, first_seen] = agent_clock_.try_emplace(agent, bucket);
  if (!first_seen && bucket > clock_it->second) {
    RotateAgentLocked(agent, bucket);
    clock_it->second = bucket;
  }
  EventPartition* partition = GetOrCreatePartitionLocked(bucket, agent);
  StringId exe = entities_.processes()[subject].exe_name;
  bool merged = partition->AppendWithExe(event, exe, options_.dedup_window);

  stats_.raw_events += 1;
  if (!merged) {
    stats_.total_events += 1;
    stats_.op_counts[static_cast<size_t>(event.op)] += 1;
  }
  if (event.start_ts < stats_.min_ts) stats_.min_ts = event.start_ts;
  if (event.end_ts > stats_.max_ts) stats_.max_ts = event.end_ts;

  if (options_.max_partition_events != 0 &&
      partition->size() >= options_.max_partition_events) {
    CloseAndSealLocked(std::make_pair(bucket, agent));
  }
  return Status::OK();
}

EventPartition* AuditDatabase::GetOrCreatePartitionLocked(int64_t bucket,
                                                          AgentId agent) {
  auto open_key = std::make_pair(bucket, agent);
  auto open_it = open_.find(open_key);
  if (open_it != open_.end()) return open_it->second.second;

  // A rollover (size threshold) or a late arrival into an already-rotated
  // bucket continues in a fresh partition of the same (bucket, agent): the
  // next free seq after the existing ones.
  uint32_t seq = 0;
  auto hint = partitions_.upper_bound(PartitionMapKey{bucket, agent, UINT32_MAX});
  if (hint != partitions_.begin()) {
    const PartitionMapKey& prev = std::prev(hint)->first;
    if (std::get<0>(prev) == bucket && std::get<1>(prev) == agent) {
      seq = std::get<2>(prev) + 1;
    }
  }
  auto it = partitions_.emplace_hint(hint, PartitionMapKey{bucket, agent, seq},
                                     std::make_unique<EventPartition>(agent));
  stats_.total_partitions += 1;
  EventPartition* partition = it->second.get();
  open_.emplace(open_key, std::make_pair(seq, partition));
  return partition;
}

void AuditDatabase::CloseAndSealLocked(std::pair<int64_t, AgentId> key) {
  auto it = open_.find(key);
  if (it == open_.end()) return;
  EventPartition* partition = it->second.second;
  open_.erase(it);
  if (!partition->TryBeginSeal()) return;  // already handed off
  stats_.partitions_sealed += 1;
  if (options_.seal_pool != nullptr) {
    {
      std::lock_guard<std::mutex> seal_lock(sync_->seal_mu);
      sync_->seals_in_flight += 1;
    }
    // The task runs without the state mutex: the partition is unreachable
    // for writes once closed, and readers ignore it until FinishSeal()
    // publishes the sealed flag. Sync outlives the task: the database's
    // destructor (and final Seal()) wait for seals_in_flight to drain.
    Sync* sync = sync_.get();
    options_.seal_pool->Submit([sync, partition] {
      partition->FinishSeal();
      // Notify while holding seal_mu: a waiter (final Seal, destructor) may
      // destroy the condition variable as soon as it observes zero seals in
      // flight, so the notification must complete before the lock releases.
      std::lock_guard<std::mutex> seal_lock(sync->seal_mu);
      sync->seals_in_flight -= 1;
      sync->seal_cv.notify_all();
    });
  } else {
    partition->FinishSeal();
  }
}

void AuditDatabase::RotateAgentLocked(AgentId agent, int64_t bucket) {
  std::vector<std::pair<int64_t, AgentId>> to_close;
  for (const auto& [key, open] : open_) {
    if (key.second == agent && key.first < bucket) to_close.push_back(key);
  }
  for (const auto& key : to_close) CloseAndSealLocked(key);
}

void AuditDatabase::WaitForBackgroundSeals() {
  std::unique_lock<std::mutex> lock(sync_->seal_mu);
  sync_->seal_cv.wait(lock, [&] { return sync_->seals_in_flight == 0; });
}

Status AuditDatabase::Seal() {
  AIQL_RETURN_IF_ERROR(Failpoint::Hit("db.seal"));
  Status status = Flush();
  {
    std::unique_lock<std::shared_mutex> lock(sync_->state_mu);
    open_.clear();
    agent_clock_.clear();
    sync_->finalized.store(true, std::memory_order_release);
  }
  WaitForBackgroundSeals();
  // The map can no longer change (finalized; no commits, no rotations), so
  // the remaining unsealed partitions can be sealed without the state
  // mutex; concurrent views skip them until their sealed flag publishes.
  uint64_t newly_sealed = 0;
  for (auto& [key, partition] : partitions_) {
    if (partition->TryBeginSeal()) {
      partition->FinishSeal();
      newly_sealed += 1;
    }
  }
  if (newly_sealed > 0) {
    std::unique_lock<std::shared_mutex> lock(sync_->state_mu);
    stats_.partitions_sealed += newly_sealed;
  }
  return status;
}

void AuditDatabase::AdoptSealedPartition(
    int64_t bucket, AgentId agent, std::unique_ptr<EventPartition> partition) {
  std::unique_lock<std::shared_mutex> lock(sync_->state_mu);
  uint32_t seq = 0;
  auto hint =
      partitions_.upper_bound(PartitionMapKey{bucket, agent, UINT32_MAX});
  if (hint != partitions_.begin()) {
    const PartitionMapKey& prev = std::prev(hint)->first;
    if (std::get<0>(prev) == bucket && std::get<1>(prev) == agent) {
      seq = std::get<2>(prev) + 1;
    }
  }
  partitions_.emplace_hint(hint, PartitionMapKey{bucket, agent, seq},
                           std::move(partition));
}

void AuditDatabase::FinishRestore() {
  std::unique_lock<std::shared_mutex> lock(sync_->state_mu);
  stats_ = DatabaseStats{};
  stats_.total_partitions = partitions_.size();
  stats_.partitions_sealed = partitions_.size();
  for (const auto& [key, partition] : partitions_) {
    stats_.total_events += partition->size();
    stats_.raw_events += partition->raw_event_count();
    for (int op = 0; op < kNumOpTypes; ++op) {
      stats_.op_counts[op] += partition->OpCount(static_cast<OpType>(op));
    }
    if (partition->size() > 0) {
      stats_.min_ts = std::min(stats_.min_ts, partition->min_ts());
      stats_.max_ts = std::max(stats_.max_ts, partition->max_ts());
    }
  }
  open_.clear();
  agent_clock_.clear();
  sync_->finalized.store(true, std::memory_order_release);
}

std::vector<std::pair<PartitionMapKey, const EventPartition*>>
AuditDatabase::ListSealedPartitions() const {
  std::shared_lock<std::shared_mutex> lock(sync_->state_mu);
  std::vector<std::pair<PartitionMapKey, const EventPartition*>> out;
  out.reserve(partitions_.size());
  for (const auto& [key, partition] : partitions_) {
    if (!partition->sealed()) continue;
    out.emplace_back(key, partition.get());
  }
  return out;
}

void AuditDatabase::ExtractSealedPartitions(
    const std::vector<PartitionMapKey>& keys,
    const std::function<void(const PartitionMapKey&,
                             std::unique_ptr<EventPartition>)>& sink) {
  std::unique_lock<std::shared_mutex> lock(sync_->state_mu);
  for (const PartitionMapKey& key : keys) {
    auto it = partitions_.find(key);
    if (it == partitions_.end() || !it->second->sealed()) continue;
    std::unique_ptr<EventPartition> partition = std::move(it->second);
    partitions_.erase(it);
    sink(key, std::move(partition));
  }
}

Status AuditDatabase::ReplaceSealedPartitions(
    const std::vector<PartitionMapKey>& old_keys,
    std::unique_ptr<EventPartition> merged) {
  if (old_keys.empty() || merged == nullptr || !merged->sealed()) {
    return Status::InvalidArgument("merge replacement needs sealed input");
  }
  std::unique_lock<std::shared_mutex> lock(sync_->state_mu);
  uint32_t lowest_seq = UINT32_MAX;
  for (const PartitionMapKey& key : old_keys) {
    if (std::get<0>(key) != std::get<0>(old_keys[0]) ||
        std::get<1>(key) != std::get<1>(old_keys[0])) {
      return Status::InvalidArgument(
          "merge replacement spans multiple (bucket, agent) groups");
    }
    auto it = partitions_.find(key);
    if (it == partitions_.end() || !it->second->sealed()) {
      return Status::InvalidArgument(
          "merge replacement names a missing or unsealed partition");
    }
    lowest_seq = std::min(lowest_seq, std::get<2>(key));
  }
  for (const PartitionMapKey& key : old_keys) partitions_.erase(key);
  partitions_.emplace(PartitionMapKey{std::get<0>(old_keys[0]),
                                      std::get<1>(old_keys[0]), lowest_seq},
                      std::move(merged));
  return Status::OK();
}

ReadView AuditDatabase::OpenReadView() const {
  ReadView view;
  view.lock_ = std::shared_lock<std::shared_mutex>(sync_->state_mu);
  view.entities_ = &entities_;
  view.options_ = &options_;
  view.stats_ = stats_;
  view.partitions_.reserve(partitions_.size());
  for (const auto& [key, partition] : partitions_) {
    if (!partition->sealed()) continue;
    view.partitions_.emplace_back(
        PartitionKey{std::get<0>(key), std::get<1>(key)}, partition.get());
    view.visible_events_ += partition->size();
  }
  return view;
}

DatabaseStats AuditDatabase::StatsSnapshot() const {
  std::shared_lock<std::shared_mutex> lock(sync_->state_mu);
  return stats_;
}

}  // namespace aiql
