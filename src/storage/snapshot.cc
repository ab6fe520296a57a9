#include "storage/snapshot.h"

#include <algorithm>
#include <array>
#include <cstring>
#include <string_view>
#include <unordered_map>

#include "common/cancellation.h"
#include "common/checksum.h"
#include "common/failpoint.h"
#include "common/varint.h"
#include "storage/partition_cache.h"
#include "storage/snapshot_format.h"

#if !defined(_WIN32)
#include <fcntl.h>   // open, O_DIRECTORY
#include <unistd.h>  // fsync, fileno, close
#endif

namespace aiql {

// Byte-layout helpers (header/footer/segment codecs, cursor, 64-bit seek)
// live in storage/snapshot_format.{h,cc}, shared with the append-log
// writer so both stores produce and validate identical bytes.
using namespace snapfmt;  // NOLINT(build/namespaces)

namespace {

// Magic of the retired v1 single-blob format, recognized only to refuse it
// with a clear message.
constexpr uint64_t kV1Magic = 0x4149514C534E5031ULL;  // "AIQLSNP1"

// --- file sink ---------------------------------------------------------------

class FileSnapshotSink : public SnapshotSink {
 public:
  explicit FileSnapshotSink(FILE* file, std::string path)
      : file_(file), path_(std::move(path)) {}

  ~FileSnapshotSink() override {
    if (file_ != nullptr) std::fclose(file_);
  }

  Status Append(const void* data, size_t n) override {
    AIQL_RETURN_IF_ERROR(Failpoint::Hit("snapshot.sink.append"));
    size_t written = std::fwrite(data, 1, n, file_);
    if (written != n) {
      return Status::IOError("short write to '" + path_ + "' (" +
                             std::to_string(written) + " of " +
                             std::to_string(n) + " bytes)");
    }
    return Status::OK();
  }

  Status Sync() override {
    AIQL_RETURN_IF_ERROR(Failpoint::Hit("snapshot.sink.sync"));
    if (std::fflush(file_) != 0) {
      return Status::IOError("flush failed for '" + path_ + "'");
    }
#if !defined(_WIN32)
    if (fsync(fileno(file_)) != 0) {
      return Status::IOError("fsync failed for '" + path_ + "'");
    }
#endif
    return Status::OK();
  }

  Status Close() override {
    FILE* file = file_;
    file_ = nullptr;
    if (file != nullptr && std::fclose(file) != 0) {
      return Status::IOError("close failed for '" + path_ + "'");
    }
    return Status::OK();
  }

 private:
  FILE* file_;
  std::string path_;
};

struct FileCloser {
  void operator()(FILE* f) const {
    if (f != nullptr) std::fclose(f);
  }
};
using FilePtr = std::unique_ptr<FILE, FileCloser>;

}  // namespace

// =============================================================================
// public save paths
// =============================================================================

Status SaveSnapshotToSink(const AuditDatabase& db, SnapshotSink* sink) {
  if (!db.sealed()) {
    return Status::InvalidArgument("cannot snapshot an unsealed database");
  }

  std::string header;
  EncodeHeader(&header);
  AIQL_RETURN_IF_ERROR(sink->Append(header.data(), header.size()));
  uint64_t offset = header.size();

  FooterData dir;
  dir.options = db.options();
  dir.stats = db.stats();

  std::string segment;
  EncodeMetaSegment(db.entities(), &segment);
  dir.meta = SegmentRef{offset, segment.size(), Checksum64(segment)};
  AIQL_RETURN_IF_ERROR(sink->Append(segment.data(), segment.size()));
  offset += segment.size();

  dir.partitions.reserve(db.partitions().size());
  for (const auto& [key, partition] : db.partitions()) {
    segment.clear();
    EncodePartitionSegment(*partition, &segment);
    SegmentRef ref{offset, segment.size(), Checksum64(segment)};
    dir.partitions.push_back(MakeDirEntry(std::get<0>(key), std::get<1>(key),
                                          std::get<2>(key), ref, *partition));
    AIQL_RETURN_IF_ERROR(sink->Append(segment.data(), segment.size()));
    offset += segment.size();
  }

  std::string footer;
  EncodeFooter(dir, &footer);
  AIQL_RETURN_IF_ERROR(sink->Append(footer.data(), footer.size()));
  std::string trailer;
  EncodeTrailer(offset, Checksum64(footer), &trailer);
  AIQL_RETURN_IF_ERROR(sink->Append(trailer.data(), trailer.size()));

  AIQL_RETURN_IF_ERROR(sink->Sync());
  return sink->Close();
}

Status SaveSnapshot(const AuditDatabase& db, const std::string& path) {
  std::string tmp_path = path + ".tmp";
  FILE* file = std::fopen(tmp_path.c_str(), "wb");
  if (file == nullptr) {
    return Status::IOError("cannot open '" + tmp_path + "' for writing");
  }
  FileSnapshotSink sink(file, tmp_path);
  Status status = SaveSnapshotToSink(db, &sink);
  if (!status.ok()) {
    std::remove(tmp_path.c_str());
    return status;
  }
  if (std::rename(tmp_path.c_str(), path.c_str()) != 0) {
    std::remove(tmp_path.c_str());
    return Status::IOError("cannot move snapshot into place at '" + path +
                           "'");
  }
#if !defined(_WIN32)
  // The rename itself must reach the journal, or a power loss can undo an
  // already-reported-durable save.
  size_t slash = path.find_last_of('/');
  std::string dir = slash == std::string::npos ? "." : path.substr(0, slash);
  if (dir.empty()) dir = "/";
  int dir_fd = open(dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (dir_fd < 0) {
    return Status::IOError("cannot open directory '" + dir +
                           "' to sync snapshot rename");
  }
  int rc = fsync(dir_fd);
  close(dir_fd);
  if (rc != 0) {
    return Status::IOError("fsync of directory '" + dir + "' failed");
  }
#endif
  return Status::OK();
}

// =============================================================================
// SnapshotStore
// =============================================================================

struct SnapshotStore::PartitionHandle {
  PartitionDirEntry entry;
  // Keep-forever mode (no cache): `storage` owns the partition, `loaded`
  // publishes it for the lock-free fast path.
  std::atomic<const EventPartition*> loaded{nullptr};
  std::unique_ptr<EventPartition> storage;  // guarded by load_mu_
  // Cache mode: ownership lives in the cache + query pins; `weak` revives
  // a partition that was evicted while a query still pins it, `bytes`
  // remembers the footprint charged per residence. Guarded by load_mu_.
  std::weak_ptr<const EventPartition> weak;
  size_t bytes = 0;
};

SnapshotStore::~SnapshotStore() {
  if (cache_ != nullptr) cache_->EraseOwner(this);
  if (file_ != nullptr) std::fclose(file_);
}

void SnapshotStore::AttachCache(PartitionCache* cache) { cache_ = cache; }

Result<std::unique_ptr<SnapshotStore>> SnapshotStore::Open(
    const std::string& path) {
  FilePtr file(std::fopen(path.c_str(), "rb"));
  if (!file) {
    return Status::IOError("cannot open '" + path + "' for reading");
  }

  char header[kV2HeaderSize];
  if (std::fread(header, 1, sizeof(header), file.get()) != sizeof(header)) {
    return Status::Corruption("'" + path + "' is too short to be a snapshot");
  }
  uint64_t magic = GetFixed64(header);
  if (magic == kV1Magic) {
    return Status::InvalidArgument(
        "'" + path + "' is a v1 snapshot; snapshot format v1 is unsupported");
  }
  if (magic != kV2Magic) {
    return Status::Corruption("'" + path + "' is not an AIQL snapshot");
  }
  uint32_t version = GetFixed32(header + 8);
  if (version != kV2Version) {
    return Status::Corruption("snapshot format version " +
                              std::to_string(version) +
                              " unsupported (expected version " +
                              std::to_string(kV2Version) + ")");
  }

  if (Seek64(file.get(), 0, SEEK_END) != 0) {
    return Status::IOError("cannot seek in '" + path + "'");
  }
  int64_t file_size = Tell64(file.get());
  if (file_size < 0 ||
      static_cast<size_t>(file_size) < kV2HeaderSize + kV2TrailerSize) {
    return Status::Corruption("'" + path + "' is truncated");
  }

  char trailer[kV2TrailerSize];
  if (Seek64(file.get(), file_size - static_cast<int64_t>(kV2TrailerSize),
             SEEK_SET) != 0 ||
      std::fread(trailer, 1, sizeof(trailer), file.get()) !=
          sizeof(trailer)) {
    return Status::Corruption("cannot read snapshot trailer of '" + path +
                              "'");
  }
  uint64_t footer_offset = GetFixed64(trailer);
  uint64_t footer_checksum = GetFixed64(trailer + 8);
  if (GetFixed64(trailer + 16) != kV2Magic) {
    return Status::Corruption("snapshot trailer corrupt in '" + path +
                              "' (file truncated?)");
  }
  uint64_t trailer_offset =
      static_cast<uint64_t>(file_size) - kV2TrailerSize;
  if (footer_offset < kV2HeaderSize || footer_offset > trailer_offset) {
    return Status::Corruption("snapshot footer offset out of range in '" +
                              path + "'");
  }

  std::string footer_bytes(
      static_cast<size_t>(trailer_offset - footer_offset), '\0');
  if (Seek64(file.get(), static_cast<int64_t>(footer_offset), SEEK_SET) !=
          0 ||
      std::fread(footer_bytes.data(), 1, footer_bytes.size(), file.get()) !=
          footer_bytes.size()) {
    return Status::Corruption("cannot read snapshot footer of '" + path +
                              "'");
  }
  if (Checksum64(footer_bytes) != footer_checksum) {
    return Status::Corruption("snapshot footer checksum mismatch in '" +
                              path + "'");
  }

  FooterData footer;
  AIQL_RETURN_IF_ERROR(DecodeFooter(footer_bytes, footer_offset, &footer));

  std::string meta_bytes(static_cast<size_t>(footer.meta.length), '\0');
  if (Seek64(file.get(), static_cast<int64_t>(footer.meta.offset),
             SEEK_SET) != 0 ||
      std::fread(meta_bytes.data(), 1, meta_bytes.size(), file.get()) !=
          meta_bytes.size()) {
    return Status::IOError("cannot read snapshot META segment of '" + path +
                           "'");
  }
  AIQL_RETURN_IF_ERROR(Failpoint::HitBuffer(
      "snapshot.read.meta", meta_bytes.data(), meta_bytes.size()));
  if (Checksum64(meta_bytes) != footer.meta.checksum) {
    return Status::Corruption("snapshot META checksum mismatch in '" + path +
                              "'");
  }

  std::unique_ptr<SnapshotStore> store(new SnapshotStore());
  store->path_ = path;
  store->options_ = footer.options;
  store->stats_ = footer.stats;
  AIQL_RETURN_IF_ERROR(DecodeMetaSegment(meta_bytes, &store->entities_));
  AIQL_RETURN_IF_ERROR(CheckDirectoryExes(footer, store->entities_));

  store->handles_.reserve(footer.partitions.size());
  for (const PartitionDirEntry& entry : footer.partitions) {
    auto handle = std::make_unique<PartitionHandle>();
    handle->entry = entry;
    store->handles_.push_back(std::move(handle));
  }
  store->file_ = file.release();
  return store;
}

Result<std::unique_ptr<EventPartition>> SnapshotStore::DecodeHandleLocked(
    size_t index) const {
  const PartitionDirEntry& entry = handles_[index]->entry;
  std::string bytes(static_cast<size_t>(entry.segment.length), '\0');
  if (Seek64(file_, static_cast<int64_t>(entry.segment.offset), SEEK_SET) !=
          0 ||
      std::fread(bytes.data(), 1, bytes.size(), file_) != bytes.size()) {
    return Status::IOError("cannot read partition segment of '" + path_ +
                           "'");
  }
  // Chaos injection on the lazy-load read path: a corrupt action damages
  // `bytes` so the checksum below catches it exactly like real bit rot.
  AIQL_RETURN_IF_ERROR(Failpoint::HitBuffer("snapshot.read.partition",
                                            bytes.data(), bytes.size()));
  if (Checksum64(bytes) != entry.segment.checksum) {
    return Status::Corruption("partition segment checksum mismatch in '" +
                              path_ + "'");
  }
  auto partition = std::make_unique<EventPartition>();
  AIQL_RETURN_IF_ERROR(
      DecodePartitionSegment(bytes, entry, entities_, partition.get()));
  return partition;
}

Result<const EventPartition*> SnapshotStore::Partition(size_t index) const {
  PartitionHandle& handle = *handles_[index];
  if (const EventPartition* loaded =
          handle.loaded.load(std::memory_order_acquire)) {
    return loaded;
  }
  std::lock_guard<std::mutex> lock(load_mu_);
  if (const EventPartition* loaded =
          handle.loaded.load(std::memory_order_relaxed)) {
    return loaded;
  }
  AIQL_ASSIGN_OR_RETURN(std::unique_ptr<EventPartition> partition,
                        DecodeHandleLocked(index));
  handle.storage = std::move(partition);
  handle.loaded.store(handle.storage.get(), std::memory_order_release);
  loaded_count_.fetch_add(1, std::memory_order_relaxed);
  return handle.storage.get();
}

Result<std::shared_ptr<const EventPartition>>
SnapshotStore::MaterializePartition(size_t index) const {
  if (cache_ == nullptr) {
    // Keep-forever mode: the store owns the partition for its lifetime, so
    // the pin is a non-owning alias.
    AIQL_ASSIGN_OR_RETURN(const EventPartition* partition, Partition(index));
    return std::shared_ptr<const EventPartition>(partition,
                                                 [](const EventPartition*) {});
  }
  PartitionHandle& handle = *handles_[index];
  if (auto pin = cache_->Lookup(this, index)) return pin;
  std::lock_guard<std::mutex> lock(load_mu_);
  // Another thread may have materialized it between the cache miss and the
  // lock; a query pin may also still hold a copy the cache already evicted.
  // Either way `weak` revives it without touching disk.
  if (auto pin = handle.weak.lock()) {
    cache_->Insert(this, index, pin, handle.bytes);
    return pin;
  }
  // Real reopen from disk. `retention.reopen` lets chaos tests fail or delay
  // exactly this path (first decode of a partition also passes through it).
  AIQL_RETURN_IF_ERROR(
      Failpoint::Hit("retention.reopen", static_cast<int64_t>(index)));
  AIQL_ASSIGN_OR_RETURN(std::unique_ptr<EventPartition> partition,
                        DecodeHandleLocked(index));
  if (handle.bytes == 0) {
    handle.bytes = partition->MemoryFootprint();
  } else {
    // bytes was set by an earlier residence, so this decode is a reopen of
    // an evicted partition.
    reopens_.fetch_add(1, std::memory_order_relaxed);
  }
  std::shared_ptr<const EventPartition> pin(std::move(partition));
  handle.weak = pin;
  loaded_count_.fetch_add(1, std::memory_order_relaxed);
  if (QueryContext* ctx = ScopedQueryContext::Current()) {
    AIQL_RETURN_IF_ERROR(ctx->ChargeMemory(handle.bytes));
  }
  cache_->Insert(this, index, pin, handle.bytes);
  return pin;
}

ReadView SnapshotStore::OpenReadView() const {
  ReadView view;
  view.entities_ = &entities_;
  view.options_ = &options_;
  view.stats_ = stats_;
  view.visible_events_ = stats_.total_events;
  view.store_ = this;
  view.cold_.reserve(handles_.size());
  for (const auto& handle : handles_) view.cold_.push_back(&handle->entry);
  view.pins_ = std::make_shared<PartitionPinSet>();
  return view;
}

Status SnapshotStore::MaterializeAll() const {
  for (size_t i = 0; i < handles_.size(); ++i) {
    AIQL_RETURN_IF_ERROR(Partition(i).status());
  }
  return Status::OK();
}

Result<AuditDatabase> SnapshotStore::ToDatabase() && {
  AIQL_RETURN_IF_ERROR(MaterializeAll());
  AuditDatabase db(options_);
  *db.mutable_entities() = std::move(entities_);
  // Handles are in footer order, i.e. ascending (bucket, agent, seq), so
  // adoption reassigns the same seqs.
  for (auto& handle : handles_) {
    db.AdoptSealedPartition(handle->entry.bucket, handle->entry.agent,
                            std::move(handle->storage));
  }
  db.FinishRestore();
  return db;
}

// =============================================================================
// full load
// =============================================================================

Result<AuditDatabase> LoadSnapshot(const std::string& path) {
  AIQL_ASSIGN_OR_RETURN(std::unique_ptr<SnapshotStore> store,
                        SnapshotStore::Open(path));
  return std::move(*store).ToDatabase();
}

}  // namespace aiql
