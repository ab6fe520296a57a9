#include "storage/snapshot_append.h"

#include <dirent.h>
#include <fcntl.h>     // open, O_DIRECTORY
#include <sys/stat.h>  // mkdir
#include <unistd.h>    // fsync, fileno, close

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include "common/checksum.h"
#include "common/failpoint.h"

namespace aiql {

using namespace snapfmt;

namespace {

Status FsyncDir(const std::string& dir) {
#if !defined(_WIN32)
  int dir_fd = open(dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (dir_fd < 0) {
    return Status::IOError("cannot open directory '" + dir + "' to sync");
  }
  int rc = fsync(dir_fd);
  close(dir_fd);
  if (rc != 0) {
    return Status::IOError("fsync of directory '" + dir + "' failed");
  }
#endif
  return Status::OK();
}

std::string FooterPath(const std::string& dir, uint64_t seq) {
  return dir + "/FOOTER." + std::to_string(seq);
}

/// FOOTER.<n> file names in `dir`, seqs sorted descending. Unparseable
/// names (including the transient FOOTER.tmp) are ignored.
std::vector<uint64_t> ListFooterSeqs(const std::string& dir) {
  std::vector<uint64_t> seqs;
  DIR* d = opendir(dir.c_str());
  if (d == nullptr) return seqs;
  while (dirent* entry = readdir(d)) {
    const char* name = entry->d_name;
    if (std::strncmp(name, "FOOTER.", 7) != 0) continue;
    const char* digits = name + 7;
    if (*digits == '\0') continue;
    uint64_t seq = 0;
    bool numeric = true;
    for (const char* p = digits; *p != '\0'; ++p) {
      if (*p < '0' || *p > '9') {
        numeric = false;
        break;
      }
      seq = seq * 10 + static_cast<uint64_t>(*p - '0');
    }
    if (numeric) seqs.push_back(seq);
  }
  closedir(d);
  std::sort(seqs.rbegin(), seqs.rend());
  return seqs;
}

Result<std::string> ReadWholeFile(const std::string& path) {
  FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) {
    return Status::IOError("cannot open '" + path + "' for reading");
  }
  std::string bytes;
  if (Seek64(f, 0, SEEK_END) == 0) {
    int64_t size = Tell64(f);
    if (size > 0) bytes.resize(static_cast<size_t>(size));
  }
  bool ok = Seek64(f, 0, SEEK_SET) == 0 &&
            std::fread(bytes.data(), 1, bytes.size(), f) == bytes.size();
  std::fclose(f);
  if (!ok) return Status::IOError("cannot read '" + path + "'");
  return bytes;
}

/// Validates one FOOTER.<n> file against DATA (size `data_size`, handle
/// `data`): trailer magic + footer checksum + segment bounds + META
/// checksum. Returns the recovered state, or the first validation error —
/// Open() then falls back to the next-older footer.
Result<SnapshotAppender::RecoveredState> TryRecoverFooter(
    const std::string& footer_path, uint64_t footer_seq, FILE* data,
    uint64_t data_size) {
  AIQL_ASSIGN_OR_RETURN(std::string bytes, ReadWholeFile(footer_path));
  if (bytes.size() < kV2TrailerSize) {
    return Status::Corruption("footer file '" + footer_path +
                              "' is too short");
  }
  const char* trailer = bytes.data() + bytes.size() - kV2TrailerSize;
  if (GetFixed64(trailer + 16) != kV2Magic) {
    return Status::Corruption("footer trailer corrupt in '" + footer_path +
                              "'");
  }
  uint64_t data_end = GetFixed64(trailer);
  uint64_t footer_checksum = GetFixed64(trailer + 8);
  std::string_view footer_bytes(bytes.data(), bytes.size() - kV2TrailerSize);
  if (Checksum64(footer_bytes) != footer_checksum) {
    return Status::Corruption("footer checksum mismatch in '" + footer_path +
                              "'");
  }
  if (data_end < kV2HeaderSize || data_end > data_size) {
    return Status::Corruption("footer '" + footer_path +
                              "' describes more data than DATA holds");
  }

  FooterData footer;
  AIQL_RETURN_IF_ERROR(DecodeFooter(footer_bytes, data_end, &footer));

  std::string meta_bytes(static_cast<size_t>(footer.meta.length), '\0');
  if (Seek64(data, static_cast<int64_t>(footer.meta.offset), SEEK_SET) != 0 ||
      std::fread(meta_bytes.data(), 1, meta_bytes.size(), data) !=
          meta_bytes.size()) {
    return Status::IOError("cannot read META segment for '" + footer_path +
                           "'");
  }
  if (Checksum64(meta_bytes) != footer.meta.checksum) {
    return Status::Corruption("META checksum mismatch for '" + footer_path +
                              "'");
  }

  SnapshotAppender::RecoveredState state;
  AIQL_RETURN_IF_ERROR(DecodeMetaSegment(meta_bytes, &state.entities));
  AIQL_RETURN_IF_ERROR(CheckDirectoryExes(footer, state.entities));
  state.options = footer.options;
  state.stats = footer.stats;
  state.partitions = std::move(footer.partitions);
  state.footer_seq = footer_seq;
  state.data_end = data_end;
  return state;
}

}  // namespace

SnapshotAppender::~SnapshotAppender() {
  if (file_ != nullptr) std::fclose(file_);
}

Result<std::unique_ptr<SnapshotAppender>> SnapshotAppender::Open(
    const std::string& dir) {
  if (mkdir(dir.c_str(), 0755) != 0 && errno != EEXIST) {
    return Status::IOError("cannot create retention directory '" + dir + "'");
  }

  std::unique_ptr<SnapshotAppender> appender(new SnapshotAppender());
  appender->dir_ = dir;
  appender->data_path_ = dir + "/DATA";

  std::vector<uint64_t> footer_seqs = ListFooterSeqs(dir);

  FILE* data = std::fopen(appender->data_path_.c_str(), "r+b");
  uint64_t data_size = 0;
  if (data != nullptr) {
    if (Seek64(data, 0, SEEK_END) != 0) {
      std::fclose(data);
      return Status::IOError("cannot seek in '" + appender->data_path_ + "'");
    }
    data_size = static_cast<uint64_t>(Tell64(data));
  }
  bool valid_header = false;
  if (data != nullptr && data_size >= kV2HeaderSize) {
    char header[kV2HeaderSize];
    if (Seek64(data, 0, SEEK_SET) != 0 ||
        std::fread(header, 1, sizeof(header), data) != sizeof(header)) {
      std::fclose(data);
      return Status::IOError("cannot read '" + appender->data_path_ + "'");
    }
    const bool v2_magic = GetFixed64(header) == kV2Magic;
    const uint32_t version = GetFixed32(header + 8);
    if (v2_magic && version != kV2Version && !footer_seqs.empty()) {
      // Committed data of another format version: refuse it untouched
      // rather than reinitializing over it.
      std::fclose(data);
      return Status::Corruption(
          "'" + appender->data_path_ + "' has snapshot format version " +
          std::to_string(version) + ", expected version " +
          std::to_string(kV2Version));
    }
    valid_header = v2_magic && version == kV2Version;
  }
  if (!valid_header) {
    // Fresh directory, or a crash before the first header write completed.
    // With a committed footer present, a bad header is real damage.
    if (!footer_seqs.empty()) {
      if (data != nullptr) std::fclose(data);
      return Status::Corruption("'" + appender->data_path_ +
                                "' has committed footers but no valid "
                                "snapshot header");
    }
    if (data != nullptr) std::fclose(data);
    data = std::fopen(appender->data_path_.c_str(), "w+b");
    if (data == nullptr) {
      return Status::IOError("cannot create '" + appender->data_path_ + "'");
    }
    std::string header;
    EncodeHeader(&header);
    if (std::fwrite(header.data(), 1, header.size(), data) != header.size() ||
        std::fflush(data) != 0 || fsync(fileno(data)) != 0) {
      std::fclose(data);
      return Status::IOError("cannot initialize '" + appender->data_path_ +
                             "'");
    }
    data_size = header.size();
  }
  appender->file_ = data;

  // Recover from the newest footer that validates end to end; older footers
  // are the fallback when the newest was torn by a crash.
  for (uint64_t seq : footer_seqs) {
    Result<RecoveredState> state =
        TryRecoverFooter(FooterPath(dir, seq), seq, data, data_size);
    if (state.ok()) {
      appender->recovered_ = std::move(*state);
      break;
    }
  }
  if (appender->recovered_.has_value()) {
    // Uncommitted bytes past data_end (a crash mid-append or mid-commit)
    // are dead weight; subsequent appends overwrite them.
    appender->committed_data_end_ = appender->recovered_->data_end;
    appender->write_offset_ = appender->committed_data_end_;
    appender->footer_seq_ = appender->recovered_->footer_seq;
  } else {
    appender->committed_data_end_ = kV2HeaderSize;
    appender->write_offset_ = kV2HeaderSize;
    // Skip past any unreadable footer names so a new commit never collides
    // with a corrupt FOOTER.<n> left behind by a damaged directory.
    appender->footer_seq_ = footer_seqs.empty() ? 0 : footer_seqs.front();
  }
  return appender;
}

Status SnapshotAppender::WriteAt(uint64_t offset, const void* data,
                                 size_t n) {
  if (Seek64(file_, static_cast<int64_t>(offset), SEEK_SET) != 0 ||
      std::fwrite(data, 1, n, file_) != n) {
    return Status::IOError("cannot write to '" + data_path_ + "'");
  }
  return Status::OK();
}

Result<snapfmt::PartitionDirEntry> SnapshotAppender::AppendPartition(
    int64_t bucket, AgentId agent, uint32_t seq,
    const EventPartition& partition) {
  std::string segment;
  EncodePartitionSegment(partition, &segment);
  SegmentRef ref{write_offset_, segment.size(), Checksum64(segment)};
  // Chaos on the demotion write path: corrupt flips a bit after the
  // checksum was taken, so damage is caught at reopen exactly like bit rot;
  // error actions abort the demotion before any offset moves.
  AIQL_RETURN_IF_ERROR(Failpoint::HitBuffer("retention.demote.write",
                                            segment.data(), segment.size()));
  {
    std::lock_guard<std::mutex> lock(io_mu_);
    AIQL_RETURN_IF_ERROR(WriteAt(write_offset_, segment.data(),
                                 segment.size()));
    write_offset_ += segment.size();
  }
  return MakeDirEntry(bucket, agent, seq, ref, partition);
}

Status SnapshotAppender::Commit(
    const StorageOptions& options, const DatabaseStats& stats,
    const EntityStore& entities,
    const std::vector<snapfmt::PartitionDirEntry>& partitions) {
  // The entity store only grows, so re-encoding META each commit keeps
  // every appended partition decodable; older footers reference their own
  // (older, smaller) META segments, which stay in place in the append log.
  std::string meta;
  EncodeMetaSegment(entities, &meta);
  FooterData footer;
  footer.options = options;
  footer.stats = stats;
  footer.partitions = partitions;
  uint64_t data_end;
  {
    std::lock_guard<std::mutex> lock(io_mu_);
    footer.meta = SegmentRef{write_offset_, meta.size(), Checksum64(meta)};
    AIQL_RETURN_IF_ERROR(WriteAt(write_offset_, meta.data(), meta.size()));
    write_offset_ += meta.size();
    data_end = write_offset_;
    if (std::fflush(file_) != 0 || fsync(fileno(file_)) != 0) {
      return Status::IOError("fsync failed for '" + data_path_ + "'");
    }
  }

  // Crash window the recovery test targets: DATA is durable but the footer
  // is not yet visible — recovery must land on the previous commit.
  AIQL_RETURN_IF_ERROR(
      Failpoint::Hit("retention.commit", static_cast<int64_t>(footer_seq_)));

  std::string footer_bytes;
  EncodeFooter(footer, &footer_bytes);
  std::string trailer;
  EncodeTrailer(data_end, Checksum64(footer_bytes), &trailer);

  std::string tmp_path = dir_ + "/FOOTER.tmp";
  FILE* f = std::fopen(tmp_path.c_str(), "wb");
  if (f == nullptr) {
    return Status::IOError("cannot open '" + tmp_path + "' for writing");
  }
  bool ok = std::fwrite(footer_bytes.data(), 1, footer_bytes.size(), f) ==
                footer_bytes.size() &&
            std::fwrite(trailer.data(), 1, trailer.size(), f) ==
                trailer.size() &&
            std::fflush(f) == 0 && fsync(fileno(f)) == 0;
  ok = (std::fclose(f) == 0) && ok;
  if (!ok) {
    std::remove(tmp_path.c_str());
    return Status::IOError("cannot write footer '" + tmp_path + "'");
  }
  std::string footer_path = FooterPath(dir_, footer_seq_ + 1);
  if (std::rename(tmp_path.c_str(), footer_path.c_str()) != 0) {
    std::remove(tmp_path.c_str());
    return Status::IOError("cannot move footer into place at '" +
                           footer_path + "'");
  }
  AIQL_RETURN_IF_ERROR(FsyncDir(dir_));

  ++footer_seq_;
  committed_data_end_ = data_end;

  // Prune footers that fell out of the safety window. Best effort: a
  // leftover footer is only wasted bytes.
  for (uint64_t seq : ListFooterSeqs(dir_)) {
    if (seq + kKeepFooters <= footer_seq_) {
      std::remove(FooterPath(dir_, seq).c_str());
    }
  }
  return Status::OK();
}

Result<std::unique_ptr<EventPartition>> SnapshotAppender::ReadPartition(
    const snapfmt::PartitionDirEntry& entry,
    const EntityStore& entities) const {
  std::string bytes(static_cast<size_t>(entry.segment.length), '\0');
  {
    std::lock_guard<std::mutex> lock(io_mu_);
    if (Seek64(file_, static_cast<int64_t>(entry.segment.offset), SEEK_SET) !=
            0 ||
        std::fread(bytes.data(), 1, bytes.size(), file_) != bytes.size()) {
      return Status::IOError("cannot read partition segment of '" +
                             data_path_ + "'");
    }
  }
  if (Checksum64(bytes) != entry.segment.checksum) {
    return Status::Corruption("partition segment checksum mismatch in '" +
                              data_path_ + "'");
  }
  auto partition = std::make_unique<EventPartition>();
  AIQL_RETURN_IF_ERROR(
      DecodePartitionSegment(bytes, entry, entities, partition.get()));
  return partition;
}

}  // namespace aiql
