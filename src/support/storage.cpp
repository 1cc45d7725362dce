#include "support/storage.hpp"

#include <chrono>
#include <cstring>

#ifndef _WIN32
#include <unistd.h>
#endif

#include "support/crc.hpp"
#include "support/metrics.hpp"

namespace dacm::support {
namespace {

constexpr std::size_t kFrameHeader = 8;  // u32 len + u32 crc
// Upper bound on a single payload: a status paragraph or journal record
// is a few KiB at most, so anything past this is framing corruption, not
// a real record.
constexpr std::uint32_t kMaxPayload = 1u << 28;

}  // namespace

// --- FileSink ----------------------------------------------------------------------

Result<std::unique_ptr<FileSink>> FileSink::Open(const std::string& path,
                                                 bool truncate) {
  std::FILE* file = std::fopen(path.c_str(), truncate ? "wb" : "ab");
  if (file == nullptr) {
    return Unavailable("cannot open record sink " + path);
  }
  return std::unique_ptr<FileSink>(new FileSink(file, path));
}

FileSink::~FileSink() {
  if (file_ != nullptr) std::fclose(file_);
}

Status FileSink::Append(std::span<const std::uint8_t> bytes) {
  if (bytes.empty()) return OkStatus();
  if (std::fwrite(bytes.data(), 1, bytes.size(), file_) != bytes.size()) {
    return Unavailable("short write to record sink");
  }
  return OkStatus();
}

Status FileSink::Flush() {
  if (std::fflush(file_) != 0) return Unavailable("record sink flush failed");
  return OkStatus();
}

Status FileSink::Sync() {
  // fflush pushes the stdio buffer to the kernel; fsync pushes the page
  // cache to the device.  Both are needed for power-loss durability.
  DACM_RETURN_IF_ERROR(Flush());
#ifndef _WIN32
  if (::fsync(::fileno(file_)) != 0) {
    return Unavailable("record sink fsync failed");
  }
#endif
  return OkStatus();
}

Status FileSink::Rotate(std::span<const std::uint8_t> image) {
  // Write-temp + fsync + rename.  The image lands fully durable in a
  // side file before the rename makes it visible under the log's name,
  // so a crash anywhere in this sequence leaves either the complete old
  // log or the complete new image — never a mix.
  const std::string temp = path_ + ".rotate";
  std::FILE* side = std::fopen(temp.c_str(), "wb");
  if (side == nullptr) {
    return Unavailable("cannot open rotation file " + temp);
  }
  if (!image.empty() &&
      std::fwrite(image.data(), 1, image.size(), side) != image.size()) {
    std::fclose(side);
    std::remove(temp.c_str());
    return Unavailable("short write to rotation file");
  }
  if (std::fflush(side) != 0) {
    std::fclose(side);
    std::remove(temp.c_str());
    return Unavailable("rotation file flush failed");
  }
#ifndef _WIN32
  if (::fsync(::fileno(side)) != 0) {
    std::fclose(side);
    std::remove(temp.c_str());
    return Unavailable("rotation file fsync failed");
  }
#endif
  std::fclose(side);
#ifdef _WIN32
  // rename() does not replace an existing file on Windows.
  std::remove(path_.c_str());
#endif
  if (std::rename(temp.c_str(), path_.c_str()) != 0) {
    std::remove(temp.c_str());
    return Unavailable("rotation rename failed for " + path_);
  }
  // Reopen the append handle on the swapped-in file; the old handle
  // points at the unlinked inode.
  std::fclose(file_);
  file_ = std::fopen(path_.c_str(), "ab");
  if (file_ == nullptr) {
    return Unavailable("cannot reopen record sink " + path_);
  }
  return OkStatus();
}

// --- FaultingSink ------------------------------------------------------------------

Status FaultingSink::Append(std::span<const std::uint8_t> bytes) {
  if (torn_) return Unavailable("sink torn by injected fault");
  if (bytes.size() <= budget_) {
    budget_ -= bytes.size();
    return inner_.Append(bytes);
  }
  // The crash lands mid-write: the first `budget_` bytes made it out.
  const Status partial = inner_.Append(bytes.first(budget_));
  budget_ = 0;
  torn_ = true;
  if (!partial.ok()) return partial;
  return Unavailable("injected torn write");
}

Status FaultingSink::Rotate(std::span<const std::uint8_t> image) {
  if (torn_) return Unavailable("sink torn by injected fault");
  if (image.size() <= budget_) {
    budget_ -= image.size();
    return inner_.Rotate(image);
  }
  // Rename atomicity: past the budget the swap simply never happens —
  // there is no torn-rotation state, the old contents survive intact.
  budget_ = 0;
  torn_ = true;
  return Unavailable("injected rotation failure");
}

// --- CrashPointSink ----------------------------------------------------------------

Status CrashPointSink::Append(std::span<const std::uint8_t> bytes) {
  bool dead = false;
  const std::size_t tear = clock_.Tick(&dead);
  if (!dead) return inner_.Append(bytes);
  if (tear != 0 && tear != SIZE_MAX) {
    // The crash landed mid-write: leak the torn prefix, then die.
    (void)inner_.Append(bytes.first(std::min(tear, bytes.size())));
  }
  return Unavailable("injected crash point");
}

Status CrashPointSink::Flush() {
  // Flush is not a durability boundary — uncounted, but a dead sink
  // stays dead.
  if (clock_.dead()) return Unavailable("injected crash point");
  return inner_.Flush();
}

Status CrashPointSink::Sync() {
  bool dead = false;
  (void)clock_.Tick(&dead);
  if (dead) return Unavailable("injected crash point");
  return inner_.Sync();
}

Status CrashPointSink::Rotate(std::span<const std::uint8_t> image) {
  bool dead = false;
  (void)clock_.Tick(&dead);
  // An armed Rotate never swaps: rename atomicity means the crash leaves
  // the previous contents intact.
  if (dead) return Unavailable("injected crash point");
  return inner_.Rotate(image);
}

// --- RecordWriter ------------------------------------------------------------------

Status RecordWriter::Append(std::span<const std::uint8_t> payload) {
  if (payload.size() >= kMaxPayload) {
    return InvalidArgument("record payload too large");
  }
  frame_.resize(kFrameHeader + payload.size());
  StoreLeU32(frame_.data(), static_cast<std::uint32_t>(payload.size()));
  StoreLeU32(frame_.data() + 4, Crc32(payload));
  if (!payload.empty()) {
    std::memcpy(frame_.data() + kFrameHeader, payload.data(), payload.size());
  }
  DACM_RETURN_IF_ERROR(sink_.Append(frame_));
  bytes_appended_ += frame_.size();
  if (sync_every_n_frames_ != 0 &&
      ++frames_since_sync_ >= sync_every_n_frames_) {
    frames_since_sync_ = 0;
    // Wall-clock only and histogram-only: fsync latency is real time, so
    // it must never leak into the deterministic trace stream.
    static Histogram& fsync_nanos =
        Metrics::Instance().GetHistogram("dacm_wal_fsync_nanos");
    const auto started = std::chrono::steady_clock::now();
    const Status synced = sink_.Sync();
    fsync_nanos.Observe(static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - started)
            .count()));
    return synced;
  }
  return OkStatus();
}

Status RecordWriter::Flush() { return sink_.Flush(); }

// --- CheckpointWriter --------------------------------------------------------------

Status CheckpointWriter::Append(std::span<const std::uint8_t> payload) {
  if (payload.size() >= kMaxPayload) {
    return InvalidArgument("record payload too large");
  }
  const std::size_t base = image_.size();
  image_.resize(base + kFrameHeader + payload.size());
  StoreLeU32(image_.data() + base, static_cast<std::uint32_t>(payload.size()));
  StoreLeU32(image_.data() + base + 4, Crc32(payload));
  if (!payload.empty()) {
    std::memcpy(image_.data() + base + kFrameHeader, payload.data(),
                payload.size());
  }
  ++records_;
  return OkStatus();
}

Status CheckpointWriter::Commit(RecordSink& sink) {
  return sink.Rotate(image_);
}

// --- replay ------------------------------------------------------------------------

Result<ReplayStats> ReplayRecords(
    std::span<const std::uint8_t> data,
    const std::function<Status(std::span<const std::uint8_t>)>& fn) {
  ReplayStats stats;
  std::size_t offset = 0;
  while (data.size() - offset >= kFrameHeader) {
    const std::uint32_t length = LoadLeU32(data.data() + offset);
    const std::uint32_t crc = LoadLeU32(data.data() + offset + 4);
    if (length >= kMaxPayload ||
        data.size() - offset - kFrameHeader < length) {
      break;  // torn or garbage tail
    }
    const auto payload = data.subspan(offset + kFrameHeader, length);
    if (Crc32(payload) != crc) break;  // torn tail: partial payload flushed
    DACM_RETURN_IF_ERROR(fn(payload));
    offset += kFrameHeader + length;
    ++stats.records;
  }
  stats.valid_bytes = offset;
  stats.truncated = offset != data.size();
  return stats;
}

Result<Bytes> ReadFileBytes(const std::string& path) {
  std::FILE* file = std::fopen(path.c_str(), "rb");
  if (file == nullptr) return NotFound("no such file: " + path);
  Bytes bytes;
  std::uint8_t chunk[4096];
  std::size_t got = 0;
  while ((got = std::fread(chunk, 1, sizeof chunk, file)) > 0) {
    bytes.insert(bytes.end(), chunk, chunk + got);
  }
  std::fclose(file);
  return bytes;
}

}  // namespace dacm::support
