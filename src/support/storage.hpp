// Crash-consistent record storage primitives.
//
// The durable-server layer (server/status_db, server/journal) appends
// CRC-framed records to an abstract RecordSink and replays them at
// startup.  The sink abstraction exists so tests can run the exact
// production framing against an in-memory buffer, snapshot it at an
// arbitrary "crash" point, and inject write faults that produce the torn
// tails the replay path must tolerate.
//
// Frame layout (all little-endian):
//
//   [u32 payload_len][u32 crc32(payload)][payload bytes]
//
// A frame is appended with a single sink write, so a crash (or a
// FaultingSink budget) tears at most the trailing frame.  Replay walks
// frames front to back and stops — without error — at the first short
// header, short payload or CRC mismatch: everything after a torn frame
// is unreachable by construction and is reported as truncated so the
// recovering writer can rewind to the last durable prefix.
#pragma once

#include <cstdint>
#include <cstdio>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "support/bytes.hpp"
#include "support/status.hpp"

namespace dacm::support {

/// Destination for framed record appends.  Implementations must make
/// each Append atomic with respect to snapshots a test takes between
/// calls; durability (Flush) semantics are implementation-defined.
class RecordSink {
 public:
  virtual ~RecordSink() = default;

  /// Appends `bytes` at the end of the sink.
  virtual Status Append(std::span<const std::uint8_t> bytes) = 0;

  /// Pushes buffered bytes toward stable storage.
  virtual Status Flush() { return OkStatus(); }

  /// Pushes buffered bytes all the way to the device (for files: fsync).
  /// Defaults to Flush() for sinks with no stronger durability tier.
  virtual Status Sync() { return Flush(); }

  /// Atomically replaces the sink's entire contents with `image` — the
  /// checkpoint handoff.  After a successful Rotate the sink holds
  /// exactly `image` and later Appends extend it; a failed or
  /// crash-interrupted Rotate leaves the previous contents untouched
  /// (FileSink: write-temp + fsync + rename, so there is never a moment
  /// where a reader can observe a half-written log).
  virtual Status Rotate(std::span<const std::uint8_t> image) {
    (void)image;
    return Unimplemented("sink does not support rotation");
  }
};

/// In-memory sink: the test-injectable stand-in for a file.  bytes() is
/// the exact byte sequence a file would hold, so a test can snapshot it
/// as the "surviving" image at any crash point, or TruncateTo() an
/// arbitrary prefix to fabricate a torn tail.
class MemorySink : public RecordSink {
 public:
  Status Append(std::span<const std::uint8_t> bytes) override {
    buffer_.insert(buffer_.end(), bytes.begin(), bytes.end());
    return OkStatus();
  }

  Status Rotate(std::span<const std::uint8_t> image) override {
    buffer_.assign(image.begin(), image.end());
    return OkStatus();
  }

  const Bytes& bytes() const { return buffer_; }

  /// Drops everything past `size` (no-op if already shorter).
  void TruncateTo(std::size_t size) {
    if (size < buffer_.size()) buffer_.resize(size);
  }

  void Clear() { buffer_.clear(); }

 private:
  Bytes buffer_;
};

/// Appends to a file on disk.  Writes go through stdio buffering;
/// Flush() fflushes (the crash model most tests exercise is process
/// death, via MemorySink snapshots and FaultingSink budgets).  Sync()
/// additionally fsyncs, for deployments whose crash model includes
/// power loss — opt in per writer via RecordWriter's
/// `sync_every_n_frames`.
class FileSink : public RecordSink {
 public:
  /// Opens `path` for appending; `truncate` starts the log fresh.
  static Result<std::unique_ptr<FileSink>> Open(const std::string& path,
                                                bool truncate = false);
  ~FileSink() override;

  FileSink(const FileSink&) = delete;
  FileSink& operator=(const FileSink&) = delete;

  Status Append(std::span<const std::uint8_t> bytes) override;
  Status Flush() override;
  Status Sync() override;
  /// Write-temp + fsync + rename: the checkpoint image lands in
  /// `<path>.rotate`, is synced, and atomically renamed over the log, so
  /// a crash at any point leaves either the old log or the new image —
  /// never a mix.  The append handle is reopened on the new file.
  Status Rotate(std::span<const std::uint8_t> image) override;

 private:
  FileSink(std::FILE* file, std::string path)
      : file_(file), path_(std::move(path)) {}

  std::FILE* file_;
  std::string path_;
};

/// Fault-injecting sink: forwards writes to `inner` until `fail_after`
/// total bytes have been accepted, then writes whatever partial prefix
/// of the current append still fits and fails — the storage-level model
/// of a crash landing mid-write, producing exactly the torn tail replay
/// must truncate.  Once torn, every later append fails without writing.
class FaultingSink : public RecordSink {
 public:
  FaultingSink(RecordSink& inner, std::size_t fail_after)
      : inner_(inner), budget_(fail_after) {}

  Status Append(std::span<const std::uint8_t> bytes) override;
  /// Rotation is all-or-nothing (rename atomicity): within budget it
  /// forwards and costs the image size; past it, the swap never happens
  /// and the inner sink keeps its previous contents.
  Status Rotate(std::span<const std::uint8_t> image) override;

  bool torn() const { return torn_; }

 private:
  RecordSink& inner_;
  std::size_t budget_;
  bool torn_ = false;
};

/// Shared operation counter for the crash-point sweep harness.  Every
/// Append / Sync / Rotate issued through a CrashPointSink advances one
/// clock, across however many sinks (status log + campaign journal)
/// share it.  Two modes:
///
///  * recording — the clock counts and, when a now-fn is set, remembers
///    each op's timestamp, so a recording pass over a seeded scenario
///    yields the full list of reachable write boundaries and when each
///    one happens;
///  * armed — Arm(n, tear) makes the n-th op the crash point: an Append
///    writes only its first `tear` bytes, a Sync never reaches the
///    device, a Rotate never swaps, and the clock goes dead — every
///    later op fails without touching the inner sink, modelling power
///    loss at exactly that boundary until the harness kills the server.
class CrashClock {
 public:
  /// Timestamp source for op-time recording (e.g. the simulator clock).
  void SetNowFn(std::function<std::uint64_t()> fn) { now_fn_ = std::move(fn); }

  /// Makes op number `crash_at` (1-based) the crash point; an armed
  /// Append first leaks a `tear_bytes` torn prefix into the inner sink.
  void Arm(std::uint64_t crash_at, std::size_t tear_bytes = 0) {
    crash_at_ = crash_at;
    tear_bytes_ = tear_bytes;
  }

  std::uint64_t ops() const { return ops_; }
  bool dead() const { return dead_; }
  /// One timestamp per op, in op order (recording mode with a now-fn).
  std::vector<std::uint64_t> op_times() const { return op_times_; }

 private:
  friend class CrashPointSink;

  /// Advances the clock for one op.  Returns the torn-prefix length an
  /// armed Append may still write (SIZE_MAX = not the crash point, op
  /// proceeds normally); sets `*dead` when the op must fail.
  std::size_t Tick(bool* dead) {
    ++ops_;
    if (now_fn_) op_times_.push_back(now_fn_());
    if (dead_) {
      *dead = true;
      return 0;
    }
    if (crash_at_ != 0 && ops_ == crash_at_) {
      dead_ = true;
      *dead = true;
      return tear_bytes_;
    }
    *dead = false;
    return SIZE_MAX;
  }

  std::uint64_t ops_ = 0;
  std::uint64_t crash_at_ = 0;  // 0 = recording mode, never crashes
  std::size_t tear_bytes_ = 0;
  bool dead_ = false;
  std::function<std::uint64_t()> now_fn_;
  std::vector<std::uint64_t> op_times_;
};

/// The sweep harness's sink wrapper: forwards to `inner` while advancing
/// the shared CrashClock on every Append / Sync / Rotate (Flush is not a
/// durability boundary and is not counted).  See CrashClock for the
/// crash semantics at the armed op.
class CrashPointSink : public RecordSink {
 public:
  CrashPointSink(RecordSink& inner, CrashClock& clock)
      : inner_(inner), clock_(clock) {}

  Status Append(std::span<const std::uint8_t> bytes) override;
  Status Flush() override;
  Status Sync() override;
  Status Rotate(std::span<const std::uint8_t> image) override;

 private:
  RecordSink& inner_;
  CrashClock& clock_;
};

/// Frames payloads into a RecordSink ([len][crc][payload], one sink
/// Append per record).
///
/// `sync_every_n_frames` is the durability knob: every Nth successfully
/// appended frame is followed by a RecordSink::Sync() (for FileSink:
/// fflush + fsync), bounding how many acknowledged frames a power loss
/// can lose to N-1.  0 (the default) never syncs explicitly.
class RecordWriter {
 public:
  explicit RecordWriter(RecordSink& sink, std::size_t sync_every_n_frames = 0)
      : sink_(sink), sync_every_n_frames_(sync_every_n_frames) {}

  Status Append(std::span<const std::uint8_t> payload);
  Status Flush();

  /// Frame bytes (headers included) successfully appended since
  /// construction or the last ResetByteCount() — the compaction
  /// watermark's input.
  std::uint64_t bytes_appended() const { return bytes_appended_; }
  /// Restarts the byte accounting (call after a checkpoint rotation).
  void ResetByteCount() { bytes_appended_ = 0; }

 private:
  RecordSink& sink_;
  const std::size_t sync_every_n_frames_;
  std::size_t frames_since_sync_ = 0;
  std::uint64_t bytes_appended_ = 0;
  Bytes frame_;  // reused scratch for the header+payload copy
};

/// Builds a checkpoint image: payloads are framed exactly like
/// RecordWriter appends ([len][crc][payload]), accumulated in memory, and
/// atomically swapped into a sink with Commit() (RecordSink::Rotate).  A
/// replayer cannot tell a checkpointed log from an appended one — the
/// compaction fold is invisible to recovery by construction.
class CheckpointWriter {
 public:
  Status Append(std::span<const std::uint8_t> payload);

  /// Swaps the accumulated image into `sink`.  The image is kept on
  /// failure so a retry against a healthy sink can still commit.
  Status Commit(RecordSink& sink);

  std::size_t image_bytes() const { return image_.size(); }
  std::size_t records() const { return records_; }
  const Bytes& image() const { return image_; }

 private:
  Bytes image_;
  std::size_t records_ = 0;
};

/// Replay statistics: how much of the log was durable.
struct ReplayStats {
  std::size_t records = 0;      // frames decoded and delivered to fn
  std::size_t valid_bytes = 0;  // byte length of the durable prefix
  bool truncated = false;       // a torn tail was dropped
};

/// Walks the frames in `data`, calling `fn` with each payload in append
/// order.  Stops cleanly (truncated=true) at a torn tail; an error from
/// `fn` aborts the replay with that error.
Result<ReplayStats> ReplayRecords(
    std::span<const std::uint8_t> data,
    const std::function<Status(std::span<const std::uint8_t>)>& fn);

/// Reads a whole file into memory (NotFound if it does not exist).
Result<Bytes> ReadFileBytes(const std::string& path);

}  // namespace dacm::support
