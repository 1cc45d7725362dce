// Per-VIN install status DB — the dpkg/vcpkg status-paragraph model.
//
// Every InstalledApp mutation in TrustedServer is bracketed by a status
// paragraph written *ahead* of the visible state change, with explicit
// half-installed / half-removed transition states (the Want x InstallState
// split vcpkg's statusparagraph.h inherited from dpkg).  The log is
// append-only: the latest paragraph for a (vin, app) pair wins on replay,
// and a kNotInstalled paragraph erases the pair.
//
// Paragraphs deliberately do NOT carry package bytes or batch envelopes —
// those are derived data, regenerated from the re-uploaded catalog on
// demand after recovery (see TrustedServer::MaterializeRowPackages).
// What must survive is the intent (want), how far the transition got
// (state) and the per-ECU unique port ids the row holds, so the
// recovering server can rebuild its id-occupancy bitmaps exactly.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "server/catalog.hpp"
#include "support/status.hpp"
#include "support/storage.hpp"

namespace dacm::server {

/// What the user asked for (dpkg's "Want" column).
enum class Want : std::uint8_t {
  kInstall = 0,
  kDeinstall = 1,
};

/// How far the transition actually got (dpkg's "Status" column).  The
/// half states are written before a push goes out, so a crash between
/// push and acknowledgement recovers into a retriable in-flight row.
enum class DbState : std::uint8_t {
  kNotInstalled = 0,   // tombstone: erases the (vin, app) pair on replay
  kHalfInstalled = 1,  // install pushed, acks outstanding
  kInstalled = 2,      // fully acknowledged
  kHalfRemoved = 3,    // uninstall pushed, acks outstanding
  kErrorState = 4,     // a vehicle nacked the transition
};

std::string_view WantName(Want want);
std::string_view DbStateName(DbState state);

/// One durable status paragraph.
struct StatusParagraph {
  struct PluginIds {
    std::string plugin;
    std::uint32_t ecu_id = 0;
    std::vector<std::uint8_t> unique_ids;  // recorded port-id claims
  };

  std::string vin;
  std::string app;
  std::string version;
  Want want = Want::kInstall;
  DbState state = DbState::kNotInstalled;
  std::vector<PluginIds> plugins;
};

/// The scalar half of a paragraph, as views: what WriteStatus knows about
/// a row without materializing a StatusParagraph.  The plug-in half comes
/// from the row's manifest (or is empty, for a tombstone).
struct ParagraphHead {
  std::string_view vin;
  std::string_view app;
  std::string_view version;
  Want want = Want::kInstall;
  DbState state = DbState::kNotInstalled;
};

struct BatchManifest;  // server/package_cache.hpp

/// Everything a status-log replay folds out: the catalog (from
/// interleaved catalog records and/or a checkpoint's kImage), the live
/// paragraphs, how much of the log was durable, and the framed size of a
/// minimal checkpoint holding exactly this state — the denominator of
/// the compaction watermark's log-to-live ratio.
struct StatusImage {
  CatalogImage catalog;
  std::vector<StatusParagraph> paragraphs;
  support::ReplayStats stats;
  /// Size in bytes of the minimal checkpoint image (catalog image record
  /// + one paragraph per survivor, each CRC-framed).
  std::uint64_t live_bytes = 0;
};

/// Append-side of the DB: serializes paragraphs into CRC-framed records.
class StatusDb {
 public:
  /// `sync_every_n_frames` forwards to RecordWriter: every Nth paragraph
  /// is followed by a sink Sync() (FileSink: fflush + fsync); 0 never
  /// syncs explicitly.
  explicit StatusDb(support::RecordSink& sink,
                    std::size_t sync_every_n_frames = 0)
      : sink_(sink), writer_(sink, sync_every_n_frames) {}

  /// Atomically swaps the log's contents for a checkpoint image
  /// (RecordSink::Rotate) and restarts the byte accounting.
  support::Status Rotate(std::span<const std::uint8_t> image) {
    DACM_RETURN_IF_ERROR(sink_.Rotate(image));
    writer_.ResetByteCount();
    return support::OkStatus();
  }

  support::Status Append(const StatusParagraph& paragraph);

  /// Appends an already-encoded payload (a catalog record, or a
  /// paragraph pre-encoded by EncodeParagraph for retry loops).
  support::Status AppendRaw(std::span<const std::uint8_t> payload);

  /// The paragraph wire encoding Append() frames — exposed so the server
  /// can encode once and retry the framed append on sink failure.
  static support::Bytes EncodeParagraph(const StatusParagraph& paragraph);
  /// The same encoding from views: `head` plus the plug-ins, ECUs and
  /// unique ids of `manifest` (none when null — a tombstone).  Replaces
  /// `out`'s contents and keeps its capacity, so a caller that owns one
  /// buffer per writer appends without touching the heap.  Byte-identical
  /// to EncodeParagraph of the equivalent StatusParagraph.
  static void EncodeParagraph(const ParagraphHead& head,
                              const BatchManifest* manifest,
                              support::Bytes& out);
  /// Inverse of EncodeParagraph (kCorrupted on a malformed payload).
  static support::Result<StatusParagraph> DecodeParagraph(
      std::span<const std::uint8_t> payload);

  /// Frame bytes appended since construction / ResetByteCount — the
  /// compaction watermark's input.
  std::uint64_t bytes_appended() const { return writer_.bytes_appended(); }
  void ResetByteCount() { writer_.ResetByteCount(); }

  /// Replays a status log image: folds paragraphs last-writer-wins per
  /// (vin, app), drops kNotInstalled tombstones, and returns the
  /// survivors sorted by (vin, app) so recovery is deterministic
  /// regardless of the original append order.  A torn
  /// tail is truncated silently; a record that decodes but fails
  /// validation is kCorrupted.
  static support::Result<std::vector<StatusParagraph>> Replay(
      std::span<const std::uint8_t> data);

  /// Full replay: folds catalog records (incremental and checkpoint
  /// kImage) alongside the paragraphs.  Replay() above is the
  /// paragraphs-only view of exactly this fold.
  static support::Result<StatusImage> ReplayImage(
      std::span<const std::uint8_t> data);

 private:
  support::RecordSink& sink_;
  support::RecordWriter writer_;
};

}  // namespace dacm::server
