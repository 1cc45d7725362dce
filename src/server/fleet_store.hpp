// Packed fleet state (the celengine catalog idiom): one
// append-only VIN-interned table hands out dense u32 handles, and every
// per-vehicle attribute lives in a parallel column indexed by handle —
// no per-vehicle heap row, no per-vehicle map nodes.
//
// Columns (hot, touched by every campaign push/ack):
//   vins_      string_view into a chunked char arena (stable forever)
//   model_     u16 index into the server's model-name table (kUnbound
//              until BindVehicle)
//   owner_     owning user id
//   row_head_  head of the vehicle's intrusive install-row list
//   peer_      the primary (first adopted) connection, usually the only
//              one
//
// Install rows sit in one slab with an embedded free list; a row holds
// ack bitmasks plus two shared_ptrs into the content-addressed package
// cache (manifest pinned for the row's lifetime, payload only while the
// install is in flight).  Side tables hold only the cold minority:
// vehicles with more than one live connection.
//
// Occupied port ids are not stored at all — they are derived on demand
// from the rows' manifests, so deploy/uninstall/rollback never maintain
// a bitmap incrementally (and cannot leak one).
#pragma once

#include <cstdint>
#include <memory>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

#include "server/model.hpp"
#include "server/package_cache.hpp"
#include "sim/network.hpp"

namespace dacm::server {

class FleetStore {
 public:
  static constexpr std::uint32_t kNil = 0xffffffffu;
  static constexpr std::uint16_t kUnbound = 0xffffu;

  /// One InstalledAPP-table row, ~64 bytes + two refcounts.  `acked` /
  /// `ack_ok` are per-plug-in bitmasks in manifest plug-in order (the
  /// server caps apps at 64 plug-ins so one word always suffices).
  struct InstallRow {
    std::uint32_t next = kNil;  // next row of the same vehicle / free list
    InstallState state = InstallState::kPending;
    std::uint64_t acked = 0;
    std::uint64_t ack_ok = 0;
    /// Sim time of the most recent wire push for this row (0 = never
    /// pushed).  Feeds the push→ack round-trip histogram and the
    /// per-vehicle deploy.roundtrip trace span on convergence.
    sim::SimTime pushed_at = 0;
    std::shared_ptr<const BatchManifest> manifest;
    std::shared_ptr<const BatchPayload> payload;
  };

  // --- VIN interning -------------------------------------------------------

  /// Handle for `vin`, or kNil if never seen.
  std::uint32_t Find(std::string_view vin) const;
  /// Handle for `vin`, interning it on first sight.
  std::uint32_t Intern(std::string_view vin);
  std::string_view VinOf(std::uint32_t v) const { return vins_[v]; }
  std::size_t size() const { return vins_.size(); }

  // --- binding columns -----------------------------------------------------

  /// A vehicle exists (for deploy/query purposes) once bound; a handle
  /// can predate its binding when the ECM's Hello races BindVehicle.
  bool bound(std::uint32_t v) const { return model_[v] != kUnbound; }
  void Bind(std::uint32_t v, std::uint16_t model, UserId owner) {
    model_[v] = model;
    owner_[v] = owner;
  }
  std::uint16_t model(std::uint32_t v) const { return model_[v]; }
  UserId owner(std::uint32_t v) const { return owner_[v]; }

  // --- install rows --------------------------------------------------------

  std::uint32_t row_head(std::uint32_t v) const { return row_head_[v]; }
  InstallRow& row(std::uint32_t r) { return rows_[r]; }
  const InstallRow& row(std::uint32_t r) const { return rows_[r]; }

  /// Appends a fresh row at the tail of `v`'s list (InstalledApps and
  /// status queries preserve install order) and returns its handle.
  std::uint32_t AddRow(std::uint32_t v);
  /// Unlinks `r` from `v`'s list, drops its cache references, and recycles
  /// the slot.
  void RemoveRow(std::uint32_t v, std::uint32_t r);
  /// Row of `v` whose manifest names `app_name`, or kNil.
  std::uint32_t FindRow(std::uint32_t v, std::string_view app_name) const;
  std::size_t live_rows() const { return live_rows_; }

  /// Occupied unique ids per ECU in canonical form, derived from the rows'
  /// manifest PICs into `layout` (cleared first; a caller that reuses one
  /// buffer derives without allocating).  `excluding_row` (if not kNil) is
  /// left out — the shape rematerialize needs when regenerating that
  /// row's own packages.
  void DeriveLayout(std::uint32_t v, IdLayout& layout,
                    std::uint32_t excluding_row = kNil) const;

  // --- connections ---------------------------------------------------------

  /// Adopts a connection, after the caller reaped dead ones.  First live
  /// connection lands in the primary column; extras go to the side table.
  void AddPeer(std::uint32_t v, std::shared_ptr<sim::NetPeer> peer);

  /// Drops `v`'s dead connections (calling `on_reap(peer*)` for each, so
  /// the server can unregister them) and returns how many were dropped.
  template <typename Fn>
  std::size_t ReapDeadPeers(std::uint32_t v, Fn&& on_reap) {
    std::size_t reaped = 0;
    auto extra = extra_peers_.find(v);
    if (peer_[v] != nullptr && !peer_[v]->connected()) {
      on_reap(peer_[v].get());
      peer_[v] = nullptr;
      ++reaped;
    }
    if (extra != extra_peers_.end()) {
      auto& extras = extra->second;
      for (auto it = extras.begin(); it != extras.end();) {
        if ((*it)->connected()) {
          ++it;
          continue;
        }
        on_reap(it->get());
        it = extras.erase(it);
        ++reaped;
      }
      // Keep adoption order: the oldest surviving extra becomes primary.
      if (peer_[v] == nullptr && !extras.empty()) {
        peer_[v] = std::move(extras.front());
        extras.erase(extras.begin());
      }
      if (extras.empty()) extra_peers_.erase(extra);
    }
    return reaped;
  }

  /// First connection (in adoption order) that is still up, or nullptr.
  sim::NetPeer* FirstConnectedPeer(std::uint32_t v) const;
  bool HasLiveConnection(std::uint32_t v) const {
    return FirstConnectedPeer(v) != nullptr;
  }

  /// Every adopted connection of every vehicle (teardown path).
  template <typename Fn>
  void ForEachPeer(Fn&& fn) {
    for (auto& peer : peer_) {
      if (peer != nullptr) fn(peer);
    }
    for (auto& [v, extras] : extra_peers_) {
      for (auto& peer : extras) fn(peer);
    }
  }

 private:
  static constexpr std::size_t kArenaChunk = 64 * 1024;

  std::string_view Store(std::string_view vin);
  void Rehash(std::size_t slot_count);

  // VIN arena + open-addressed handle index (power-of-two, linear probe).
  std::vector<std::unique_ptr<char[]>> arena_;
  std::size_t arena_used_ = kArenaChunk;  // forces a first chunk
  std::vector<std::uint32_t> slots_;

  // Parallel columns, one entry per interned VIN.
  std::vector<std::string_view> vins_;
  std::vector<std::uint16_t> model_;
  std::vector<UserId> owner_;
  std::vector<std::uint32_t> row_head_;
  std::vector<std::shared_ptr<sim::NetPeer>> peer_;

  // Cold minority: vehicles holding more than one live connection.
  std::unordered_map<std::uint32_t, std::vector<std::shared_ptr<sim::NetPeer>>>
      extra_peers_;

  // Install-row slab with embedded free list.
  std::vector<InstallRow> rows_;
  std::uint32_t free_rows_ = kNil;
  std::size_t live_rows_ = 0;
};

}  // namespace dacm::server
