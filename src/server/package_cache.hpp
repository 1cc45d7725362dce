// Fleet-wide content-addressed package cache (the vcpkg ABI-hash idea
// applied to install batches).
//
// A campaign over millions of vehicles spans only dozens of distinct
// (model, app, version) combinations, and within one combination every
// vehicle with the same occupied-port-id layout receives byte-identical
// packages: GeneratePackages allocates unique ids lowest-free, so the
// output is a pure function of (app, confs, used-id layout).  The cache
// exploits that: package generation and batch assembly run once per
// distinct (key, layout) — a variant — and every matching vehicle
// re-pushes the same refcounted SharedBytes envelope.  A hit (a live
// variant) allocates nothing: the key is probed through string views and
// the layout is the caller's reusable IdLayout buffer.
//
// Two lifetimes, split deliberately:
//
//  * BatchManifest — the part the server must keep for as long as the
//    install row exists (plug-in names, placements, PICs, the uninstall
//    envelope).  A few hundred bytes per distinct batch, pinned by
//    shared_ptr from every row.
//  * BatchPayload — the heavy part: ONE buffer, the install envelope,
//    which holds each package binary exactly once (about 50 KiB for a
//    4-plug-in app of 12 KiB binaries); the per-plug-in packages are
//    views into it.  Two owners hold it: the rows whose install is in
//    flight, and the campaign whose wave built it (CampaignEngine pins
//    every payload its waves build until the campaign finishes, so a
//    retry wave re-pushes the bytes wave 1 built instead of rebuilding
//    them).  The cache keeps only a weak_ptr, so once the last pending
//    row converges and the building campaign (if any) has finished, the
//    payload is freed and steady-state memory is O(distinct batches),
//    not O(fleet).  A later repush (recovery, restore, a later campaign)
//    regenerates it deterministically from the pinned layout.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <tuple>
#include <unordered_map>
#include <utility>
#include <vector>

#include "pirte/context.hpp"
#include "server/context_gen.hpp"
#include "server/model.hpp"
#include "server/status_db.hpp"
#include "support/shared_bytes.hpp"
#include "support/status.hpp"

namespace dacm::server {

/// The pinned, cheap half of a cached batch: everything an install row
/// needs after convergence (status-DB paragraphs, acks keyed by plug-in
/// name, rollback) without the package bytes.
struct BatchManifest {
  struct Plugin {
    std::string name;
    std::uint32_t ecu_id = 0;
    pirte::PortInitContext pic;  // unique ids this plug-in occupies
  };

  std::string app_name;
  std::string version;
  std::vector<Plugin> plugins;
  /// Pre-built VIN-less kUninstallBatch envelope; every rollback wave for
  /// this batch pushes it by refcount bump.
  support::SharedBytes uninstall_wire;
};

/// The heavy, droppable half: the VIN-less kInstallBatch envelope, and
/// each serialized InstallationPackage (manifest plug-in order) as a view
/// into it — one copy of the package bytes, not two.
struct BatchPayload {
  support::SharedBytes install_wire;
  std::vector<std::span<const std::uint8_t>> packages;
};

/// Payloads a campaign holds alive until it finishes (see "Two
/// lifetimes" above).
using PayloadPins = std::vector<std::shared_ptr<const BatchPayload>>;

struct CachedBatch {
  std::shared_ptr<const BatchManifest> manifest;
  std::shared_ptr<const BatchPayload> payload;
  /// True when this Acquire built `payload` (a new variant, or an expired
  /// one revived); false on a hit, whose payload already has an owner.
  bool built = false;
};

/// Server-wide cache of generated install batches, keyed by
/// (model, app, version) and, within a key, by the canonical used-id
/// layout of the requesting vehicle (vehicles with different occupied
/// ids legitimately get different PICs — each layout is its own
/// variant, so distinct keys can never alias).
class PackageCache {
 public:
  /// Plain event counts, folded into the metrics registry by the server.
  struct Stats {
    std::uint64_t hits = 0;           // served a live payload
    std::uint64_t variants = 0;       // generated a new (key, layout) variant
    std::uint64_t regenerations = 0;  // regenerated an expired payload
  };

  /// Returns the batch for `app` on `model` given the vehicle's occupied
  /// ids in canonical form (FleetStore::DeriveLayout) — generating it on
  /// first sight of this (key, layout), reviving an expired payload
  /// deterministically, or handing back the live one (CachedBatch::built
  /// tells the two apart).  Generation failures
  /// (placement/port-exhaustion/...) pass through verbatim and
  /// cache nothing.
  support::Result<CachedBatch> Acquire(const std::string& model, const App& app,
                                       const SwConf& conf,
                                       const SystemSwConf& system_sw,
                                       const IdLayout& layout);

  /// Distinct (model, app, version) keys seen.
  std::size_t entries() const;
  /// Variants whose payload is still alive (an in-flight row or a
  /// running campaign holds it).
  std::size_t live_payloads() const;
  const Stats& stats() const { return stats_; }

  /// Builds a one-off manifest for a row replayed from the status DB: the
  /// durable paragraph records only (plugin, ecu, unique ids), which is
  /// exactly what convergence bookkeeping and rollback need.  Not interned
  /// — a later materialization replaces it with a cached manifest.
  static std::shared_ptr<const BatchManifest> RecoveredManifest(
      const std::string& app_name, const std::string& version,
      std::span<const StatusParagraph::PluginIds> plugins);

 private:
  /// Variant probes compare layouts in full — no hash-collision aliasing
  /// by construction.
  struct Variant {
    IdLayout layout;
    std::shared_ptr<const BatchManifest> manifest;
    std::weak_ptr<const BatchPayload> payload;
  };
  struct Entry {
    std::vector<Variant> variants;
  };

  /// (model, app, version).  The map owns the strings and is probed
  /// through views (std::equal_to<> compares the two tuple types), so a
  /// lookup copies no string.
  using Key = std::tuple<std::string, std::string, std::string>;
  using KeyView = std::tuple<std::string_view, std::string_view, std::string_view>;
  struct KeyHash {
    using is_transparent = void;
    std::size_t operator()(const KeyView& key) const;  // a Key converts
  };

  std::unordered_map<Key, Entry, KeyHash, std::equal_to<>> entries_;
  Stats stats_;
};

}  // namespace dacm::server
