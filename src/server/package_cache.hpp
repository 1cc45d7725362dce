// Fleet-wide content-addressed package cache (the vcpkg ABI-hash idea
// applied to install batches).
//
// A campaign over millions of vehicles spans only dozens of distinct
// (model, app, version) combinations, and within one combination every
// vehicle with the same occupied-port-id layout receives byte-identical
// packages: GeneratePackages allocates unique ids lowest-free, so the
// output is a pure function of (app, confs, used-id layout).  The cache
// exploits that: package generation and SerializeInstallBatch run once
// per distinct key, and every matching vehicle re-pushes the same
// refcounted SharedBytes envelope.
//
// Two lifetimes, split deliberately:
//
//  * BatchManifest — the part the server must keep for as long as the
//    install row exists (plug-in names, placements, PICs, the uninstall
//    envelope, the content hash).  A few hundred bytes per distinct
//    batch, pinned by shared_ptr from every row.
//  * BatchPayload — the heavy part (serialized packages + the install
//    envelope, tens of KiB).  Rows hold it only while the install is in
//    flight; the cache keeps a weak_ptr, so when the last pending row
//    converges the payload is freed and steady-state memory is
//    O(distinct batches), not O(fleet).  A later repush (recovery,
//    restore) regenerates it deterministically from the pinned layout.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
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
  /// FNV-1a over the install envelope — the content address.
  std::uint64_t content_hash = 0;
};

/// The heavy, droppable half: serialized InstallationPackages (manifest
/// plug-in order) and the VIN-less kInstallBatch envelope.
struct BatchPayload {
  std::vector<support::Bytes> packages;
  support::SharedBytes install_wire;
};

struct CachedBatch {
  std::shared_ptr<const BatchManifest> manifest;
  std::shared_ptr<const BatchPayload> payload;
};

/// Server-wide cache of generated install batches, keyed by
/// (model, app, version) and, within a key, by the canonical used-id
/// layout of the requesting vehicle (vehicles with different occupied
/// ids legitimately get different PICs — each layout is its own
/// variant, so distinct keys can never alias).
class PackageCache {
 public:
  /// Returns the batch for `app` on `model` given the vehicle's occupied
  /// ids — generating it on first sight of this (key, layout), reviving
  /// an expired payload deterministically, or handing back the live one.
  /// Generation failures (placement/port-exhaustion/...) pass through
  /// verbatim and cache nothing.
  support::Result<CachedBatch> Acquire(const std::string& model, const App& app,
                                       const SwConf& conf,
                                       const SystemSwConf& system_sw,
                                       const UsedIdMap& used_ids);

  /// Distinct (model, app, version) keys seen.
  std::size_t entries() const;
  /// Variants whose payload is still alive (some row holds it in flight).
  std::size_t live_payloads() const;

  /// Builds a one-off manifest for a row replayed from the status DB: the
  /// durable paragraph records only (plugin, ecu, unique ids), which is
  /// exactly what convergence bookkeeping and rollback need.  Not interned
  /// — a later materialization replaces it with a cached manifest.
  static std::shared_ptr<const BatchManifest> RecoveredManifest(
      const std::string& app_name, const std::string& version,
      std::span<const StatusParagraph::PluginIds> plugins);

 private:
  /// A vehicle's occupied-id layout in canonical form: (ecu, bitmap
  /// words) sorted by ecu, empty sets dropped.  Variant probes compare
  /// layouts in full — no hash-collision aliasing by construction.
  using Layout =
      std::vector<std::pair<std::uint32_t, std::array<std::uint64_t, 4>>>;

  struct Variant {
    Layout layout;
    std::shared_ptr<const BatchManifest> manifest;
    std::weak_ptr<const BatchPayload> payload;
  };
  struct Entry {
    std::vector<Variant> variants;
  };

  static Layout Canonicalize(const UsedIdMap& used_ids);

  std::unordered_map<std::string, Entry> entries_;
};

}  // namespace dacm::server
