// Trusted-server data model (paper Figure 2).
//
// User-side records: User, Vehicle, and the per-vehicle configuration
// (HW conf + SystemSW conf uploaded by the OEM per vehicle *model*, and
// the InstalledAPP table per vehicle *instance*).
//
// Developer-side records: APP (one or several plug-in binaries) with one
// or several SW confs describing, per vehicle model, how the plug-ins are
// distributed over the ECUs and how their ports connect.
//
// Note: this repo hosts exactly one plug-in SW-C per plug-in-capable ECU,
// so "SW-C-scope unique port ids" and "ECU-scope" coincide; ids are
// allocated per (vehicle, ECU).
#pragma once

#include <array>
#include <bit>
#include <optional>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "pirte/context.hpp"
#include "pirte/package.hpp"
#include "support/bytes.hpp"
#include "support/ids.hpp"
#include "support/shared_bytes.hpp"

namespace dacm::server {

struct UserTag {};
struct AppTag {};
using UserId = support::StrongId<UserTag>;
using AppId = support::StrongId<AppTag>;

/// Occupied unique port ids on one ECU: a 256-bit bitmap that hands out
/// the lowest free id in O(1).  Kept per vehicle (see Vehicle::port_ids)
/// and maintained incrementally across deploys/uninstalls — the free-list
/// that replaced the per-deploy rescan of the InstalledAPP table.
class PortIdSet {
 public:
  PortIdSet() = default;
  PortIdSet(std::initializer_list<std::uint8_t> ids) {
    for (std::uint8_t id : ids) insert(id);
  }

  bool contains(std::uint8_t id) const {
    return (words_[id >> 6] >> (id & 63)) & 1u;
  }
  void insert(std::uint8_t id) { words_[id >> 6] |= Bit(id); }
  void erase(std::uint8_t id) { words_[id >> 6] &= ~Bit(id); }
  std::size_t size() const {
    std::size_t count = 0;
    for (std::uint64_t word : words_) count += static_cast<std::size_t>(std::popcount(word));
    return count;
  }

  /// Raw 256-bit occupancy words, lowest ids in words()[0] bit 0.
  const std::array<std::uint64_t, 4>& words() const { return words_; }
  /// Word-wise: what the package cache's layout probes compare.
  bool operator==(const PortIdSet&) const = default;

  /// Claims and returns the lowest free id; nullopt once all 256 are taken.
  std::optional<std::uint8_t> AllocateLowest() {
    for (std::size_t w = 0; w < words_.size(); ++w) {
      if (words_[w] != ~std::uint64_t{0}) {
        const int bit = std::countr_one(words_[w]);
        words_[w] |= std::uint64_t{1} << bit;
        return static_cast<std::uint8_t>(w * 64 + static_cast<std::size_t>(bit));
      }
    }
    return std::nullopt;
  }

 private:
  static constexpr std::uint64_t Bit(std::uint8_t id) {
    return std::uint64_t{1} << (id & 63);
  }
  std::array<std::uint64_t, 4> words_{};
};

/// Occupied unique port ids, per ECU.
using UsedIdMap = std::unordered_map<std::uint32_t, PortIdSet>;

/// The same occupancy in canonical form: (ECU, id set) pairs sorted by
/// ECU, empty sets dropped.  Two vehicles get byte-identical packages for
/// an app exactly when their layouts compare equal, so the package cache
/// keys batch variants on it; comparing one allocates nothing.
using IdLayout = std::vector<std::pair<std::uint32_t, PortIdSet>>;

/// The map form GeneratePackages allocates from.
inline UsedIdMap ToUsedIdMap(const IdLayout& layout) {
  UsedIdMap used;
  used.reserve(layout.size());
  for (const auto& [ecu, set] : layout) used.emplace(ecu, set);
  return used;
}

// --- OEM uploads (per vehicle model) -----------------------------------------

/// HW conf: hardware resources available to plug-ins.
struct EcuInfo {
  std::uint32_t ecu_id = 0;
  std::string name;           // e.g. "ECU1"
  bool has_plugin_swc = false;
  bool is_ecm = false;
  std::size_t max_plugins = 8;
  std::size_t max_binary_size = 64 * 1024;
};

struct HwConf {
  std::vector<EcuInfo> ecus;

  const EcuInfo* FindEcu(std::uint32_t ecu_id) const {
    for (const EcuInfo& ecu : ecus) {
      if (ecu.ecu_id == ecu_id) return &ecu;
    }
    return nullptr;
  }
};

enum class VirtualPortFlow : std::uint8_t {
  kPluginToSystem = 0,  // plug-ins write into it (e.g. WheelsReq)
  kSystemToPlugin = 1,  // plug-ins receive from it (e.g. SpeedProv)
  kBidirectional = 2,   // Type II channels
};

/// SystemSW conf: one exposed virtual port.
struct VirtualPortDesc {
  std::uint8_t id = 0;       // vehicle-scope V#
  std::string name;          // "WheelsReq"
  std::uint8_t kind = 3;     // 2 = Type II, 3 = Type III
  VirtualPortFlow flow = VirtualPortFlow::kPluginToSystem;
  std::uint32_t ecu_id = 0;  // ECU whose PIRTE owns this virtual port
  std::uint32_t peer_ecu = 0;  // Type II: the SW-C at the other end
};

struct SystemSwConf {
  std::string platform_version;  // comparable with CompareVersions
  std::vector<VirtualPortDesc> virtual_ports;

  const VirtualPortDesc* FindByName(const std::string& name) const {
    for (const VirtualPortDesc& vp : virtual_ports) {
      if (vp.name == name) return &vp;
    }
    return nullptr;
  }
};

/// A vehicle model's full configuration as uploaded by the OEM.
struct VehicleModelConf {
  std::string model;  // e.g. "rpi-testbed"
  HwConf hw;
  SystemSwConf sw;
};

// --- developer uploads ----------------------------------------------------------

struct PluginPortDecl {
  std::uint8_t local_index = 0;
  std::string name;
  pirte::PluginPortDirection direction = pirte::PluginPortDirection::kRequired;
};

/// One plug-in inside an APP.
struct PluginDecl {
  std::string name;  // unique within the app
  support::Bytes binary;
  std::vector<PluginPortDecl> ports;
};

/// How one plug-in port connects (SW conf material the server translates
/// into PLC/ECC entries).
struct ConnectionDecl {
  enum class Target : std::uint8_t {
    kNone = 0,          // PIRTE-direct ("P0-")
    kVirtualPort = 1,   // by virtual-port name
    kPeerPlugin = 2,    // another plug-in of the same app
    kExternalIn = 3,    // external world -> this port (via ECM)
    kExternalOut = 4,   // this port -> external world (via ECM)
  };

  std::string plugin;
  std::uint8_t local_port = 0;
  Target target = Target::kNone;
  std::string virtual_port_name;  // kVirtualPort
  std::string peer_plugin;        // kPeerPlugin
  std::uint8_t peer_port = 0;     // kPeerPlugin
  std::string endpoint;           // kExternal*
  std::string message_id;         // kExternal*
};

struct PlacementDecl {
  std::string plugin;
  std::uint32_t ecu_id = 0;
};

/// Per-vehicle-model deployment description of an APP.
struct SwConf {
  std::string vehicle_model;
  std::string min_platform;  // minimum SystemSW version
  std::vector<PlacementDecl> placements;
  std::vector<ConnectionDecl> connections;
  std::vector<std::string> required_virtual_ports;

  const PlacementDecl* PlacementOf(const std::string& plugin) const {
    for (const PlacementDecl& p : placements) {
      if (p.plugin == plugin) return &p;
    }
    return nullptr;
  }
};

struct App {
  std::string name;
  std::string version;
  std::string developer;
  std::vector<PluginDecl> plugins;
  std::vector<SwConf> confs;
  std::vector<std::string> depends_on;      // app names
  std::vector<std::string> conflicts_with;  // app names

  const SwConf* ConfForModel(const std::string& model) const {
    for (const SwConf& conf : confs) {
      if (conf.vehicle_model == model) return &conf;
    }
    return nullptr;
  }
  const PluginDecl* FindPlugin(const std::string& plugin) const {
    for (const PluginDecl& p : plugins) {
      if (p.name == plugin) return &p;
    }
    return nullptr;
  }
};

// --- per-vehicle records -----------------------------------------------------------

enum class InstallState : std::uint8_t {
  kPending,      // packages pushed, waiting for acks
  kInstalled,    // all plug-ins acked ok
  kFailed,       // at least one nack
  kUninstalling  // uninstall messages pushed, waiting for acks
};

std::string_view InstallStateName(InstallState state);

/// One row of the InstalledAPP table.
struct InstalledApp {
  std::string app_name;
  std::string version;
  InstallState state = InstallState::kPending;

  struct PluginRecord {
    std::string plugin;                  // plug-in name (ack key)
    std::uint32_t ecu_id = 0;            // placement
    pirte::PortInitContext pic;          // generated contexts (restore reuses them)
    support::Bytes package_bytes;        // full serialized InstallationPackage
    bool acked = false;
    bool ack_ok = false;
    std::string ack_detail;
  };
  std::vector<PluginRecord> plugins;

  /// The serialized kInstallBatch envelope recorded when the campaign
  /// batch was first pushed; retry waves re-push it verbatim (a refcount
  /// bump instead of reserializing ~50 KiB per vehicle).  Cleared once
  /// the row converges, so pending rows are the only ones paying memory.
  support::SharedBytes push_bytes;
  /// Same for the kUninstallBatch envelope, cached by the first rollback
  /// wave and reused by every repeated wave until the row resolves.
  support::SharedBytes uninstall_bytes;

  bool AllAcked() const {
    for (const PluginRecord& p : plugins) {
      if (!p.acked) return false;
    }
    return true;
  }
  bool AnyFailed() const {
    for (const PluginRecord& p : plugins) {
      if (p.acked && !p.ack_ok) return true;
    }
    return false;
  }
};

struct Vehicle {
  std::string vin;
  std::string model;
  UserId owner = UserId::Invalid();
  std::vector<InstalledApp> installed;
  /// Unique-id bitmap per ECU, kept in lockstep with `installed`: claimed
  /// by Deploy, released when a failed deploy rolls back or an uninstall
  /// fully acknowledges.
  UsedIdMap port_ids;

  InstalledApp* FindInstalled(const std::string& app_name) {
    for (InstalledApp& app : installed) {
      if (app.app_name == app_name) return &app;
    }
    return nullptr;
  }
  const InstalledApp* FindInstalled(const std::string& app_name) const {
    for (const InstalledApp& app : installed) {
      if (app.app_name == app_name) return &app;
    }
    return nullptr;
  }
};

struct User {
  std::string name;
  std::vector<std::string> vins;
};

}  // namespace dacm::server
