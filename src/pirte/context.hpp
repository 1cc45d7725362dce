// Plug-in configuration contexts (paper §3.1.2, §3.2.2).
//
// A context ships with the plug-in binaries inside the installation
// package and tells the receiving PIRTE how to wire the new plug-in:
//
//  * Port Initialization Context (PIC) — maps the developer-chosen port
//    names / local indices to SW-C-scope *unique* port ids assigned by the
//    trusted server (which knows which ids the already-installed plug-ins
//    occupy);
//  * Port Linking Context (PLC) — per plug-in port, the connection to
//    establish: none (the PIRTE itself reads/writes the port directly,
//    written "P0-" in the paper), a virtual port ("P3-V5"), a virtual port
//    with a remote recipient port id attached ("P2-V0.P0" — Type II
//    multiplexing), or a direct link to another plug-in port on the same
//    SW-C;
//  * External Connection Context (ECC) — consumed by the ECM only:
//    external endpoint, message id, and in-vehicle routing (recipient ECU
//    + plug-in port).  Outbound entries (vehicle -> external world) are an
//    extension the FES examples use.
#pragma once

#include <string>
#include <vector>

#include "support/bytes.hpp"
#include "support/status.hpp"

namespace dacm::pirte {

/// Direction of a plug-in port as the developer declared it.
enum class PluginPortDirection : std::uint8_t { kRequired = 0, kProvided = 1 };

/// One PIC entry: local index (as referenced by the plug-in bytecode) and
/// developer-visible name, bound to the SW-C-unique id the server assigned.
struct PicEntry {
  std::uint8_t local_index = 0;
  std::string port_name;
  std::uint8_t unique_id = 0;
  PluginPortDirection direction = PluginPortDirection::kRequired;
};

struct PortInitContext {
  std::vector<PicEntry> entries;

  /// Exact serialized size (what SerializeTo appends).
  std::size_t WireSize() const;
  void SerializeTo(support::ByteWriter& writer) const;
  static support::Result<PortInitContext> DeserializeFrom(support::ByteReader& reader);
};

/// Connection kind of one PLC entry.
enum class PlcKind : std::uint8_t {
  kUnconnected = 0,    // "P0-": PIRTE communicates with the port directly
  kVirtual = 1,        // "P3-V5": plain virtual-port connection
  kVirtualRemote = 2,  // "P2-V0.P0": Type II link, recipient port id attached
  kLocalPlugin = 3,    // direct link to a peer plug-in port on this SW-C
};

struct PlcEntry {
  std::uint8_t local_port = 0;  // P#, plug-in-local index
  PlcKind kind = PlcKind::kUnconnected;
  std::uint8_t virtual_port = 0;    // V# (vehicle-scope id), for kVirtual*
  std::uint8_t remote_port_id = 0;  // recipient SW-C-unique id, for kVirtualRemote
  std::string peer_plugin;          // for kLocalPlugin
  std::uint8_t peer_local_port = 0; // for kLocalPlugin
};

struct PortLinkingContext {
  std::vector<PlcEntry> entries;

  /// Exact serialized size (what SerializeTo appends).
  std::size_t WireSize() const;
  void SerializeTo(support::ByteWriter& writer) const;
  static support::Result<PortLinkingContext> DeserializeFrom(support::ByteReader& reader);
};

enum class EccDirection : std::uint8_t { kInbound = 0, kOutbound = 1 };

/// One ECC entry.  Inbound: messages tagged `message_id` arriving from
/// `endpoint` are routed to plug-in port `port_unique_id` on `target_ecu`.
/// Outbound: writes to that port are sent to `endpoint` tagged with
/// `message_id`.
struct EccEntry {
  EccDirection direction = EccDirection::kInbound;
  std::string endpoint;    // e.g. "111.22.33.44:56789"
  std::string message_id;  // e.g. "Wheels"
  std::uint32_t target_ecu = 0;
  std::uint8_t port_unique_id = 0;
};

struct ExternalConnectionContext {
  std::vector<EccEntry> entries;

  bool empty() const { return entries.empty(); }

  /// Exact serialized size (what SerializeTo appends).
  std::size_t WireSize() const;
  void SerializeTo(support::ByteWriter& writer) const;
  static support::Result<ExternalConnectionContext> DeserializeFrom(
      support::ByteReader& reader);
};

}  // namespace dacm::pirte
