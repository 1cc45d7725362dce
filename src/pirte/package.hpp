// Installation packages and Type I / server wire messages.
//
// Two message layers share these definitions:
//
//  * PirteMessage — what travels on Type I SW-C ports between the ECM and
//    the plug-in SW-Cs (and, embedded in FesFrames, between the server /
//    external devices and the ECM).  The message type id is the first
//    byte; 0 is the installation package, as in the paper.
//
//  * InstallationPackage — plug-in name/version + PIC + PLC (+ ECC for the
//    ECM) + the PVM binary, CRC-protected as one unit.
#pragma once

#include <string>
#include <vector>

#include "pirte/context.hpp"
#include "support/bytes.hpp"
#include "support/status.hpp"

namespace dacm::pirte {

/// Type-I message type ids (first byte on the wire).
enum class MessageType : std::uint8_t {
  kInstallPackage = 0,  // paper: "e.g. 0 for the installation package"
  kUninstall = 1,
  kAck = 2,
  kExternalData = 3,  // external world -> plug-in port
  kStop = 4,          // lifecycle: stop a running plug-in (pre-update state rule)
  kStart = 5,         // lifecycle: (re)start a stopped plug-in
  kInstallBatch = 6,  // campaign push: one message carrying an app's packages
  kAckBatch = 7,      // one acknowledgement covering a whole received batch
  kUninstallBatch = 8,  // rollback push: the kInstallBatch framing in reverse
};

/// The complete artifact the server assembles per (plug-in, vehicle).
struct InstallationPackage {
  std::string plugin_name;
  std::string version;
  PortInitContext pic;
  PortLinkingContext plc;
  ExternalConnectionContext ecc;  // empty unless externally communicating
  support::Bytes binary;          // serialized vm::Program

  /// Exact serialized size: the u32 CRC plus the body.
  std::size_t WireSize() const;
  /// Appends the CRC and the body in one pass: a placeholder CRC goes out
  /// first and is patched over the body once the body is written.
  void SerializeTo(support::ByteWriter& writer) const;
  support::Bytes Serialize() const;
  static support::Result<InstallationPackage> Deserialize(
      std::span<const std::uint8_t> data);
};

struct PirteMessageView;

/// One message on a Type I port.
struct PirteMessage {
  MessageType type = MessageType::kAck;
  std::string plugin_name;
  std::uint32_t target_ecu = 0;   // recipient ECU (routing key in the ECM)
  std::uint8_t dest_port = 0;     // SW-C-unique port id (kExternalData)
  bool ok = true;                 // kAck payload
  std::string detail;             // kAck diagnostic / kExternalData message id
  support::Bytes payload;         // package bytes / external data

  support::Bytes Serialize() const;
  static support::Result<PirteMessage> Deserialize(std::span<const std::uint8_t> data);

  // The wire layout, defined once: every serializer (member Serialize,
  // the one-pass envelope framing, batch assembly) delegates here so the
  // field sequence and the length arithmetic cannot diverge.
  static constexpr std::size_t kFixedWireSize = 19;  // scalars + 3 length prefixes
  static std::size_t WireSizeOf(std::string_view plugin_name,
                                std::string_view detail,
                                std::size_t payload_size) {
    return kFixedWireSize + plugin_name.size() + detail.size() + payload_size;
  }
  std::size_t WireSize() const {
    return WireSizeOf(plugin_name, detail, payload.size());
  }
  /// Appends the serialized fields to `writer` (no framing around them).
  static void SerializeFieldsTo(support::ByteWriter& writer, MessageType type,
                                std::string_view plugin_name,
                                std::uint32_t target_ecu, std::uint8_t dest_port,
                                bool ok, std::string_view detail,
                                std::span<const std::uint8_t> payload);
  /// Everything up to and including the payload length prefix; the caller
  /// writes exactly `payload_size` payload bytes right after.  Lets
  /// one-pass framers emit a computed payload without first materializing
  /// it in its own buffer.
  static void SerializeHeaderTo(support::ByteWriter& writer, MessageType type,
                                std::string_view plugin_name,
                                std::uint32_t target_ecu, std::uint8_t dest_port,
                                bool ok, std::string_view detail,
                                std::uint32_t payload_size);
  void SerializeTo(support::ByteWriter& writer) const {
    SerializeFieldsTo(writer, type, plugin_name, target_ecu, dest_port, ok,
                      detail, payload);
  }
  /// A view aliasing this message's fields (see PirteMessageView).
  PirteMessageView View() const;
};

/// Zero-copy view of a serialized PirteMessage (the EnvelopeView idiom):
/// string/blob fields alias the parsed buffer, so the view must not
/// outlive it.  Dispatch sites that route on type/plugin and drop the
/// message before returning use this to skip three allocations.
struct PirteMessageView {
  MessageType type = MessageType::kAck;
  std::string_view plugin_name;
  std::uint32_t target_ecu = 0;
  std::uint8_t dest_port = 0;
  bool ok = true;
  std::string_view detail;
  std::span<const std::uint8_t> payload;

  static support::Result<PirteMessageView> Parse(std::span<const std::uint8_t> data);
};

inline PirteMessageView PirteMessage::View() const {
  return {type, plugin_name, target_ecu, dest_port, ok, detail, payload};
}

// --- campaign batches --------------------------------------------------------
//
// A fleet campaign pushes ONE kInstallBatch message per vehicle instead of
// one round-trip per plug-in; its payload is a varint count followed by
// the serialized per-plug-in kInstallPackage messages.  The vehicle
// answers with a single kAckBatch whose payload carries one verdict per
// plug-in.  The batch itself is framed by SerializeEnvelopedInstallBatch
// (pirte/protocol.hpp), envelope included, in one pass.

/// One per-plug-in uninstall inside a kUninstallBatch payload.  No package
/// bytes: the plug-in name plus its placement is all an uninstall carries.
struct UninstallBatchEntry {
  std::string_view plugin_name;
  std::uint32_t target_ecu = 0;
};

/// Builds the payload of a kUninstallBatch message — the kInstallBatch
/// framing in reverse: each entry is a serialized kUninstall PirteMessage,
/// so ForEachInBatch walks both batch shapes with the same code.  Rollback
/// campaigns push one of these per vehicle instead of a round-trip per
/// plug-in.
support::Bytes SerializeUninstallBatch(std::span<const UninstallBatchEntry> entries);

/// Walks a kInstallBatch payload without copying: `fn` (returning
/// support::Status) receives a view of each embedded serialized
/// PirteMessage.  Stops on malformed input or the first error from `fn`.
/// A template so the per-entry call stays direct (no std::function) on
/// the batch hot paths.
template <typename Fn>
support::Status ForEachInBatch(std::span<const std::uint8_t> payload, Fn&& fn) {
  support::ByteReader reader(payload);
  DACM_ASSIGN_OR_RETURN(std::uint32_t count, reader.ReadVarU32());
  for (std::uint32_t i = 0; i < count; ++i) {
    DACM_ASSIGN_OR_RETURN(std::span<const std::uint8_t> entry,
                          reader.ReadBlobView());
#if defined(__GNUC__) || defined(__clang__)
    // Entries sit KiBs apart (each embeds a package binary), so each
    // entry's header is a fresh cache/TLB miss on a campaign-sized batch.
    // Kick off the next entry's header load before parsing this one; the
    // fleet-delivery profile is memory-latency-bound right here.
    if (i + 1 < count && reader.remaining() >= 4) {
      __builtin_prefetch(entry.data() + entry.size() + 4);
    }
#endif
    DACM_RETURN_IF_ERROR(fn(entry));
  }
  return support::OkStatus();
}

/// One per-plug-in verdict inside a kAckBatch payload.
struct BatchAckEntry {
  std::string plugin;
  bool ok = true;
  std::string detail;
};

support::Bytes SerializeAckBatch(std::span<const BatchAckEntry> entries);
support::Result<std::vector<BatchAckEntry>> DeserializeAckBatch(
    std::span<const std::uint8_t> payload);

/// View form of a verdict: aliases the caller's storage.  Fleet endpoints
/// assemble thousands of ack batches per campaign straight from parsed
/// batch views, so the owning form above would mean two string copies per
/// plug-in on the vehicle-side hot path.
struct BatchAckEntryView {
  std::string_view plugin;
  bool ok = true;
  std::string_view detail;
};

/// Exact serialized size of a kAckBatch payload — lets one-pass framers
/// (SerializeEnvelopedAckBatch) size the whole wire buffer up front.
std::size_t AckBatchWireSize(std::span<const BatchAckEntryView> entries);

/// Appends the kAckBatch payload (varint count + verdicts) to `writer`.
void SerializeAckBatchTo(support::ByteWriter& writer,
                         std::span<const BatchAckEntryView> entries);

/// Zero-copy walk of a kAckBatch payload: `fn(plugin, ok, detail)` per
/// verdict, the views aliasing `payload`.  The server's hot ack path —
/// thousands of fleet acknowledgements per campaign — uses this to stay
/// allocation-free, hence a template rather than std::function.
template <typename Fn>
support::Status ForEachAckInBatch(std::span<const std::uint8_t> payload, Fn&& fn) {
  support::ByteReader reader(payload);
  DACM_ASSIGN_OR_RETURN(std::uint32_t count, reader.ReadVarU32());
  for (std::uint32_t i = 0; i < count; ++i) {
    DACM_ASSIGN_OR_RETURN(std::string_view plugin, reader.ReadStringView());
    DACM_ASSIGN_OR_RETURN(std::uint8_t ok, reader.ReadU8());
    DACM_ASSIGN_OR_RETURN(std::string_view detail, reader.ReadStringView());
    fn(plugin, ok != 0, detail);
  }
  return support::OkStatus();
}

}  // namespace dacm::pirte
