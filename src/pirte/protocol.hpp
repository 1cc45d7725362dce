// Wire protocol between the trusted server, the ECM, and external devices.
//
//  * Envelope — server <-> ECM framing: a Hello (VIN announcement, sent by
//    the ECM right after the socket connect) or an embedded PirteMessage
//    (installation package / lifecycle command / ack).
//  * FesFrame — external device <-> ECM framing for federated-embedded-
//    system traffic: a message id (matched against ECC entries, e.g.
//    "Wheels" / "Speed") plus an opaque payload.
#pragma once

#include <string>

#include "pirte/package.hpp"
#include "support/bytes.hpp"
#include "support/status.hpp"

namespace dacm::pirte {

struct Envelope {
  enum class Kind : std::uint8_t { kHello = 0, kPirteMessage = 1 };

  Kind kind = Kind::kHello;
  std::string vin;          // kHello
  support::Bytes message;   // kPirteMessage: serialized PirteMessage

  support::Bytes Serialize() const;
  static support::Result<Envelope> Deserialize(std::span<const std::uint8_t> data);
};

/// Zero-copy view of a serialized Envelope: `vin` and `message` alias the
/// parsed buffer, so the view must not outlive it.  Receive handlers that
/// inspect an envelope and drop it before returning (server and ECM
/// dispatch) use this to skip two allocations per message.
struct EnvelopeView {
  Envelope::Kind kind = Envelope::Kind::kHello;
  std::string_view vin;
  std::span<const std::uint8_t> message;

  static support::Result<EnvelopeView> Parse(std::span<const std::uint8_t> data);
};

struct FesFrame {
  std::string message_id;  // e.g. "Wheels"
  support::Bytes payload;

  support::Bytes Serialize() const;
  static support::Result<FesFrame> Deserialize(std::span<const std::uint8_t> data);
};

/// One-pass framing of a kPirteMessage envelope: writes the envelope
/// header and the inner message fields into a single sized buffer, instead
/// of serializing the message and copying it into Envelope::message.  Takes
/// a view, so the server frames a per-plug-in push straight from a package
/// held elsewhere (PirteMessage::View() adapts an owning message).
support::Bytes SerializeEnveloped(std::string_view vin, const PirteMessageView& message);

/// One plug-in's package inside a kInstallBatch push.
struct InstallBatchPackage {
  std::string_view plugin_name;  // kInstallPackage message plug-in name
  std::uint32_t target_ecu = 0;
  const InstallationPackage* package = nullptr;
};

/// One-pass framing of a whole campaign push: the envelope header, the
/// kInstallBatch message header (naming `app_name`), and per entry the
/// kInstallPackage framing followed by the InstallationPackage itself (its
/// CRC patched over the body in place), all in one sized buffer.  Each
/// package binary is copied exactly once, straight into the wire.
/// `package_views[i]` (sized like `entries` by the caller) receives the
/// span of entry i's serialized InstallationPackage inside the returned
/// buffer; moving the buffer (into a SharedBytes, say) keeps the views
/// valid.
support::Bytes SerializeEnvelopedInstallBatch(
    std::string_view vin, std::string_view app_name,
    std::span<const InstallBatchPackage> entries,
    std::span<std::span<const std::uint8_t>> package_views);

/// One-pass framing of a vehicle's whole campaign answer: envelope header,
/// kAckBatch message header and every verdict, in one sized buffer.  The
/// vehicle side of a fleet sends exactly one of these per batch push, so
/// the two intermediate buffers the generic path needs (payload, inner
/// message) are worth skipping.
support::Bytes SerializeEnvelopedAckBatch(
    std::string_view vin, std::span<const BatchAckEntryView> verdicts);

}  // namespace dacm::pirte
