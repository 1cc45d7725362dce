#include "pirte/protocol.hpp"

#include <cassert>

#include "pirte/package.hpp"

namespace dacm::pirte {

support::Bytes Envelope::Serialize() const {
  support::ByteWriter writer;
  writer.Reserve(9 + vin.size() + message.size());
  writer.WriteU8(static_cast<std::uint8_t>(kind));
  writer.WriteString(vin);
  writer.WriteBlob(message);
  return writer.Take();
}

support::Result<EnvelopeView> EnvelopeView::Parse(
    std::span<const std::uint8_t> data) {
  support::ByteReader reader(data);
  EnvelopeView view;
  DACM_ASSIGN_OR_RETURN(std::uint8_t kind, reader.ReadU8());
  if (kind > 1) return support::Corrupted("bad envelope kind");
  view.kind = static_cast<Envelope::Kind>(kind);
  DACM_ASSIGN_OR_RETURN(view.vin, reader.ReadStringView());
  DACM_ASSIGN_OR_RETURN(view.message, reader.ReadBlobView());
  return view;
}

support::Result<Envelope> Envelope::Deserialize(std::span<const std::uint8_t> data) {
  DACM_ASSIGN_OR_RETURN(EnvelopeView view, EnvelopeView::Parse(data));
  Envelope envelope;
  envelope.kind = view.kind;
  envelope.vin = std::string(view.vin);
  envelope.message.assign(view.message.begin(), view.message.end());
  return envelope;
}

namespace {

/// Envelope header of a kPirteMessage carrying an `inner`-byte message.
void WriteEnvelopeHeader(support::ByteWriter& writer, std::string_view vin,
                         std::size_t inner) {
  writer.WriteU8(static_cast<std::uint8_t>(Envelope::Kind::kPirteMessage));
  writer.WriteString(vin);
  writer.WriteU32(static_cast<std::uint32_t>(inner));  // message blob framing
}

constexpr std::size_t kEnvelopeHeaderSize = 9;  // kind + 2 length prefixes

}  // namespace

support::Bytes SerializeEnveloped(std::string_view vin,
                                  const PirteMessageView& message) {
  const std::size_t inner = PirteMessage::WireSizeOf(
      message.plugin_name, message.detail, message.payload.size());
  support::ByteWriter writer;
  writer.Reserve(kEnvelopeHeaderSize + vin.size() + inner);
  WriteEnvelopeHeader(writer, vin, inner);
  PirteMessage::SerializeFieldsTo(writer, message.type, message.plugin_name,
                                  message.target_ecu, message.dest_port,
                                  message.ok, message.detail, message.payload);
  return writer.Take();
}

support::Bytes SerializeEnvelopedInstallBatch(
    std::string_view vin, std::string_view app_name,
    std::span<const InstallBatchPackage> entries,
    std::span<std::span<const std::uint8_t>> package_views) {
  std::size_t payload =
      support::VarU32Size(static_cast<std::uint32_t>(entries.size()));
  for (const InstallBatchPackage& entry : entries) {
    payload += 4 + PirteMessage::WireSizeOf(entry.plugin_name, {},
                                            entry.package->WireSize());
  }
  const std::size_t inner = PirteMessage::WireSizeOf(app_name, {}, payload);
  const std::size_t total = kEnvelopeHeaderSize + vin.size() + inner;
  support::ByteWriter writer;
  // Exact: nothing below reallocates, so the views taken as each package
  // is written stay put.
  writer.Reserve(total);
  WriteEnvelopeHeader(writer, vin, inner);
  PirteMessage::SerializeHeaderTo(writer, MessageType::kInstallBatch, app_name,
                                  /*target_ecu=*/0, /*dest_port=*/0,
                                  /*ok=*/true, /*detail=*/{},
                                  static_cast<std::uint32_t>(payload));
  writer.WriteVarU32(static_cast<std::uint32_t>(entries.size()));
  for (std::size_t i = 0; i < entries.size(); ++i) {
    const InstallBatchPackage& entry = entries[i];
    const std::size_t package = entry.package->WireSize();
    writer.WriteU32(static_cast<std::uint32_t>(
        PirteMessage::WireSizeOf(entry.plugin_name, {}, package)));  // blob framing
    PirteMessage::SerializeHeaderTo(writer, MessageType::kInstallPackage,
                                    entry.plugin_name, entry.target_ecu,
                                    /*dest_port=*/0, /*ok=*/true, /*detail=*/{},
                                    static_cast<std::uint32_t>(package));
    const std::size_t at = writer.size();
    entry.package->SerializeTo(writer);
    package_views[i] = std::span<const std::uint8_t>(writer.bytes()).subspan(at, package);
  }
  assert(writer.size() == total);
  return writer.Take();
}

support::Bytes SerializeEnvelopedAckBatch(
    std::string_view vin, std::span<const BatchAckEntryView> verdicts) {
  const std::size_t payload = AckBatchWireSize(verdicts);
  const std::size_t inner = PirteMessage::kFixedWireSize + payload;
  support::ByteWriter writer;
  writer.Reserve(9 + vin.size() + inner);
  writer.WriteU8(static_cast<std::uint8_t>(Envelope::Kind::kPirteMessage));
  writer.WriteString(vin);
  writer.WriteU32(static_cast<std::uint32_t>(inner));  // message blob framing
  PirteMessage::SerializeHeaderTo(writer, MessageType::kAckBatch,
                                  /*plugin_name=*/{}, /*target_ecu=*/0,
                                  /*dest_port=*/0, /*ok=*/true, /*detail=*/{},
                                  static_cast<std::uint32_t>(payload));
  SerializeAckBatchTo(writer, verdicts);
  return writer.Take();
}

support::Bytes FesFrame::Serialize() const {
  support::ByteWriter writer;
  writer.Reserve(8 + message_id.size() + payload.size());
  writer.WriteString(message_id);
  writer.WriteBlob(payload);
  return writer.Take();
}

support::Result<FesFrame> FesFrame::Deserialize(std::span<const std::uint8_t> data) {
  support::ByteReader reader(data);
  FesFrame frame;
  DACM_ASSIGN_OR_RETURN(frame.message_id, reader.ReadString());
  DACM_ASSIGN_OR_RETURN(frame.payload, reader.ReadBlob());
  return frame;
}

}  // namespace dacm::pirte
