#include "pirte/package.hpp"

#include <algorithm>

#include "support/crc.hpp"

namespace dacm::pirte {

std::size_t InstallationPackage::WireSize() const {
  return 4 + (4 + plugin_name.size()) + (4 + version.size()) + pic.WireSize() +
         plc.WireSize() + ecc.WireSize() + (4 + binary.size());
}

void InstallationPackage::SerializeTo(support::ByteWriter& writer) const {
  const std::size_t crc_at = writer.size();
  writer.WriteU32(0);  // patched below, once the body is in place
  writer.WriteString(plugin_name);
  writer.WriteString(version);
  pic.SerializeTo(writer);
  plc.SerializeTo(writer);
  ecc.SerializeTo(writer);
  writer.WriteBlob(binary);
  const std::span<const std::uint8_t> body =
      std::span<const std::uint8_t>(writer.bytes()).subspan(crc_at + 4);
  writer.PatchU32(crc_at, support::Crc32(body));
}

support::Bytes InstallationPackage::Serialize() const {
  support::ByteWriter writer;
  writer.Reserve(WireSize());
  SerializeTo(writer);
  return writer.Take();
}

support::Result<InstallationPackage> InstallationPackage::Deserialize(
    std::span<const std::uint8_t> data) {
  support::ByteReader reader(data);
  DACM_ASSIGN_OR_RETURN(std::uint32_t wire_crc, reader.ReadU32());
  if (data.size() < 4 || support::Crc32(data.subspan(4)) != wire_crc) {
    return support::Corrupted("installation package CRC mismatch");
  }
  InstallationPackage package;
  DACM_ASSIGN_OR_RETURN(package.plugin_name, reader.ReadString());
  DACM_ASSIGN_OR_RETURN(package.version, reader.ReadString());
  DACM_ASSIGN_OR_RETURN(package.pic, PortInitContext::DeserializeFrom(reader));
  DACM_ASSIGN_OR_RETURN(package.plc, PortLinkingContext::DeserializeFrom(reader));
  DACM_ASSIGN_OR_RETURN(package.ecc, ExternalConnectionContext::DeserializeFrom(reader));
  DACM_ASSIGN_OR_RETURN(package.binary, reader.ReadBlob());
  return package;
}

void PirteMessage::SerializeHeaderTo(support::ByteWriter& writer, MessageType type,
                                     std::string_view plugin_name,
                                     std::uint32_t target_ecu,
                                     std::uint8_t dest_port, bool ok,
                                     std::string_view detail,
                                     std::uint32_t payload_size) {
  writer.WriteU8(static_cast<std::uint8_t>(type));
  writer.WriteString(plugin_name);
  writer.WriteU32(target_ecu);
  writer.WriteU8(dest_port);
  writer.WriteU8(ok ? 1 : 0);
  writer.WriteString(detail);
  writer.WriteU32(payload_size);  // blob framing; payload bytes follow
}

void PirteMessage::SerializeFieldsTo(support::ByteWriter& writer, MessageType type,
                                     std::string_view plugin_name,
                                     std::uint32_t target_ecu,
                                     std::uint8_t dest_port, bool ok,
                                     std::string_view detail,
                                     std::span<const std::uint8_t> payload) {
  SerializeHeaderTo(writer, type, plugin_name, target_ecu, dest_port, ok, detail,
                    static_cast<std::uint32_t>(payload.size()));
  writer.WriteRaw(payload);
}

support::Bytes PirteMessage::Serialize() const {
  support::ByteWriter writer;
  writer.Reserve(WireSize());
  SerializeTo(writer);
  return writer.Take();
}

support::Result<PirteMessage> PirteMessage::Deserialize(
    std::span<const std::uint8_t> data) {
  // Single parser definition: materialize the zero-copy view (the
  // Envelope/EnvelopeView idiom).
  DACM_ASSIGN_OR_RETURN(PirteMessageView view, PirteMessageView::Parse(data));
  PirteMessage message;
  message.type = view.type;
  message.plugin_name = std::string(view.plugin_name);
  message.target_ecu = view.target_ecu;
  message.dest_port = view.dest_port;
  message.ok = view.ok;
  message.detail = std::string(view.detail);
  message.payload.assign(view.payload.begin(), view.payload.end());
  return message;
}

support::Result<PirteMessageView> PirteMessageView::Parse(
    std::span<const std::uint8_t> data) {
  support::ByteReader reader(data);
  PirteMessageView view;
  DACM_ASSIGN_OR_RETURN(std::uint8_t type, reader.ReadU8());
  if (type > static_cast<std::uint8_t>(MessageType::kUninstallBatch)) {
    return support::Corrupted("bad PirteMessage type");
  }
  view.type = static_cast<MessageType>(type);
  DACM_ASSIGN_OR_RETURN(view.plugin_name, reader.ReadStringView());
  DACM_ASSIGN_OR_RETURN(view.target_ecu, reader.ReadU32());
  DACM_ASSIGN_OR_RETURN(view.dest_port, reader.ReadU8());
  DACM_ASSIGN_OR_RETURN(std::uint8_t ok, reader.ReadU8());
  view.ok = ok != 0;
  DACM_ASSIGN_OR_RETURN(view.detail, reader.ReadStringView());
  DACM_ASSIGN_OR_RETURN(view.payload, reader.ReadBlobView());
  return view;
}

support::Bytes SerializeUninstallBatch(std::span<const UninstallBatchEntry> entries) {
  support::ByteWriter writer;
  std::size_t total = 8;
  for (const UninstallBatchEntry& entry : entries) {
    total += 4 + PirteMessage::WireSizeOf(entry.plugin_name, {}, 0);
  }
  writer.Reserve(total);
  writer.WriteVarU32(static_cast<std::uint32_t>(entries.size()));
  for (const UninstallBatchEntry& entry : entries) {
    const std::size_t inner = PirteMessage::WireSizeOf(entry.plugin_name, {}, 0);
    writer.WriteU32(static_cast<std::uint32_t>(inner));  // blob framing
    PirteMessage::SerializeFieldsTo(writer, MessageType::kUninstall,
                                    entry.plugin_name, entry.target_ecu,
                                    /*dest_port=*/0, /*ok=*/true,
                                    /*detail=*/{}, /*payload=*/{});
  }
  return writer.Take();
}

support::Bytes SerializeAckBatch(std::span<const BatchAckEntry> entries) {
  support::ByteWriter writer;
  std::size_t total = 8;
  for (const BatchAckEntry& entry : entries) {
    total += 9 + entry.plugin.size() + entry.detail.size();
  }
  writer.Reserve(total);
  writer.WriteVarU32(static_cast<std::uint32_t>(entries.size()));
  for (const BatchAckEntry& entry : entries) {
    writer.WriteString(entry.plugin);
    writer.WriteU8(entry.ok ? 1 : 0);
    writer.WriteString(entry.detail);
  }
  return writer.Take();
}

std::size_t AckBatchWireSize(std::span<const BatchAckEntryView> entries) {
  std::size_t total =
      support::VarU32Size(static_cast<std::uint32_t>(entries.size()));
  for (const BatchAckEntryView& entry : entries) {
    total += 9 + entry.plugin.size() + entry.detail.size();
  }
  return total;
}

void SerializeAckBatchTo(support::ByteWriter& writer,
                         std::span<const BatchAckEntryView> entries) {
  writer.WriteVarU32(static_cast<std::uint32_t>(entries.size()));
  for (const BatchAckEntryView& entry : entries) {
    writer.WriteString(entry.plugin);
    writer.WriteU8(entry.ok ? 1 : 0);
    writer.WriteString(entry.detail);
  }
}

support::Result<std::vector<BatchAckEntry>> DeserializeAckBatch(
    std::span<const std::uint8_t> payload) {
  std::vector<BatchAckEntry> entries;
  DACM_RETURN_IF_ERROR(ForEachAckInBatch(
      payload, [&entries](std::string_view plugin, bool ok, std::string_view detail) {
        entries.push_back(
            BatchAckEntry{std::string(plugin), ok, std::string(detail)});
      }));
  return entries;
}

}  // namespace dacm::pirte
