#include "pirte/context.hpp"

namespace dacm::pirte {

std::size_t PortInitContext::WireSize() const {
  std::size_t size = support::VarU32Size(static_cast<std::uint32_t>(entries.size()));
  for (const PicEntry& entry : entries) size += 7 + entry.port_name.size();
  return size;
}

void PortInitContext::SerializeTo(support::ByteWriter& writer) const {
  writer.Reserve(WireSize());
  writer.WriteVarU32(static_cast<std::uint32_t>(entries.size()));
  for (const PicEntry& entry : entries) {
    writer.WriteU8(entry.local_index);
    writer.WriteString(entry.port_name);
    writer.WriteU8(entry.unique_id);
    writer.WriteU8(static_cast<std::uint8_t>(entry.direction));
  }
}

support::Result<PortInitContext> PortInitContext::DeserializeFrom(
    support::ByteReader& reader) {
  PortInitContext pic;
  DACM_ASSIGN_OR_RETURN(std::uint32_t count, reader.ReadVarU32());
  if (count > 256) return support::Corrupted("PIC too large");
  pic.entries.reserve(count);
  for (std::uint32_t i = 0; i < count; ++i) {
    PicEntry entry;
    DACM_ASSIGN_OR_RETURN(entry.local_index, reader.ReadU8());
    DACM_ASSIGN_OR_RETURN(entry.port_name, reader.ReadString());
    DACM_ASSIGN_OR_RETURN(entry.unique_id, reader.ReadU8());
    DACM_ASSIGN_OR_RETURN(std::uint8_t dir, reader.ReadU8());
    if (dir > 1) return support::Corrupted("bad PIC direction");
    entry.direction = static_cast<PluginPortDirection>(dir);
    pic.entries.push_back(std::move(entry));
  }
  return pic;
}

std::size_t PortLinkingContext::WireSize() const {
  std::size_t size = support::VarU32Size(static_cast<std::uint32_t>(entries.size()));
  for (const PlcEntry& entry : entries) size += 9 + entry.peer_plugin.size();
  return size;
}

void PortLinkingContext::SerializeTo(support::ByteWriter& writer) const {
  writer.Reserve(WireSize());
  writer.WriteVarU32(static_cast<std::uint32_t>(entries.size()));
  for (const PlcEntry& entry : entries) {
    writer.WriteU8(entry.local_port);
    writer.WriteU8(static_cast<std::uint8_t>(entry.kind));
    writer.WriteU8(entry.virtual_port);
    writer.WriteU8(entry.remote_port_id);
    writer.WriteString(entry.peer_plugin);
    writer.WriteU8(entry.peer_local_port);
  }
}

support::Result<PortLinkingContext> PortLinkingContext::DeserializeFrom(
    support::ByteReader& reader) {
  PortLinkingContext plc;
  DACM_ASSIGN_OR_RETURN(std::uint32_t count, reader.ReadVarU32());
  if (count > 256) return support::Corrupted("PLC too large");
  plc.entries.reserve(count);
  for (std::uint32_t i = 0; i < count; ++i) {
    PlcEntry entry;
    DACM_ASSIGN_OR_RETURN(entry.local_port, reader.ReadU8());
    DACM_ASSIGN_OR_RETURN(std::uint8_t kind, reader.ReadU8());
    if (kind > 3) return support::Corrupted("bad PLC kind");
    entry.kind = static_cast<PlcKind>(kind);
    DACM_ASSIGN_OR_RETURN(entry.virtual_port, reader.ReadU8());
    DACM_ASSIGN_OR_RETURN(entry.remote_port_id, reader.ReadU8());
    DACM_ASSIGN_OR_RETURN(entry.peer_plugin, reader.ReadString());
    DACM_ASSIGN_OR_RETURN(entry.peer_local_port, reader.ReadU8());
    plc.entries.push_back(std::move(entry));
  }
  return plc;
}

std::size_t ExternalConnectionContext::WireSize() const {
  std::size_t size = support::VarU32Size(static_cast<std::uint32_t>(entries.size()));
  for (const EccEntry& entry : entries) {
    size += 14 + entry.endpoint.size() + entry.message_id.size();
  }
  return size;
}

void ExternalConnectionContext::SerializeTo(support::ByteWriter& writer) const {
  writer.Reserve(WireSize());
  writer.WriteVarU32(static_cast<std::uint32_t>(entries.size()));
  for (const EccEntry& entry : entries) {
    writer.WriteU8(static_cast<std::uint8_t>(entry.direction));
    writer.WriteString(entry.endpoint);
    writer.WriteString(entry.message_id);
    writer.WriteU32(entry.target_ecu);
    writer.WriteU8(entry.port_unique_id);
  }
}

support::Result<ExternalConnectionContext> ExternalConnectionContext::DeserializeFrom(
    support::ByteReader& reader) {
  ExternalConnectionContext ecc;
  DACM_ASSIGN_OR_RETURN(std::uint32_t count, reader.ReadVarU32());
  if (count > 256) return support::Corrupted("ECC too large");
  ecc.entries.reserve(count);
  for (std::uint32_t i = 0; i < count; ++i) {
    EccEntry entry;
    DACM_ASSIGN_OR_RETURN(std::uint8_t dir, reader.ReadU8());
    if (dir > 1) return support::Corrupted("bad ECC direction");
    entry.direction = static_cast<EccDirection>(dir);
    DACM_ASSIGN_OR_RETURN(entry.endpoint, reader.ReadString());
    DACM_ASSIGN_OR_RETURN(entry.message_id, reader.ReadString());
    DACM_ASSIGN_OR_RETURN(entry.target_ecu, reader.ReadU32());
    DACM_ASSIGN_OR_RETURN(entry.port_unique_id, reader.ReadU8());
    ecc.entries.push_back(std::move(entry));
  }
  return ecc;
}

}  // namespace dacm::pirte
