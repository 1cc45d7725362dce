// Unit tests for the wire formats: PIC/PLC/ECC contexts, installation
// packages (CRC protection), Type I PirteMessages, server Envelopes and
// FES frames.  These are the artifacts that travel between the trusted
// server, the ECM, and the plug-in SW-Cs.
#include <gtest/gtest.h>

#include <algorithm>

#include "pirte/context.hpp"
#include "pirte/package.hpp"
#include "pirte/protocol.hpp"

namespace dacm::pirte {
namespace {

PortInitContext SamplePic() {
  PortInitContext pic;
  pic.entries = {
      {0, "wheels_in", 10, PluginPortDirection::kRequired},
      {1, "speed_in", 11, PluginPortDirection::kRequired},
      {2, "wheels_out", 12, PluginPortDirection::kProvided},
  };
  return pic;
}

PortLinkingContext SamplePlc() {
  PortLinkingContext plc;
  plc.entries = {
      {0, PlcKind::kUnconnected, 0, 0, "", 0},
      {2, PlcKind::kVirtual, 4, 0, "", 0},
      {3, PlcKind::kVirtualRemote, 0, 7, "", 0},
      {1, PlcKind::kLocalPlugin, 0, 0, "peer", 5},
  };
  return plc;
}

ExternalConnectionContext SampleEcc() {
  ExternalConnectionContext ecc;
  ecc.entries = {
      {EccDirection::kInbound, "111.22.33.44:56789", "Wheels", 1, 0},
      {EccDirection::kOutbound, "10.1.1.1:9", "Telemetry", 1, 3},
  };
  return ecc;
}

// --- PIC ----------------------------------------------------------------------------

TEST(PicTest, RoundTrip) {
  support::ByteWriter writer;
  SamplePic().SerializeTo(writer);
  support::ByteReader reader(writer.bytes());
  auto pic = PortInitContext::DeserializeFrom(reader);
  ASSERT_TRUE(pic.ok());
  ASSERT_EQ(pic->entries.size(), 3u);
  EXPECT_EQ(pic->entries[0].port_name, "wheels_in");
  EXPECT_EQ(pic->entries[0].unique_id, 10);
  EXPECT_EQ(pic->entries[2].direction, PluginPortDirection::kProvided);
  EXPECT_TRUE(reader.exhausted());
}

TEST(PicTest, EmptyRoundTrip) {
  support::ByteWriter writer;
  PortInitContext{}.SerializeTo(writer);
  support::ByteReader reader(writer.bytes());
  auto pic = PortInitContext::DeserializeFrom(reader);
  ASSERT_TRUE(pic.ok());
  EXPECT_TRUE(pic->entries.empty());
}

TEST(PicTest, BadDirectionRejected) {
  support::ByteWriter writer;
  writer.WriteVarU32(1);
  writer.WriteU8(0);
  writer.WriteString("p");
  writer.WriteU8(1);
  writer.WriteU8(9);  // invalid direction
  support::ByteReader reader(writer.bytes());
  EXPECT_FALSE(PortInitContext::DeserializeFrom(reader).ok());
}

TEST(PicTest, TruncationRejected) {
  support::ByteWriter writer;
  SamplePic().SerializeTo(writer);
  auto bytes = writer.Take();
  bytes.resize(bytes.size() - 3);
  support::ByteReader reader(bytes);
  EXPECT_FALSE(PortInitContext::DeserializeFrom(reader).ok());
}

// --- PLC ---------------------------------------------------------------------------------

TEST(PlcTest, RoundTripAllKinds) {
  support::ByteWriter writer;
  SamplePlc().SerializeTo(writer);
  support::ByteReader reader(writer.bytes());
  auto plc = PortLinkingContext::DeserializeFrom(reader);
  ASSERT_TRUE(plc.ok());
  ASSERT_EQ(plc->entries.size(), 4u);
  EXPECT_EQ(plc->entries[0].kind, PlcKind::kUnconnected);
  EXPECT_EQ(plc->entries[1].kind, PlcKind::kVirtual);
  EXPECT_EQ(plc->entries[1].virtual_port, 4);
  EXPECT_EQ(plc->entries[2].kind, PlcKind::kVirtualRemote);
  EXPECT_EQ(plc->entries[2].remote_port_id, 7);
  EXPECT_EQ(plc->entries[3].kind, PlcKind::kLocalPlugin);
  EXPECT_EQ(plc->entries[3].peer_plugin, "peer");
  EXPECT_EQ(plc->entries[3].peer_local_port, 5);
}

TEST(PlcTest, BadKindRejected) {
  support::ByteWriter writer;
  writer.WriteVarU32(1);
  writer.WriteU8(0);
  writer.WriteU8(7);  // invalid kind
  writer.WriteU8(0);
  writer.WriteU8(0);
  writer.WriteString("");
  writer.WriteU8(0);
  support::ByteReader reader(writer.bytes());
  EXPECT_FALSE(PortLinkingContext::DeserializeFrom(reader).ok());
}

// --- ECC -----------------------------------------------------------------------------------

TEST(EccTest, RoundTrip) {
  support::ByteWriter writer;
  SampleEcc().SerializeTo(writer);
  support::ByteReader reader(writer.bytes());
  auto ecc = ExternalConnectionContext::DeserializeFrom(reader);
  ASSERT_TRUE(ecc.ok());
  ASSERT_EQ(ecc->entries.size(), 2u);
  EXPECT_EQ(ecc->entries[0].direction, EccDirection::kInbound);
  EXPECT_EQ(ecc->entries[0].endpoint, "111.22.33.44:56789");
  EXPECT_EQ(ecc->entries[0].message_id, "Wheels");
  EXPECT_EQ(ecc->entries[1].direction, EccDirection::kOutbound);
  EXPECT_EQ(ecc->entries[1].port_unique_id, 3);
}

TEST(EccTest, EmptyMeansNoExternalCommunication) {
  ExternalConnectionContext ecc;
  EXPECT_TRUE(ecc.empty());
  EXPECT_FALSE(SampleEcc().empty());
}

// --- InstallationPackage --------------------------------------------------------------------

InstallationPackage SamplePackage() {
  InstallationPackage package;
  package.plugin_name = "OP";
  package.version = "1.2";
  package.pic = SamplePic();
  package.plc = SamplePlc();
  package.ecc = SampleEcc();
  package.binary = {0xDE, 0xAD, 0xBE, 0xEF, 0x01, 0x02};
  return package;
}

TEST(PackageTest, RoundTrip) {
  auto bytes = SamplePackage().Serialize();
  auto package = InstallationPackage::Deserialize(bytes);
  ASSERT_TRUE(package.ok()) << package.status().ToString();
  EXPECT_EQ(package->plugin_name, "OP");
  EXPECT_EQ(package->version, "1.2");
  EXPECT_EQ(package->pic.entries.size(), 3u);
  EXPECT_EQ(package->plc.entries.size(), 4u);
  EXPECT_EQ(package->ecc.entries.size(), 2u);
  EXPECT_EQ(package->binary, SamplePackage().binary);
}

TEST(PackageTest, EveryBitFlipIsDetected) {
  // The CRC must catch any single-bit corruption of the package.
  const auto bytes = SamplePackage().Serialize();
  for (std::size_t bit = 0; bit < bytes.size() * 8; bit += 29) {
    auto mutated = bytes;
    mutated[bit / 8] ^= static_cast<std::uint8_t>(1u << (bit % 8));
    auto result = InstallationPackage::Deserialize(mutated);
    EXPECT_FALSE(result.ok()) << "bit " << bit << " undetected";
  }
}

TEST(PackageTest, TruncationRejected) {
  auto bytes = SamplePackage().Serialize();
  for (std::size_t keep : {std::size_t{0}, std::size_t{3}, bytes.size() / 2,
                           bytes.size() - 1}) {
    auto truncated = bytes;
    truncated.resize(keep);
    EXPECT_FALSE(InstallationPackage::Deserialize(truncated).ok()) << keep;
  }
}

// --- PirteMessage ------------------------------------------------------------------------------

TEST(PirteMessageTest, InstallRoundTrip) {
  PirteMessage message;
  message.type = MessageType::kInstallPackage;
  message.plugin_name = "COM";
  message.target_ecu = 2;
  message.payload = SamplePackage().Serialize();
  auto restored = PirteMessage::Deserialize(message.Serialize());
  ASSERT_TRUE(restored.ok());
  EXPECT_EQ(restored->type, MessageType::kInstallPackage);
  EXPECT_EQ(restored->plugin_name, "COM");
  EXPECT_EQ(restored->target_ecu, 2u);
  EXPECT_EQ(restored->payload, message.payload);
}

TEST(PirteMessageTest, AckRoundTrip) {
  PirteMessage ack;
  ack.type = MessageType::kAck;
  ack.plugin_name = "OP";
  ack.ok = false;
  ack.detail = "INCOMPATIBLE: quota";
  auto restored = PirteMessage::Deserialize(ack.Serialize());
  ASSERT_TRUE(restored.ok());
  EXPECT_EQ(restored->type, MessageType::kAck);
  EXPECT_FALSE(restored->ok);
  EXPECT_EQ(restored->detail, "INCOMPATIBLE: quota");
}

TEST(PirteMessageTest, ExternalDataCarriesDestPort) {
  PirteMessage message;
  message.type = MessageType::kExternalData;
  message.dest_port = 7;
  message.detail = "Wheels";
  message.payload = {1, 2, 3, 4};
  auto restored = PirteMessage::Deserialize(message.Serialize());
  ASSERT_TRUE(restored.ok());
  EXPECT_EQ(restored->dest_port, 7);
  EXPECT_EQ(restored->detail, "Wheels");
}

TEST(PirteMessageTest, InstallationPackageTypeIdIsZero) {
  // Paper: "a message type id (e.g. 0 for the installation package)".
  EXPECT_EQ(static_cast<std::uint8_t>(MessageType::kInstallPackage), 0);
  PirteMessage message;
  message.type = MessageType::kInstallPackage;
  EXPECT_EQ(message.Serialize()[0], 0);
}

TEST(PirteMessageTest, BadTypeRejected) {
  PirteMessage message;
  auto bytes = message.Serialize();
  bytes[0] = 200;
  EXPECT_FALSE(PirteMessage::Deserialize(bytes).ok());
}

TEST(PirteMessageTest, ViewParseAgreesWithOwningParse) {
  PirteMessage message;
  message.type = MessageType::kExternalData;
  message.plugin_name = "OP";
  message.target_ecu = 2;
  message.dest_port = 7;
  message.ok = false;
  message.detail = "Wheels";
  message.payload = {1, 2, 3};
  const auto bytes = message.Serialize();
  EXPECT_EQ(bytes.size(), message.WireSize());
  auto view = PirteMessageView::Parse(bytes);
  ASSERT_TRUE(view.ok());
  auto owned = PirteMessage::Deserialize(bytes);
  ASSERT_TRUE(owned.ok());
  EXPECT_EQ(view->type, owned->type);
  EXPECT_EQ(view->plugin_name, owned->plugin_name);
  EXPECT_EQ(view->target_ecu, owned->target_ecu);
  EXPECT_EQ(view->dest_port, owned->dest_port);
  EXPECT_EQ(view->ok, owned->ok);
  EXPECT_EQ(view->detail, owned->detail);
  EXPECT_TRUE(std::equal(view->payload.begin(), view->payload.end(),
                         owned->payload.begin(), owned->payload.end()));
}

// --- campaign batches --------------------------------------------------------------------------

TEST(InstallBatchTest, EntriesRoundTripAsIndividualInstallMessages) {
  InstallationPackage pkg_a;
  pkg_a.plugin_name = "app.p0";
  pkg_a.version = "1.0";
  pkg_a.pic = SamplePic();
  pkg_a.plc = SamplePlc();
  pkg_a.ecc = SampleEcc();
  pkg_a.binary = {10, 11, 12};
  InstallationPackage pkg_b;
  pkg_b.plugin_name = "app.p1";
  pkg_b.binary = {20};
  const std::vector<InstallBatchPackage> entries = {
      {"app.p0", 1, &pkg_a},
      {"app.p1", 2, &pkg_b},
  };
  std::vector<std::span<const std::uint8_t>> views(entries.size());
  const auto wire = SerializeEnvelopedInstallBatch("VIN-1", "app", entries, views);

  auto envelope = EnvelopeView::Parse(wire);
  ASSERT_TRUE(envelope.ok());
  EXPECT_EQ(envelope->kind, Envelope::Kind::kPirteMessage);
  EXPECT_EQ(envelope->vin, "VIN-1");
  auto batch = PirteMessageView::Parse(envelope->message);
  ASSERT_TRUE(batch.ok());
  EXPECT_EQ(batch->type, MessageType::kInstallBatch);
  EXPECT_EQ(batch->plugin_name, "app");

  std::vector<PirteMessage> unpacked;
  auto status = ForEachInBatch(batch->payload, [&](std::span<const std::uint8_t> entry) {
    auto inner = PirteMessage::Deserialize(entry);
    if (!inner.ok()) return inner.status();
    unpacked.push_back(std::move(*inner));
    return support::OkStatus();
  });
  ASSERT_TRUE(status.ok()) << status.ToString();
  ASSERT_EQ(unpacked.size(), 2u);
  for (std::size_t i = 0; i < 2; ++i) {
    // The one-pass batch framing must be byte-identical to serializing
    // the equivalent kInstallPackage message, and each view must be
    // exactly that message's payload: the package, CRC included.
    PirteMessage equivalent;
    equivalent.type = MessageType::kInstallPackage;
    equivalent.plugin_name = entries[i].plugin_name;
    equivalent.target_ecu = entries[i].target_ecu;
    equivalent.payload = entries[i].package->Serialize();
    EXPECT_EQ(unpacked[i].Serialize(), equivalent.Serialize()) << i;
    EXPECT_TRUE(std::equal(views[i].begin(), views[i].end(),
                           equivalent.payload.begin(), equivalent.payload.end()))
        << i;
    EXPECT_TRUE(InstallationPackage::Deserialize(views[i]).ok()) << i;
  }
  // Truncation never crashes or reads out of range.
  for (std::size_t cut = 0; cut < batch->payload.size(); cut += 3) {
    (void)ForEachInBatch(batch->payload.first(cut), [](std::span<const std::uint8_t>) {
      return support::OkStatus();
    });
  }
}

TEST(PackageTest, WireSizeMatchesSerializedSize) {
  InstallationPackage package;
  package.plugin_name = "p";
  package.version = "2.1";
  package.pic = SamplePic();
  package.plc = SamplePlc();
  package.ecc = SampleEcc();
  package.binary.assign(300, 0x5a);
  EXPECT_EQ(package.Serialize().size(), package.WireSize());
  // A 130-entry PIC needs a two-byte count varint.
  package.pic.entries.resize(130);
  EXPECT_EQ(package.Serialize().size(), package.WireSize());
  EXPECT_EQ(InstallationPackage{}.Serialize().size(), InstallationPackage{}.WireSize());
}

TEST(AckBatchTest, RoundTripThroughViewsAndOwningApi) {
  const std::vector<BatchAckEntry> entries = {
      {"app.p0", true, ""},
      {"app.p1", false, "quota exceeded"},
  };
  const auto payload = SerializeAckBatch(entries);

  auto owned = DeserializeAckBatch(payload);
  ASSERT_TRUE(owned.ok());
  ASSERT_EQ(owned->size(), 2u);
  std::size_t i = 0;
  auto status = ForEachAckInBatch(
      payload, [&](std::string_view plugin, bool ok, std::string_view detail) {
        EXPECT_EQ(plugin, (*owned)[i].plugin);
        EXPECT_EQ(ok, (*owned)[i].ok);
        EXPECT_EQ(detail, (*owned)[i].detail);
        ++i;
      });
  ASSERT_TRUE(status.ok());
  EXPECT_EQ(i, 2u);
  EXPECT_EQ((*owned)[1].detail, "quota exceeded");
  EXPECT_FALSE((*owned)[1].ok);

  support::Bytes garbage = {0xFF, 0xFF, 0xFF};
  EXPECT_FALSE(DeserializeAckBatch(garbage).ok());
}

// --- Envelope / FesFrame ----------------------------------------------------------------------

TEST(EnvelopeTest, HelloRoundTrip) {
  Envelope envelope;
  envelope.kind = Envelope::Kind::kHello;
  envelope.vin = "VIN-42";
  auto restored = Envelope::Deserialize(envelope.Serialize());
  ASSERT_TRUE(restored.ok());
  EXPECT_EQ(restored->kind, Envelope::Kind::kHello);
  EXPECT_EQ(restored->vin, "VIN-42");
}

TEST(EnvelopeTest, PirteMessageRoundTrip) {
  PirteMessage inner;
  inner.type = MessageType::kUninstall;
  inner.plugin_name = "OP";
  Envelope envelope;
  envelope.kind = Envelope::Kind::kPirteMessage;
  envelope.vin = "VIN-1";
  envelope.message = inner.Serialize();
  auto restored = Envelope::Deserialize(envelope.Serialize());
  ASSERT_TRUE(restored.ok());
  auto inner_restored = PirteMessage::Deserialize(restored->message);
  ASSERT_TRUE(inner_restored.ok());
  EXPECT_EQ(inner_restored->type, MessageType::kUninstall);
  EXPECT_EQ(inner_restored->plugin_name, "OP");
}

TEST(EnvelopeTest, BadKindRejected) {
  Envelope envelope;
  auto bytes = envelope.Serialize();
  bytes[0] = 9;
  EXPECT_FALSE(Envelope::Deserialize(bytes).ok());
}

TEST(FesFrameTest, RoundTrip) {
  FesFrame frame;
  frame.message_id = "Speed";
  frame.payload = {0xFF, 0x00};
  auto restored = FesFrame::Deserialize(frame.Serialize());
  ASSERT_TRUE(restored.ok());
  EXPECT_EQ(restored->message_id, "Speed");
  EXPECT_EQ(restored->payload, frame.payload);
}

TEST(FesFrameTest, GarbageRejected) {
  support::Bytes garbage = {0xFF, 0xFF, 0xFF, 0xFF, 0x01};
  EXPECT_FALSE(FesFrame::Deserialize(garbage).ok());
}

}  // namespace
}  // namespace dacm::pirte
