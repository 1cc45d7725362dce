// Direct unit tests of the server's context generator (paper §3.2.2):
// PIC id assignment against the occupied-id map, PLC translation for every
// ConnectionDecl target, the same-ECU vs cross-ECU peer split, Type II
// channel lookup, ECC extraction, the generator's rejection diagnostics,
// and the package cache's one-pass assembly of the install batch.
#include <gtest/gtest.h>

#include <algorithm>

#include "fes/appgen.hpp"
#include "fes/testbed.hpp"
#include "pirte/protocol.hpp"
#include "server/context_gen.hpp"
#include "server/package_cache.hpp"
#include "support/crc.hpp"

namespace dacm::server {
namespace {

using pirte::PlcKind;

/// A two-plugin app shaped like the paper's RemoteCar: `a` on ECU 1,
/// `b` on ECU 2, two ports each.
App TwoEcuApp() {
  App app;
  app.name = "app";
  app.version = "1.0";
  const support::Bytes binary = fes::MakeEchoPluginBinary();
  PluginDecl a;
  a.name = "a";
  a.binary = binary;
  a.ports = {{0, "a.in", pirte::PluginPortDirection::kRequired},
             {1, "a.out", pirte::PluginPortDirection::kProvided}};
  PluginDecl b;
  b.name = "b";
  b.binary = binary;
  b.ports = {{0, "b.in", pirte::PluginPortDirection::kRequired},
             {1, "b.out", pirte::PluginPortDirection::kProvided}};
  app.plugins.push_back(std::move(a));
  app.plugins.push_back(std::move(b));
  SwConf conf;
  conf.vehicle_model = "rpi-testbed";
  conf.placements = {{"a", 1}, {"b", 2}};
  app.confs.push_back(std::move(conf));
  return app;
}

const SwConf& Conf(const App& app) { return app.confs[0]; }

const GeneratedPackage* Find(const std::vector<GeneratedPackage>& packages,
                             const std::string& plugin) {
  for (const auto& package : packages) {
    if (package.plugin == plugin) return &package;
  }
  return nullptr;
}

// --- PIC / id allocation ----------------------------------------------------------------

TEST(ContextGenPic, IdsAreAllocatedLowestFreeFirstPerEcu) {
  auto app = TwoEcuApp();
  const auto model = fes::MakeRpiTestbedConf();
  UsedIdMap used;
  used[1] = {0, 1, 3};  // ECU1 has holes: 2 is the lowest free id
  auto packages = GeneratePackages(app, Conf(app), model.sw, used);
  ASSERT_TRUE(packages.ok());
  const auto* a = Find(*packages, "a");
  ASSERT_NE(a, nullptr);
  EXPECT_EQ(a->package.pic.entries[0].unique_id, 2);
  EXPECT_EQ(a->package.pic.entries[1].unique_id, 4);
  // ECU2 was untouched: ids start at 0.
  const auto* b = Find(*packages, "b");
  EXPECT_EQ(b->package.pic.entries[0].unique_id, 0);
  EXPECT_EQ(b->package.pic.entries[1].unique_id, 1);
}

TEST(ContextGenPic, UsedMapIsUpdatedWithTheNewIds) {
  auto app = TwoEcuApp();
  const auto model = fes::MakeRpiTestbedConf();
  UsedIdMap used;
  ASSERT_TRUE(GeneratePackages(app, Conf(app), model.sw, used).ok());
  EXPECT_TRUE(used[1].contains(0));
  EXPECT_TRUE(used[1].contains(1));
  EXPECT_TRUE(used[2].contains(0));
  EXPECT_TRUE(used[2].contains(1));
  // A second generation continues after them.
  auto again = GeneratePackages(app, Conf(app), model.sw, used);
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(Find(*again, "a")->package.pic.entries[0].unique_id, 2);
}

TEST(ContextGenPic, IdSpaceExhaustionIsDetected) {
  auto app = TwoEcuApp();
  const auto model = fes::MakeRpiTestbedConf();
  UsedIdMap used;
  for (int i = 0; i < 255; ++i) used[1].insert(static_cast<std::uint8_t>(i));
  // One id left on ECU1 but plug-in `a` needs two.
  auto packages = GeneratePackages(app, Conf(app), model.sw, used);
  EXPECT_EQ(packages.status().code(), support::ErrorCode::kResourceExhausted);
  // The id claimed before exhaustion was released again: 255 is still free.
  EXPECT_EQ(used[1].size(), 255u);
  EXPECT_FALSE(used[1].contains(255));
}

TEST(ContextGenPic, FailedGenerationReleasesEveryClaimedId) {
  auto app = TwoEcuApp();
  app.confs[0].placements.pop_back();  // b has no placement -> pass-1 abort
  const auto model = fes::MakeRpiTestbedConf();
  UsedIdMap used;
  used[1] = {7};
  ASSERT_FALSE(GeneratePackages(app, Conf(app), model.sw, used).ok());
  // a's two ids on ECU1 were claimed before the abort and must be gone;
  // the pre-existing occupancy stays.
  EXPECT_EQ(used[1].size(), 1u);
  EXPECT_TRUE(used[1].contains(7));
  EXPECT_FALSE(used.contains(2) && used[2].size() > 0);
}

TEST(PortIdSetTest, AllocatesLowestFreeAndRoundTrips) {
  PortIdSet set;
  EXPECT_EQ(set.size(), 0u);
  EXPECT_EQ(*set.AllocateLowest(), 0);
  EXPECT_EQ(*set.AllocateLowest(), 1);
  set.insert(3);
  EXPECT_EQ(*set.AllocateLowest(), 2);
  EXPECT_EQ(*set.AllocateLowest(), 4);  // 3 was taken
  set.erase(1);
  EXPECT_EQ(*set.AllocateLowest(), 1);  // freed ids come back lowest-first
  // Word boundaries: fill 0..127, expect 128 next.
  for (int i = 0; i < 128; ++i) set.insert(static_cast<std::uint8_t>(i));
  EXPECT_EQ(*set.AllocateLowest(), 128);
  for (int i = 0; i < 256; ++i) set.insert(static_cast<std::uint8_t>(i));
  EXPECT_FALSE(set.AllocateLowest().has_value());
  EXPECT_EQ(set.size(), 256u);
}

TEST(ContextGenPic, MissingPlacementRejected) {
  auto app = TwoEcuApp();
  app.confs[0].placements.pop_back();  // b has no placement
  const auto model = fes::MakeRpiTestbedConf();
  UsedIdMap used;
  auto packages = GeneratePackages(app, Conf(app), model.sw, used);
  EXPECT_EQ(packages.status().code(), support::ErrorCode::kIncompatible);
  EXPECT_NE(packages.status().message().find("b"), std::string::npos);
}

TEST(ContextGenPic, PicCarriesNamesDirectionsAndLocalIndices) {
  auto app = TwoEcuApp();
  const auto model = fes::MakeRpiTestbedConf();
  UsedIdMap used;
  auto packages = GeneratePackages(app, Conf(app), model.sw, used);
  ASSERT_TRUE(packages.ok());
  const auto& pic = Find(*packages, "a")->package.pic;
  ASSERT_EQ(pic.entries.size(), 2u);
  EXPECT_EQ(pic.entries[0].port_name, "a.in");
  EXPECT_EQ(pic.entries[0].direction, pirte::PluginPortDirection::kRequired);
  EXPECT_EQ(pic.entries[1].port_name, "a.out");
  EXPECT_EQ(pic.entries[1].direction, pirte::PluginPortDirection::kProvided);
}

// --- PLC translation --------------------------------------------------------------------

TEST(ContextGenPlc, VirtualPortConnectionTranslatesToVId) {
  auto app = TwoEcuApp();
  app.confs[0].connections.push_back(
      {"b", 1, ConnectionDecl::Target::kVirtualPort, "WheelsReq", "", 0, "", ""});
  const auto model = fes::MakeRpiTestbedConf();
  UsedIdMap used;
  auto packages = GeneratePackages(app, Conf(app), model.sw, used);
  ASSERT_TRUE(packages.ok());
  const auto& plc = Find(*packages, "b")->package.plc;
  ASSERT_EQ(plc.entries.size(), 1u);
  EXPECT_EQ(plc.entries[0].kind, PlcKind::kVirtual);
  EXPECT_EQ(plc.entries[0].virtual_port, 4);  // WheelsReq is V4
}

TEST(ContextGenPlc, VirtualPortOnWrongEcuRejectedWithBothEcusNamed) {
  auto app = TwoEcuApp();
  // WheelsReq lives on ECU2, but `a` is placed on ECU1.
  app.confs[0].connections.push_back(
      {"a", 1, ConnectionDecl::Target::kVirtualPort, "WheelsReq", "", 0, "", ""});
  const auto model = fes::MakeRpiTestbedConf();
  UsedIdMap used;
  auto packages = GeneratePackages(app, Conf(app), model.sw, used);
  ASSERT_FALSE(packages.ok());
  EXPECT_NE(packages.status().message().find("ECU 2"), std::string::npos);
  EXPECT_NE(packages.status().message().find("ECU 1"), std::string::npos);
}

TEST(ContextGenPlc, UnknownVirtualPortRejected) {
  auto app = TwoEcuApp();
  app.confs[0].connections.push_back(
      {"b", 1, ConnectionDecl::Target::kVirtualPort, "Ghost", "", 0, "", ""});
  const auto model = fes::MakeRpiTestbedConf();
  UsedIdMap used;
  EXPECT_FALSE(GeneratePackages(app, Conf(app), model.sw, used).ok());
}

TEST(ContextGenPlc, SameEcuPeerBecomesDirectLocalLink) {
  auto app = TwoEcuApp();
  app.confs[0].placements = {{"a", 1}, {"b", 1}};  // co-located
  app.confs[0].connections.push_back(
      {"a", 1, ConnectionDecl::Target::kPeerPlugin, "", "b", 0, "", ""});
  const auto model = fes::MakeRpiTestbedConf();
  UsedIdMap used;
  auto packages = GeneratePackages(app, Conf(app), model.sw, used);
  ASSERT_TRUE(packages.ok());
  const auto& entry = Find(*packages, "a")->package.plc.entries[0];
  EXPECT_EQ(entry.kind, PlcKind::kLocalPlugin);
  EXPECT_EQ(entry.peer_plugin, "b");
  EXPECT_EQ(entry.peer_local_port, 0);
}

TEST(ContextGenPlc, CrossEcuPeerRoutesThroughTypeIIWithRecipientId) {
  auto app = TwoEcuApp();
  app.confs[0].connections.push_back(
      {"a", 1, ConnectionDecl::Target::kPeerPlugin, "", "b", 0, "", ""});
  const auto model = fes::MakeRpiTestbedConf();
  UsedIdMap used;
  used[2] = {0, 1, 2};  // shift b's ids so the recipient id is non-trivial
  auto packages = GeneratePackages(app, Conf(app), model.sw, used);
  ASSERT_TRUE(packages.ok());
  const auto& entry = Find(*packages, "a")->package.plc.entries[0];
  EXPECT_EQ(entry.kind, PlcKind::kVirtualRemote);
  EXPECT_EQ(entry.virtual_port, 0);  // the ECU1->ECU2 Type II channel is V0
  // The paper's "P2-V0.P0" post: the recipient id is b's port 0 unique id.
  EXPECT_EQ(entry.remote_port_id,
            Find(*packages, "b")->package.pic.entries[0].unique_id);
  EXPECT_EQ(entry.remote_port_id, 3);
}

TEST(ContextGenPlc, MissingTypeIIChannelRejected) {
  auto app = TwoEcuApp();
  app.confs[0].connections.push_back(
      {"a", 1, ConnectionDecl::Target::kPeerPlugin, "", "b", 0, "", ""});
  auto model = fes::MakeRpiTestbedConf();
  // Remove the Type II descriptors: no route between the plug-in SW-Cs.
  std::erase_if(model.sw.virtual_ports,
                [](const VirtualPortDesc& vp) { return vp.kind == 2; });
  UsedIdMap used;
  auto packages = GeneratePackages(app, Conf(app), model.sw, used);
  ASSERT_FALSE(packages.ok());
  EXPECT_NE(packages.status().message().find("Type II"), std::string::npos);
}

TEST(ContextGenPlc, ConnectionToUndeclaredPortRejected) {
  auto app = TwoEcuApp();
  app.confs[0].connections.push_back(
      {"a", 7, ConnectionDecl::Target::kNone, "", "", 0, "", ""});
  const auto model = fes::MakeRpiTestbedConf();
  UsedIdMap used;
  auto packages = GeneratePackages(app, Conf(app), model.sw, used);
  ASSERT_FALSE(packages.ok());
  EXPECT_NE(packages.status().message().find("P7"), std::string::npos);
}

TEST(ContextGenPlc, ConnectionForUnknownPluginRejected) {
  auto app = TwoEcuApp();
  app.confs[0].connections.push_back(
      {"ghost", 0, ConnectionDecl::Target::kNone, "", "", 0, "", ""});
  const auto model = fes::MakeRpiTestbedConf();
  UsedIdMap used;
  EXPECT_FALSE(GeneratePackages(app, Conf(app), model.sw, used).ok());
}

// --- ECC extraction ----------------------------------------------------------------------

TEST(ContextGenEcc, ExternalConnectionsProduceEccAndStayPirteDirect) {
  auto app = TwoEcuApp();
  app.confs[0].connections.push_back({"a", 0, ConnectionDecl::Target::kExternalIn,
                                      "", "", 0, "1.2.3.4:5", "Wheels"});
  app.confs[0].connections.push_back({"a", 1, ConnectionDecl::Target::kExternalOut,
                                      "", "", 0, "5.6.7.8:9", "Telemetry"});
  const auto model = fes::MakeRpiTestbedConf();
  UsedIdMap used;
  auto packages = GeneratePackages(app, Conf(app), model.sw, used);
  ASSERT_TRUE(packages.ok());
  const auto& package = Find(*packages, "a")->package;
  // The ports are PIRTE-direct in the PLC ("P0-" posts)...
  ASSERT_EQ(package.plc.entries.size(), 2u);
  EXPECT_EQ(package.plc.entries[0].kind, PlcKind::kUnconnected);
  EXPECT_EQ(package.plc.entries[1].kind, PlcKind::kUnconnected);
  // ...and the ECC carries endpoint, message id, and in-vehicle routing.
  ASSERT_EQ(package.ecc.entries.size(), 2u);
  const auto& in = package.ecc.entries[0];
  EXPECT_EQ(in.direction, pirte::EccDirection::kInbound);
  EXPECT_EQ(in.endpoint, "1.2.3.4:5");
  EXPECT_EQ(in.message_id, "Wheels");
  EXPECT_EQ(in.target_ecu, 1u);
  EXPECT_EQ(in.port_unique_id, package.pic.entries[0].unique_id);
  const auto& out = package.ecc.entries[1];
  EXPECT_EQ(out.direction, pirte::EccDirection::kOutbound);
  EXPECT_EQ(out.message_id, "Telemetry");
}

TEST(ContextGenEcc, PluginsWithoutExternalTrafficGetEmptyEcc) {
  auto app = TwoEcuApp();
  const auto model = fes::MakeRpiTestbedConf();
  UsedIdMap used;
  auto packages = GeneratePackages(app, Conf(app), model.sw, used);
  ASSERT_TRUE(packages.ok());
  EXPECT_TRUE(Find(*packages, "a")->package.ecc.empty());
  EXPECT_TRUE(Find(*packages, "b")->package.ecc.empty());
}

// --- CollectUsedIds ---------------------------------------------------------------------------

TEST(CollectUsedIdsTest, GathersIdsPerEcuFromInstalledTable) {
  Vehicle vehicle;
  vehicle.vin = "VIN";
  InstalledApp installed;
  installed.app_name = "x";
  InstalledApp::PluginRecord r1;
  r1.plugin = "p1";
  r1.ecu_id = 1;
  r1.pic.entries = {{0, "a", 5, pirte::PluginPortDirection::kRequired}};
  InstalledApp::PluginRecord r2;
  r2.plugin = "p2";
  r2.ecu_id = 2;
  r2.pic.entries = {{0, "b", 5, pirte::PluginPortDirection::kProvided}};
  installed.plugins = {r1, r2};
  vehicle.installed.push_back(installed);

  const auto used = CollectUsedIds(vehicle);
  ASSERT_TRUE(used.contains(1));
  ASSERT_TRUE(used.contains(2));
  EXPECT_TRUE(used.at(1).contains(5));
  EXPECT_TRUE(used.at(2).contains(5));  // same id, different ECUs: fine
  EXPECT_EQ(used.at(1).size(), 1u);
}

// --- install batch assembly --------------------------------------------------------------

/// Three plug-ins over two ECUs whose contexts use every PLC kind and both
/// ECC directions: `a` on ECU 1, `b` and `c` on ECU 2.
App RichApp() {
  App app;
  app.name = "rich";
  app.version = "2.0";
  const support::Bytes binary = fes::MakeEchoPluginBinary();
  auto plugin = [&](const std::string& name, std::uint8_t ports) {
    PluginDecl decl;
    decl.name = name;
    decl.binary = binary;
    for (std::uint8_t i = 0; i < ports; ++i) {
      decl.ports.push_back({i, name + ".p" + std::to_string(i),
                            i % 2 == 0 ? pirte::PluginPortDirection::kRequired
                                       : pirte::PluginPortDirection::kProvided});
    }
    return decl;
  };
  app.plugins = {plugin("a", 4), plugin("b", 4), plugin("c", 2)};
  SwConf conf;
  conf.vehicle_model = "rpi-testbed";
  conf.placements = {{"a", 1}, {"b", 2}, {"c", 2}};
  using Target = ConnectionDecl::Target;
  conf.connections = {
      {"a", 0, Target::kExternalIn, "", "", 0, "1.2.3.4:5", "Wheels"},
      {"a", 1, Target::kExternalOut, "", "", 0, "5.6.7.8:9", "Telemetry"},
      {"a", 2, Target::kPeerPlugin, "", "b", 0, "", ""},  // cross-ECU
      {"b", 1, Target::kVirtualPort, "WheelsReq", "", 0, "", ""},
      {"b", 2, Target::kPeerPlugin, "", "c", 0, "", ""},  // same ECU
      {"c", 1, Target::kNone, "", "", 0, "", ""},
  };
  app.confs.push_back(std::move(conf));
  return app;
}

/// The composition the one-pass writer replaced, kept as its reference:
/// each package serialized body-first and CRC-prefixed, each framed as a
/// kInstallPackage message, the count-prefixed batch wrapped in a
/// kInstallBatch message, and that in a VIN-less envelope.
support::Bytes ReferencePackage(const pirte::InstallationPackage& package) {
  support::ByteWriter body;
  body.WriteString(package.plugin_name);
  body.WriteString(package.version);
  package.pic.SerializeTo(body);
  package.plc.SerializeTo(body);
  package.ecc.SerializeTo(body);
  body.WriteBlob(package.binary);
  support::ByteWriter out;
  out.WriteU32(support::Crc32(body.bytes()));
  out.WriteRaw(body.bytes());
  return out.Take();
}

support::Bytes ReferenceInstallWire(const App& app,
                                    const std::vector<GeneratedPackage>& generated) {
  support::ByteWriter batch;
  batch.WriteVarU32(static_cast<std::uint32_t>(generated.size()));
  for (const GeneratedPackage& gen : generated) {
    pirte::PirteMessage message;
    message.type = pirte::MessageType::kInstallPackage;
    message.plugin_name = gen.plugin;
    message.target_ecu = gen.ecu_id;
    message.payload = ReferencePackage(gen.package);
    batch.WriteBlob(message.Serialize());
  }
  pirte::PirteMessage message;
  message.type = pirte::MessageType::kInstallBatch;
  message.plugin_name = app.name;
  message.payload = batch.Take();
  pirte::Envelope envelope;
  envelope.kind = pirte::Envelope::Kind::kPirteMessage;
  envelope.message = message.Serialize();
  return envelope.Serialize();
}

struct AssemblyTest : ::testing::Test {
  const App app = RichApp();
  const VehicleModelConf model = fes::MakeRpiTestbedConf();
  /// Ids the vehicle already occupies: 0 and 3 on ECU 1, 1 on ECU 2.
  const IdLayout layout = {{1, PortIdSet{0, 3}}, {2, PortIdSet{1}}};

  std::vector<GeneratedPackage> Generated() {
    UsedIdMap used = ToUsedIdMap(layout);
    auto generated = GeneratePackages(app, Conf(app), model.sw, used);
    EXPECT_TRUE(generated.ok()) << generated.status().ToString();
    return generated.ok() ? std::move(*generated) : std::vector<GeneratedPackage>{};
  }
};

TEST_F(AssemblyTest, FixtureCoversEveryPlcKindAndBothEccDirections) {
  const auto generated = Generated();
  std::vector<PlcKind> kinds;
  std::vector<pirte::EccDirection> directions;
  for (const GeneratedPackage& gen : generated) {
    EXPECT_FALSE(gen.package.pic.entries.empty()) << gen.plugin;
    for (const auto& entry : gen.package.plc.entries) kinds.push_back(entry.kind);
    for (const auto& entry : gen.package.ecc.entries) directions.push_back(entry.direction);
  }
  for (PlcKind kind : {PlcKind::kUnconnected, PlcKind::kVirtual,
                       PlcKind::kVirtualRemote, PlcKind::kLocalPlugin}) {
    EXPECT_NE(std::find(kinds.begin(), kinds.end(), kind), kinds.end())
        << static_cast<int>(kind);
  }
  for (auto direction : {pirte::EccDirection::kInbound, pirte::EccDirection::kOutbound}) {
    EXPECT_NE(std::find(directions.begin(), directions.end(), direction),
              directions.end());
  }
}

TEST_F(AssemblyTest, InstallWireIsByteIdenticalToTheComposedReference) {
  PackageCache cache;
  auto batch = cache.Acquire("rpi-testbed", app, Conf(app), model.sw, layout);
  ASSERT_TRUE(batch.ok()) << batch.status().ToString();
  const auto generated = Generated();
  EXPECT_EQ(batch->payload->install_wire.bytes(), ReferenceInstallWire(app, generated));
}

TEST_F(AssemblyTest, PackageViewsDeserializeToTheGeneratedPackages) {
  PackageCache cache;
  auto batch = cache.Acquire("rpi-testbed", app, Conf(app), model.sw, layout);
  ASSERT_TRUE(batch.ok()) << batch.status().ToString();
  const auto generated = Generated();
  const BatchPayload& payload = *batch->payload;
  ASSERT_EQ(payload.packages.size(), generated.size());
  const std::uint8_t* wire_begin = payload.install_wire.data();
  const std::uint8_t* wire_end = wire_begin + payload.install_wire.size();
  for (std::size_t i = 0; i < generated.size(); ++i) {
    const std::span<const std::uint8_t> view = payload.packages[i];
    // One copy of the bytes: every view points into the install wire.
    EXPECT_GE(view.data(), wire_begin) << i;
    EXPECT_LE(view.data() + view.size(), wire_end) << i;
    auto package = pirte::InstallationPackage::Deserialize(view);  // CRC checked
    ASSERT_TRUE(package.ok()) << i << ": " << package.status().ToString();
    const pirte::InstallationPackage& want = generated[i].package;
    EXPECT_EQ(package->plugin_name, want.plugin_name) << i;
    EXPECT_EQ(package->version, want.version) << i;
    EXPECT_EQ(package->binary, want.binary) << i;
    EXPECT_EQ(ReferencePackage(*package), ReferencePackage(want)) << i;
    EXPECT_EQ(batch->manifest->plugins[i].name, generated[i].plugin) << i;
    EXPECT_EQ(batch->manifest->plugins[i].ecu_id, generated[i].ecu_id) << i;
  }
}

TEST_F(AssemblyTest, CacheCountsHitsVariantsAndRegenerations) {
  PackageCache cache;
  auto first = cache.Acquire("rpi-testbed", app, Conf(app), model.sw, layout);
  ASSERT_TRUE(first.ok());
  const support::Bytes wire = first->payload->install_wire.bytes();
  auto hit = cache.Acquire("rpi-testbed", app, Conf(app), model.sw, layout);
  ASSERT_TRUE(hit.ok());
  EXPECT_EQ(hit->payload, first->payload);
  EXPECT_EQ(cache.stats().variants, 1u);
  EXPECT_EQ(cache.stats().hits, 1u);

  // Every holder drops the payload; the next acquire regenerates the
  // same bytes against the pinned manifest.
  const auto manifest = first->manifest;
  first = support::Internal("dropped");
  hit = support::Internal("dropped");
  EXPECT_EQ(cache.live_payloads(), 0u);
  auto regenerated = cache.Acquire("rpi-testbed", app, Conf(app), model.sw, layout);
  ASSERT_TRUE(regenerated.ok());
  EXPECT_EQ(regenerated->manifest, manifest);
  EXPECT_EQ(regenerated->payload->install_wire.bytes(), wire);
  EXPECT_EQ(cache.stats().regenerations, 1u);

  // Another layout is another variant of the same key.
  const IdLayout other = {{1, PortIdSet{0}}};
  ASSERT_TRUE(cache.Acquire("rpi-testbed", app, Conf(app), model.sw, other).ok());
  EXPECT_EQ(cache.stats().variants, 2u);
  EXPECT_EQ(cache.entries(), 1u);
}

// --- the paper's exact example ---------------------------------------------------------------

TEST(ContextGenPaper, RemoteCarContextsMatchSection4) {
  const auto app = fes::MakeRemoteCarApp("111.22.33.44:56789");
  const auto model = fes::MakeRpiTestbedConf();
  UsedIdMap used;
  auto packages = GeneratePackages(app, *app.ConfForModel("rpi-testbed"),
                                   model.sw, used);
  ASSERT_TRUE(packages.ok());

  // OP's PLC: {P0-V3... no — P2-V4, P3-V5} with P0/P1 left to the Type II
  // delivery (no explicit posts needed on the receiving side).
  const auto& op = Find(*packages, "OP")->package;
  ASSERT_EQ(op.plc.entries.size(), 2u);
  EXPECT_EQ(op.plc.entries[0].local_port, 2);
  EXPECT_EQ(op.plc.entries[0].kind, PlcKind::kVirtual);
  EXPECT_EQ(op.plc.entries[0].virtual_port, 4);  // WheelsReq = V4
  EXPECT_EQ(op.plc.entries[1].local_port, 3);
  EXPECT_EQ(op.plc.entries[1].virtual_port, 5);  // SpeedReq = V5

  // COM's PLC: {P0-, P1-, P2-V0.P0, P3-V0.P1}.
  const auto& com = Find(*packages, "COM")->package;
  ASSERT_EQ(com.plc.entries.size(), 4u);
  EXPECT_EQ(com.plc.entries[0].kind, PlcKind::kUnconnected);
  EXPECT_EQ(com.plc.entries[1].kind, PlcKind::kUnconnected);
  EXPECT_EQ(com.plc.entries[2].kind, PlcKind::kVirtualRemote);
  EXPECT_EQ(com.plc.entries[2].virtual_port, 0);  // V0
  EXPECT_EQ(com.plc.entries[2].remote_port_id, op.pic.entries[0].unique_id);
  EXPECT_EQ(com.plc.entries[3].remote_port_id, op.pic.entries[1].unique_id);

  // COM's ECC: two inbound posts for 'Wheels' and 'Speed' on ECU1.
  ASSERT_EQ(com.ecc.entries.size(), 2u);
  EXPECT_EQ(com.ecc.entries[0].message_id, "Wheels");
  EXPECT_EQ(com.ecc.entries[1].message_id, "Speed");
  EXPECT_EQ(com.ecc.entries[0].endpoint, "111.22.33.44:56789");
  EXPECT_EQ(com.ecc.entries[0].target_ecu, 1u);
  EXPECT_TRUE(op.ecc.empty());
}

}  // namespace
}  // namespace dacm::server
