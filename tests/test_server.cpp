// Unit tests for the trusted server: user setup, uploads, the deploy
// pipeline's compatibility / dependency / conflict checks, unique-id
// allocation, acknowledgement bookkeeping, uninstall dependency guards,
// and the restore operation — exercised against a scripted fake vehicle
// so every server decision is observable without a full vehicle stack.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <span>

#include "fes/appgen.hpp"
#include "fes/fleet.hpp"
#include "fes/testbed.hpp"
#include "pirte/package.hpp"
#include "server/server.hpp"
#include "support/storage.hpp"

namespace dacm::server {
namespace {

/// A scripted ECM stand-in: connects to the server, says hello, records
/// every pushed per-plug-in message — unpacking kInstallBatch and
/// kUninstallBatch pushes as the real ECM does — and acks on demand.
struct FakeEcm {
  sim::Simulator& simulator;
  std::shared_ptr<sim::NetPeer> peer;
  std::vector<pirte::PirteMessage> pushed;
  std::string vin;

  FakeEcm(sim::Simulator& simulator, sim::Network& network, TrustedServer& server,
          std::string vin_in)
      : simulator(simulator), vin(std::move(vin_in)) {
    auto client = network.Connect(server.address());
    EXPECT_TRUE(client.ok());
    peer = std::move(*client);
    peer->SetReceiveHandler([this](const support::Bytes& data) {
      auto envelope = pirte::Envelope::Deserialize(data);
      if (!envelope.ok()) return;
      auto message = pirte::PirteMessage::Deserialize(envelope->message);
      if (!message.ok()) return;
      if (message->type != pirte::MessageType::kInstallBatch &&
          message->type != pirte::MessageType::kUninstallBatch) {
        pushed.push_back(*message);
        return;
      }
      EXPECT_TRUE(pirte::ForEachInBatch(
                      message->payload,
                      [this](std::span<const std::uint8_t> entry) {
                        auto inner = pirte::PirteMessage::Deserialize(entry);
                        if (inner.ok()) pushed.push_back(*inner);
                        return inner.status();
                      })
                      .ok());
    });
    pirte::Envelope hello;
    hello.kind = pirte::Envelope::Kind::kHello;
    hello.vin = vin;
    EXPECT_TRUE(peer->Send(hello.Serialize()).ok());
    simulator.Run();
  }

  void Ack(const std::string& plugin, bool ok, const std::string& detail = "") {
    pirte::PirteMessage ack;
    ack.type = pirte::MessageType::kAck;
    ack.plugin_name = plugin;
    ack.ok = ok;
    ack.detail = detail;
    pirte::Envelope envelope;
    envelope.kind = pirte::Envelope::Kind::kPirteMessage;
    envelope.vin = vin;
    envelope.message = ack.Serialize();
    EXPECT_TRUE(peer->Send(envelope.Serialize()).ok());
    simulator.Run();
  }

  void AckAllPushedInstalls() {
    for (const auto& message : pushed) {
      if (message.type == pirte::MessageType::kInstallPackage ||
          message.type == pirte::MessageType::kUninstall) {
        Ack(message.plugin_name, true);
      }
    }
  }
};

struct ServerFixture : ::testing::Test {
  sim::Simulator simulator;
  sim::Network network{simulator, sim::kMillisecond};
  TrustedServer server{network, "srv:443"};
  UserId alice = UserId::Invalid();
  std::unique_ptr<FakeEcm> ecm;

  void SetUp() override {
    ASSERT_TRUE(server.Start().ok());
    ASSERT_TRUE(server.UploadVehicleModel(fes::MakeRpiTestbedConf()).ok());
    auto user = server.CreateUser("alice");
    ASSERT_TRUE(user.ok());
    alice = *user;
    ASSERT_TRUE(server.BindVehicle(alice, "VIN-1", "rpi-testbed").ok());
    ecm = std::make_unique<FakeEcm>(simulator, network, server, "VIN-1");
  }

  App EchoApp(const std::string& name, std::uint32_t plugins = 1,
              std::vector<std::string> depends = {},
              std::vector<std::string> conflicts = {}) {
    fes::SyntheticAppParams params;
    params.name = name;
    params.vehicle_model = "rpi-testbed";
    params.plugin_count = plugins;
    params.target_ecu = 1;
    params.depends_on = std::move(depends);
    params.conflicts_with = std::move(conflicts);
    return fes::MakeSyntheticApp(params);
  }

  /// Runs the simulator so server pushes reach the (scripted) vehicle.
  void Settle() { simulator.Run(); }

  void DeployAndAck(const std::string& app) {
    // Tests may have uploaded (a customized) `app` already; the idempotent
    // re-upload of the same version is rejected and that is fine.
    auto upload = server.UploadApp(EchoApp(app));
    ASSERT_TRUE(upload.ok() || upload.code() == support::ErrorCode::kAlreadyExists)
        << upload.ToString();
    ASSERT_TRUE(server.Deploy(alice, "VIN-1", app).ok());
    Settle();
    ecm->AckAllPushedInstalls();
    ecm->pushed.clear();
    auto state = server.AppState("VIN-1", app);
    ASSERT_TRUE(state.ok());
    ASSERT_EQ(*state, InstallState::kInstalled);
  }
};

// --- user setup ------------------------------------------------------------------------

TEST_F(ServerFixture, DuplicateUserRejected) {
  EXPECT_FALSE(server.CreateUser("alice").ok());
}

TEST_F(ServerFixture, BindVehicleValidatesModelAndVin) {
  EXPECT_EQ(server.BindVehicle(alice, "VIN-2", "unknown-model").code(),
            support::ErrorCode::kNotFound);
  EXPECT_EQ(server.BindVehicle(alice, "VIN-1", "rpi-testbed").code(),
            support::ErrorCode::kAlreadyExists);
}

TEST_F(ServerFixture, OwnershipEnforcedOnAllOperations) {
  auto mallory = server.CreateUser("mallory");
  ASSERT_TRUE(mallory.ok());
  ASSERT_TRUE(server.UploadApp(EchoApp("app")).ok());
  EXPECT_EQ(server.Deploy(*mallory, "VIN-1", "app").code(),
            support::ErrorCode::kPermissionDenied);
  EXPECT_EQ(server.UninstallApp(*mallory, "VIN-1", "app").code(),
            support::ErrorCode::kPermissionDenied);
  EXPECT_EQ(server.Restore(*mallory, "VIN-1", 1).code(),
            support::ErrorCode::kPermissionDenied);
}

// --- uploads -----------------------------------------------------------------------------

TEST_F(ServerFixture, AppUploadValidation) {
  App empty;
  empty.name = "empty";
  EXPECT_FALSE(server.UploadApp(empty).ok());  // no plug-ins

  ASSERT_TRUE(server.UploadApp(EchoApp("app")).ok());
  // Same version again: rejected.
  EXPECT_EQ(server.UploadApp(EchoApp("app")).code(),
            support::ErrorCode::kAlreadyExists);
  // Higher version: accepted (update).
  auto v2 = EchoApp("app");
  v2.version = "2.0";
  EXPECT_TRUE(server.UploadApp(v2).ok());
}

// --- deploy pipeline ------------------------------------------------------------------------

TEST_F(ServerFixture, DeployPushesOneBatchCarryingEveryPackage) {
  ASSERT_TRUE(server.UploadApp(EchoApp("app", /*plugins=*/3)).ok());
  ASSERT_TRUE(server.Deploy(alice, "VIN-1", "app").ok());
  Settle();
  EXPECT_EQ(server.stats().packages_pushed, 1u);
  ASSERT_EQ(ecm->pushed.size(), 3u);
  for (const auto& message : ecm->pushed) {
    EXPECT_EQ(message.type, pirte::MessageType::kInstallPackage);
    EXPECT_EQ(message.target_ecu, 1u);
    EXPECT_TRUE(pirte::InstallationPackage::Deserialize(message.payload).ok());
  }
  EXPECT_EQ(*server.AppState("VIN-1", "app"), InstallState::kPending);
}

TEST_F(ServerFixture, InstallConfirmedOnlyWhenAllPluginsAck) {
  ASSERT_TRUE(server.UploadApp(EchoApp("app", 2)).ok());
  ASSERT_TRUE(server.Deploy(alice, "VIN-1", "app").ok());
  Settle();
  ASSERT_EQ(ecm->pushed.size(), 2u);
  ecm->Ack(ecm->pushed[0].plugin_name, true);
  EXPECT_EQ(*server.AppState("VIN-1", "app"), InstallState::kPending);
  ecm->Ack(ecm->pushed[1].plugin_name, true);
  EXPECT_EQ(*server.AppState("VIN-1", "app"), InstallState::kInstalled);
}

TEST_F(ServerFixture, NackMarksInstallFailed) {
  ASSERT_TRUE(server.UploadApp(EchoApp("app", 2)).ok());
  ASSERT_TRUE(server.Deploy(alice, "VIN-1", "app").ok());
  Settle();
  ASSERT_EQ(ecm->pushed.size(), 2u);
  ecm->Ack(ecm->pushed[0].plugin_name, false, "quota");
  EXPECT_EQ(*server.AppState("VIN-1", "app"), InstallState::kFailed);
}

TEST_F(ServerFixture, DeployRejectedWithoutSwConfForModel) {
  fes::SyntheticAppParams params;
  params.name = "wrongmodel";
  params.vehicle_model = "some-other-model";
  ASSERT_TRUE(server.UploadApp(fes::MakeSyntheticApp(params)).ok());
  EXPECT_EQ(server.Deploy(alice, "VIN-1", "wrongmodel").code(),
            support::ErrorCode::kIncompatible);
}

TEST_F(ServerFixture, DeployRejectedOnOldPlatform) {
  auto app = EchoApp("needsnew");
  app.confs[0].min_platform = "9.9";
  ASSERT_TRUE(server.UploadApp(app).ok());
  EXPECT_EQ(server.Deploy(alice, "VIN-1", "needsnew").code(),
            support::ErrorCode::kIncompatible);
}

TEST_F(ServerFixture, DeployRejectedOnMissingVirtualPort) {
  auto app = EchoApp("needsvp");
  app.confs[0].required_virtual_ports = {"NonexistentPort"};
  ASSERT_TRUE(server.UploadApp(app).ok());
  auto status = server.Deploy(alice, "VIN-1", "needsvp");
  EXPECT_EQ(status.code(), support::ErrorCode::kIncompatible);
  EXPECT_NE(status.message().find("NonexistentPort"), std::string::npos);
}

TEST_F(ServerFixture, DeployRejectedOnNonPluginEcu) {
  auto app = EchoApp("badplacement");
  app.confs[0].placements[0].ecu_id = 99;
  ASSERT_TRUE(server.UploadApp(app).ok());
  EXPECT_EQ(server.Deploy(alice, "VIN-1", "badplacement").code(),
            support::ErrorCode::kIncompatible);
}

TEST_F(ServerFixture, DependencyMustBeInstalledFirst) {
  ASSERT_TRUE(server.UploadApp(EchoApp("base")).ok());
  ASSERT_TRUE(server.UploadApp(EchoApp("addon", 1, {"base"})).ok());
  EXPECT_EQ(server.Deploy(alice, "VIN-1", "addon").code(),
            support::ErrorCode::kDependencyViolation);
  DeployAndAck("base");
  EXPECT_TRUE(server.Deploy(alice, "VIN-1", "addon").ok());
}

TEST_F(ServerFixture, PendingDependencyDoesNotCount) {
  ASSERT_TRUE(server.UploadApp(EchoApp("base")).ok());
  ASSERT_TRUE(server.UploadApp(EchoApp("addon", 1, {"base"})).ok());
  ASSERT_TRUE(server.Deploy(alice, "VIN-1", "base").ok());
  // base is pushed but not acked -> still pending -> addon must wait.
  EXPECT_EQ(server.Deploy(alice, "VIN-1", "addon").code(),
            support::ErrorCode::kDependencyViolation);
}

TEST_F(ServerFixture, ConflictsRejectedBothDirections) {
  ASSERT_TRUE(server.UploadApp(EchoApp("first", 1, {}, {"second"})).ok());
  ASSERT_TRUE(server.UploadApp(EchoApp("second")).ok());
  DeployAndAck("first");
  // first declares the conflict; second is the newcomer.
  EXPECT_EQ(server.Deploy(alice, "VIN-1", "second").code(),
            support::ErrorCode::kDependencyViolation);
}

TEST_F(ServerFixture, DoubleDeployRejected) {
  DeployAndAck("app");
  EXPECT_EQ(server.Deploy(alice, "VIN-1", "app").code(),
            support::ErrorCode::kAlreadyExists);
}

TEST_F(ServerFixture, DeployToOfflineVehicleFails) {
  ecm->peer->Close();
  ASSERT_TRUE(server.UploadApp(EchoApp("app")).ok());
  EXPECT_EQ(server.Deploy(alice, "VIN-1", "app").code(),
            support::ErrorCode::kUnavailable);
}

TEST_F(ServerFixture, UniqueIdsNeverCollideAcrossApps) {
  DeployAndAck("one");
  DeployAndAck("two");
  const auto vehicle = server.FindVehicle("VIN-1");
  ASSERT_NE(vehicle, nullptr);
  std::set<std::uint8_t> ids;
  for (const auto& installed : vehicle->installed) {
    for (const auto& plugin : installed.plugins) {
      for (const auto& entry : plugin.pic.entries) {
        EXPECT_TRUE(ids.insert(entry.unique_id).second)
            << "uid " << int(entry.unique_id) << " reused";
      }
    }
  }
  EXPECT_EQ(ids.size(), 4u);  // 2 apps x 1 plugin x 2 ports
}

TEST_F(ServerFixture, FreedIdsAreReusedAfterUninstall) {
  DeployAndAck("one");
  ASSERT_TRUE(server.UninstallApp(alice, "VIN-1", "one").ok());
  Settle();
  ecm->AckAllPushedInstalls();
  ecm->pushed.clear();
  DeployAndAck("two");
  const auto vehicle = server.FindVehicle("VIN-1");
  ASSERT_EQ(vehicle->installed.size(), 1u);
  EXPECT_EQ(vehicle->installed[0].plugins[0].pic.entries[0].unique_id, 0);
}

// --- uninstall -----------------------------------------------------------------------------

TEST_F(ServerFixture, UninstallPushesMessagesAndRemovesOnAck) {
  DeployAndAck("app");
  ASSERT_TRUE(server.UninstallApp(alice, "VIN-1", "app").ok());
  Settle();
  ASSERT_EQ(ecm->pushed.size(), 1u);
  EXPECT_EQ(ecm->pushed[0].type, pirte::MessageType::kUninstall);
  EXPECT_EQ(*server.AppState("VIN-1", "app"), InstallState::kUninstalling);
  ecm->Ack("app.p0", true);
  EXPECT_FALSE(server.AppState("VIN-1", "app").ok());  // row removed
}

TEST_F(ServerFixture, UninstallBlockedByDependents) {
  DeployAndAck("base");
  ASSERT_TRUE(server.UploadApp(EchoApp("addon", 1, {"base"})).ok());
  DeployAndAck("addon");
  auto status = server.UninstallApp(alice, "VIN-1", "base");
  EXPECT_EQ(status.code(), support::ErrorCode::kDependencyViolation);
  EXPECT_NE(status.message().find("addon"), std::string::npos);
  // After removing the dependent, the base can go.
  ASSERT_TRUE(server.UninstallApp(alice, "VIN-1", "addon").ok());
  Settle();
  ecm->AckAllPushedInstalls();
  ecm->pushed.clear();
  EXPECT_TRUE(server.UninstallApp(alice, "VIN-1", "base").ok());
}

TEST_F(ServerFixture, UninstallUnknownAppFails) {
  EXPECT_EQ(server.UninstallApp(alice, "VIN-1", "ghost").code(),
            support::ErrorCode::kNotFound);
}

TEST(ServerDurabilityTest, UninstallOfflineVehicleLeavesTheRowInstalled) {
  sim::Simulator simulator;
  sim::Network network{simulator, sim::kMillisecond};
  support::MemorySink status_log;
  ServerOptions options;
  options.status_sink = &status_log;
  TrustedServer server(network, "srv:443", options);
  ASSERT_TRUE(server.Start().ok());
  ASSERT_TRUE(server.UploadVehicleModel(fes::MakeRpiTestbedConf()).ok());
  const UserId alice = *server.CreateUser("alice");
  ASSERT_TRUE(server.BindVehicle(alice, "VIN-1", "rpi-testbed").ok());
  FakeEcm ecm(simulator, network, server, "VIN-1");
  fes::SyntheticAppParams params;
  params.name = "app";
  params.vehicle_model = "rpi-testbed";
  params.plugin_count = 2;
  params.target_ecu = 1;
  ASSERT_TRUE(server.UploadApp(fes::MakeSyntheticApp(params)).ok());
  ASSERT_TRUE(server.Deploy(alice, "VIN-1", "app").ok());
  simulator.Run();
  ecm.AckAllPushedInstalls();
  ASSERT_EQ(*server.AppState("VIN-1", "app"), InstallState::kInstalled);

  ecm.peer->Close();
  simulator.Run();
  EXPECT_EQ(server.UninstallApp(alice, "VIN-1", "app").code(),
            support::ErrorCode::kUnavailable);
  // The push never left: the row snaps back to installed, fully acked,
  // instead of waiting behind a half-removed paragraph for acks that
  // cannot come.
  EXPECT_EQ(*server.AppState("VIN-1", "app"), InstallState::kInstalled);
  EXPECT_EQ(server.stats().uninstalls, 0u);
  EXPECT_EQ(server.Deploy(alice, "VIN-1", "app").code(),
            support::ErrorCode::kAlreadyExists);
  const WaveTarget target{"VIN-1", server.ResolveVehicle("VIN-1")};
  PayloadPins built;
  const auto outcomes = server.CampaignWavePush(
      alice, "app", CampaignKind::kDeploy, std::span(&target, 1), built);
  ASSERT_EQ(outcomes.size(), 1u);
  EXPECT_EQ(outcomes[0].action, WaveOutcome::Action::kAlreadyDone)
      << outcomes[0].status.ToString();
  EXPECT_TRUE(built.empty());

  // The snap-back was re-recorded: a server recovered from the status
  // log holds the same fleet.
  TrustedServer recovered(network, "srv-recover:1");
  ASSERT_TRUE(recovered.RecoverInstallDb(status_log.bytes()).ok());
  EXPECT_EQ(recovered.DescribeFleet(), server.DescribeFleet());
  EXPECT_EQ(recovered.FleetFingerprint(), server.FleetFingerprint());
}

// --- restore ---------------------------------------------------------------------------------

TEST_F(ServerFixture, RestoreRepushesRecordedPackages) {
  DeployAndAck("app");
  const auto vehicle = server.FindVehicle("VIN-1");
  const auto original_uid =
      vehicle->installed[0].plugins[0].pic.entries[0].unique_id;

  ASSERT_TRUE(server.Restore(alice, "VIN-1", 1).ok());
  Settle();
  ASSERT_EQ(ecm->pushed.size(), 1u);
  EXPECT_EQ(ecm->pushed[0].type, pirte::MessageType::kInstallPackage);
  auto package = pirte::InstallationPackage::Deserialize(ecm->pushed[0].payload);
  ASSERT_TRUE(package.ok());
  // The restored package carries the identical contexts (same unique ids).
  EXPECT_EQ(package->pic.entries[0].unique_id, original_uid);
  EXPECT_EQ(*server.AppState("VIN-1", "app"), InstallState::kPending);
  ecm->Ack("app.p0", true);
  EXPECT_EQ(*server.AppState("VIN-1", "app"), InstallState::kInstalled);
}

TEST_F(ServerFixture, RestoreOnlyTouchesTheReplacedEcu) {
  DeployAndAck("app");  // placed on ECU 1
  EXPECT_EQ(server.Restore(alice, "VIN-1", 2).code(),
            support::ErrorCode::kNotFound);  // nothing on ECU 2
  EXPECT_TRUE(ecm->pushed.empty());
}

TEST_F(ServerFixture, RestoreDuringUninstallIsRefused) {
  DeployAndAck("app");  // placed on ECU 1
  ASSERT_TRUE(server.UninstallApp(alice, "VIN-1", "app").ok());
  Settle();
  ASSERT_EQ(ecm->pushed.size(), 1u);
  ecm->pushed.clear();
  const std::uint64_t pushed_before = server.stats().packages_pushed;

  // The row's outstanding ack belongs to the uninstall; a restore now
  // would take it as its own install ack.
  const auto status = server.Restore(alice, "VIN-1", 1);
  EXPECT_EQ(status.code(), support::ErrorCode::kFailedPrecondition);
  EXPECT_NE(status.message().find("uninstall of app in progress"),
            std::string::npos)
      << status.ToString();
  Settle();
  EXPECT_TRUE(ecm->pushed.empty());
  EXPECT_EQ(server.stats().packages_pushed, pushed_before);
  EXPECT_EQ(server.stats().restores, 0u);
  EXPECT_EQ(*server.AppState("VIN-1", "app"), InstallState::kUninstalling);

  // The uninstall still converges and removes the row.
  ecm->Ack("app.p0", true);
  EXPECT_FALSE(server.AppState("VIN-1", "app").ok());
}

// --- ack routing -----------------------------------------------------------------------------

/// Sends a kAck for `plugin` over `peer`, naming `vin` in the envelope
/// ("" names nothing: the server routes by what the connection's Hello
/// said).  Does not run the simulator.
void SendAck(sim::NetPeer& peer, const std::string& vin,
             const std::string& plugin) {
  pirte::PirteMessage ack;
  ack.type = pirte::MessageType::kAck;
  ack.plugin_name = plugin;
  ack.ok = true;
  pirte::Envelope envelope;
  envelope.kind = pirte::Envelope::Kind::kPirteMessage;
  envelope.vin = vin;
  envelope.message = ack.Serialize();
  EXPECT_TRUE(peer.Send(envelope.Serialize()).ok());
}

TEST_F(ServerFixture, AckRoutesByTheEnvelopeVinNotTheConnection) {
  ASSERT_TRUE(server.BindVehicle(alice, "VIN-2", "rpi-testbed").ok());
  FakeEcm other(simulator, network, server, "VIN-2");
  ASSERT_TRUE(server.UploadApp(EchoApp("app")).ok());
  ASSERT_TRUE(server.Deploy(alice, "VIN-1", "app").ok());
  ASSERT_TRUE(server.Deploy(alice, "VIN-2", "app").ok());
  Settle();
  ASSERT_EQ(other.pushed.size(), 1u);
  const std::string plugin = other.pushed[0].plugin_name;

  // VIN-2's ack arrives over VIN-1's connection: it is VIN-2's.
  SendAck(*ecm->peer, "VIN-2", plugin);
  Settle();
  EXPECT_EQ(*server.AppState("VIN-2", "app"), InstallState::kInstalled);
  EXPECT_EQ(*server.AppState("VIN-1", "app"), InstallState::kPending);

  // An ack naming no VIN belongs to whoever the connection said it was.
  SendAck(*ecm->peer, "", plugin);
  Settle();
  EXPECT_EQ(*server.AppState("VIN-1", "app"), InstallState::kInstalled);
  EXPECT_EQ(server.stats().acks_received, 2u);
}

TEST_F(ServerFixture, EmptyVinAckOnAReapedConnectionIsDropped) {
  ASSERT_TRUE(server.UploadApp(EchoApp("app")).ok());
  ASSERT_TRUE(server.Deploy(alice, "VIN-1", "app").ok());
  Settle();
  ASSERT_EQ(ecm->pushed.size(), 1u);
  const std::string plugin = ecm->pushed[0].plugin_name;
  const std::uint64_t reaped_before = server.stats().connections_reaped;

  // The vehicle redials: its new Hello lands first and reaps the old,
  // dead connection, whose VIN-less ack is still in flight behind it.
  auto redial = network.Connect(server.address());
  ASSERT_TRUE(redial.ok());
  pirte::Envelope hello;
  hello.kind = pirte::Envelope::Kind::kHello;
  hello.vin = "VIN-1";
  ASSERT_TRUE((*redial)->Send(hello.Serialize()).ok());
  SendAck(*ecm->peer, "", plugin);
  ecm->peer->Close();
  Settle();
  EXPECT_EQ(server.stats().connections_reaped, reaped_before + 1);
  EXPECT_EQ(server.stats().acks_received, 0u);  // dropped, not counted
  EXPECT_EQ(*server.AppState("VIN-1", "app"), InstallState::kPending);

  // The live connection still routes, VIN-less acks included.
  SendAck(**redial, "", plugin);
  Settle();
  EXPECT_EQ(*server.AppState("VIN-1", "app"), InstallState::kInstalled);
}

// --- campaigns -------------------------------------------------------------------------------

/// Fixture for fleet campaigns: a server and a scripted fleet.
struct CampaignFixture : ::testing::Test {
  static constexpr std::size_t kFleet = 24;
  sim::Simulator simulator;
  sim::Network network{simulator, sim::kMillisecond};
  TrustedServer server{network, "srv:443"};
  UserId alice = UserId::Invalid();
  std::unique_ptr<fes::ScriptedFleet> fleet;

  void SetUp() override {
    ASSERT_TRUE(server.Start().ok());
    ASSERT_TRUE(server.UploadVehicleModel(fes::MakeRpiTestbedConf()).ok());
    alice = *server.CreateUser("alice");
    fes::ScriptedFleetOptions options;
    options.vehicle_count = kFleet;
    fleet = std::make_unique<fes::ScriptedFleet>(simulator, network, server,
                                                 options);
    ASSERT_TRUE(fleet->BindAndConnect(alice).ok());
  }

  App FleetApp(const std::string& name, std::uint32_t plugins = 3) {
    fes::SyntheticAppParams params;
    params.name = name;
    params.vehicle_model = "rpi-testbed";
    params.plugin_count = plugins;
    params.target_ecu = 1;
    return fes::MakeSyntheticApp(params);
  }
};

/// The process's OS thread count, from /proc/self/status (0 if absent).
std::size_t ProcessThreadCount() {
  std::FILE* status = std::fopen("/proc/self/status", "r");
  if (status == nullptr) return 0;
  char line[128];
  std::size_t threads = 0;
  while (std::fgets(line, sizeof(line), status) != nullptr) {
    if (std::strncmp(line, "Threads:", 8) == 0) {
      threads = std::strtoull(line + 8, nullptr, 10);
      break;
    }
  }
  std::fclose(status);
  return threads;
}

TEST(ServerThreadingTest, ShardedCampaignSpawnsNoThreads) {
  // The server runs its whole campaign on the calling thread.
  const std::size_t before = ProcessThreadCount();
  if (before == 0) GTEST_SKIP() << "no /proc/self/status";
  {
    sim::Simulator simulator;
    sim::Network network{simulator, sim::kMillisecond};
    TrustedServer server{network, "srv:443"};
    ASSERT_TRUE(server.Start().ok());
    ASSERT_TRUE(server.UploadVehicleModel(fes::MakeRpiTestbedConf()).ok());
    const UserId alice = *server.CreateUser("alice");
    fes::ScriptedFleetOptions options;
    options.vehicle_count = 16;
    fes::ScriptedFleet fleet(simulator, network, server, options);
    ASSERT_TRUE(fleet.BindAndConnect(alice).ok());
    fes::SyntheticAppParams params;
    params.name = "app";
    params.vehicle_model = "rpi-testbed";
    params.plugin_count = 2;
    params.target_ecu = 1;
    ASSERT_TRUE(server.UploadApp(fes::MakeSyntheticApp(params)).ok());
    auto report = server.DeployCampaign(alice, "app", fleet.vins());
    ASSERT_TRUE(report.ok());
    simulator.Run();
    EXPECT_EQ(server.stats().deploys_ok, 16u);
    EXPECT_EQ(*server.AppState(fleet.vins().back(), "app"),
              InstallState::kInstalled);
    EXPECT_EQ(ProcessThreadCount(), before);
  }
  EXPECT_EQ(ProcessThreadCount(), before);
}

TEST_F(CampaignFixture, CampaignInstallsWholeFleetWithOneBatchPerVehicle) {
  ASSERT_TRUE(server.UploadApp(FleetApp("app", /*plugins=*/3)).ok());
  auto report = server.DeployCampaign(alice, "app", fleet->vins());
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->deployed, kFleet);
  EXPECT_EQ(report->rejected, 0u);
  EXPECT_EQ(report->per_vehicle_ns.size(), kFleet);
  simulator.Run();

  // One batched push per vehicle carrying all three packages...
  EXPECT_EQ(fleet->batches_received(), kFleet);
  EXPECT_EQ(fleet->packages_received(), kFleet * 3);
  EXPECT_EQ(server.stats().packages_pushed, kFleet);  // batches, not plug-ins
  // ...and the batch acks complete every row.
  EXPECT_EQ(server.stats().acks_received, kFleet * 3);
  for (const std::string& vin : fleet->vins()) {
    EXPECT_EQ(*server.AppState(vin, "app"), InstallState::kInstalled) << vin;
  }
  EXPECT_EQ(server.stats().deploys_ok, kFleet);
}

TEST_F(CampaignFixture, PerPluginAcksCompleteBatchedRowsToo) {
  // A fleet that acks each embedded package individually (the real ECM's
  // behavior) must converge to the same state as the batch-ack path.
  fes::ScriptedFleetOptions options;
  options.vehicle_count = 5;
  options.vin_prefix = "MIXED-";
  options.batch_ack = false;
  fes::ScriptedFleet mixed(simulator, network, server, options);
  ASSERT_TRUE(mixed.BindAndConnect(alice).ok());
  ASSERT_TRUE(server.UploadApp(FleetApp("app", /*plugins=*/2)).ok());
  auto report = server.DeployCampaign(alice, "app", mixed.vins());
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->deployed, 5u);
  simulator.Run();
  for (const std::string& vin : mixed.vins()) {
    EXPECT_EQ(*server.AppState(vin, "app"), InstallState::kInstalled) << vin;
  }
}

TEST_F(CampaignFixture, PerVehicleRejectionsAreReportedNotFatal) {
  ASSERT_TRUE(server.UploadApp(FleetApp("app")).ok());
  // Two bad VINs in the middle of the fleet: one unknown, one offline.
  std::vector<std::string> vins = fleet->vins();
  vins.insert(vins.begin() + 3, "VIN-GHOST");
  ASSERT_TRUE(server.BindVehicle(alice, "VIN-OFFLINE", "rpi-testbed").ok());
  vins.push_back("VIN-OFFLINE");

  auto report = server.DeployCampaign(alice, "app", vins);
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->deployed, kFleet);
  EXPECT_EQ(report->rejected, 2u);
  ASSERT_EQ(report->failures.size(), 2u);
  for (const auto& [vin, status] : report->failures) {
    if (vin == "VIN-GHOST") {
      EXPECT_EQ(status.code(), support::ErrorCode::kNotFound);
    } else {
      EXPECT_EQ(vin, "VIN-OFFLINE");
      EXPECT_EQ(status.code(), support::ErrorCode::kUnavailable);
    }
  }
  simulator.Run();
  EXPECT_EQ(server.stats().deploys_ok, kFleet);
  // Only the offline vehicle counts as a rejection; an unknown VIN fails
  // before the pipeline starts (same accounting as interactive Deploy).
  EXPECT_EQ(server.stats().deploys_rejected, 1u);
}

TEST_F(CampaignFixture, NackedVehiclesEndUpFailedTheRestInstalled) {
  fes::ScriptedFleetOptions options;
  options.vehicle_count = 9;
  options.vin_prefix = "NACK-";
  options.nack_every = 3;  // endpoints 2, 5, 8 reject
  fes::ScriptedFleet nacky(simulator, network, server, options);
  ASSERT_TRUE(nacky.BindAndConnect(alice).ok());
  ASSERT_TRUE(server.UploadApp(FleetApp("app")).ok());
  auto report = server.DeployCampaign(alice, "app", nacky.vins());
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->deployed, 9u);
  simulator.Run();
  std::size_t installed = 0, failed = 0;
  for (const std::string& vin : nacky.vins()) {
    auto state = *server.AppState(vin, "app");
    (state == InstallState::kInstalled ? installed : failed) += 1;
    EXPECT_TRUE(state == InstallState::kInstalled || state == InstallState::kFailed);
  }
  EXPECT_EQ(installed, 6u);
  EXPECT_EQ(failed, 3u);
}

TEST_F(CampaignFixture, CampaignOfUnknownAppFailsWholesale) {
  auto report = server.DeployCampaign(alice, "ghost-app", fleet->vins());
  EXPECT_EQ(report.status().code(), support::ErrorCode::kNotFound);
}

TEST_F(CampaignFixture, WholeBatchNackFailsTheRowInsteadOfStrandingIt) {
  // An ECM that cannot decode a campaign batch replies with a *failed
  // kAckBatch* naming the app (the batch's label); the row must go
  // kFailed — not wait forever for per-plug-in acks that never arrive.
  ASSERT_TRUE(server.BindVehicle(alice, "VIN-RAW", "rpi-testbed").ok());
  FakeEcm raw(simulator, network, server, "VIN-RAW");
  ASSERT_TRUE(server.UploadApp(FleetApp("app", /*plugins=*/2)).ok());
  std::vector<std::string> vins = {"VIN-RAW"};
  auto report = server.DeployCampaign(alice, "app", vins);
  ASSERT_TRUE(report.ok());
  ASSERT_EQ(report->deployed, 1u);
  simulator.Run();
  EXPECT_EQ(*server.AppState("VIN-RAW", "app"), InstallState::kPending);

  // A plain per-plug-in nack that happens to carry the app's name must
  // NOT fail the row (an app and a plug-in may legally share a name).
  raw.Ack("app", false, "not a batch rejection");
  EXPECT_EQ(*server.AppState("VIN-RAW", "app"), InstallState::kPending);

  pirte::PirteMessage nack;
  nack.type = pirte::MessageType::kAckBatch;
  nack.plugin_name = "app";
  nack.ok = false;
  nack.detail = "undecodable install batch";
  pirte::Envelope envelope;
  envelope.kind = pirte::Envelope::Kind::kPirteMessage;
  envelope.vin = "VIN-RAW";
  envelope.message = nack.Serialize();
  ASSERT_TRUE(raw.peer->Send(envelope.Serialize()).ok());
  simulator.Run();
  EXPECT_EQ(*server.AppState("VIN-RAW", "app"), InstallState::kFailed);
  // The failed row uninstalls normally, freeing the ids for a retry.
  ASSERT_TRUE(server.UninstallApp(alice, "VIN-RAW", "app").ok());
}

TEST_F(CampaignFixture, PersistentIdBitmapAgreesWithTableReconstruction) {
  // Vehicle::port_ids is maintained incrementally; CollectUsedIds rebuilds
  // the same information from the InstalledAPP table.  After a campaign +
  // partial uninstall churn the two must agree exactly.
  ASSERT_TRUE(server.UploadApp(FleetApp("app", /*plugins=*/3)).ok());
  ASSERT_TRUE(server.DeployCampaign(alice, "app", fleet->vins()).ok());
  simulator.Run();
  for (std::size_t i = 0; i < fleet->vins().size(); i += 2) {
    ASSERT_TRUE(server.UninstallApp(alice, fleet->vins()[i], "app").ok());
  }
  simulator.Run();
  for (const std::string& vin : fleet->vins()) {
    const auto vehicle = server.FindVehicle(vin);
    ASSERT_NE(vehicle, nullptr);
    const UsedIdMap rebuilt = CollectUsedIds(*vehicle);
    std::size_t live_nonempty = 0;
    for (const auto& [ecu, set] : vehicle->port_ids) {
      if (set.size() == 0) continue;
      ++live_nonempty;
      ASSERT_TRUE(rebuilt.contains(ecu)) << vin << " ECU " << ecu;
      for (int id = 0; id < 256; ++id) {
        EXPECT_EQ(set.contains(static_cast<std::uint8_t>(id)),
                  rebuilt.at(ecu).contains(static_cast<std::uint8_t>(id)))
            << vin << " ECU " << ecu << " id " << id;
      }
    }
    EXPECT_EQ(live_nonempty, rebuilt.size()) << vin;
  }
}

TEST_F(CampaignFixture, CampaignDeploymentsAreUninstallableAndRedeployable) {
  // The batched row must behave like any other: uninstall frees the ids,
  // a second campaign reuses them.
  ASSERT_TRUE(server.UploadApp(FleetApp("app", /*plugins=*/2)).ok());
  ASSERT_TRUE(server.DeployCampaign(alice, "app", fleet->vins()).ok());
  simulator.Run();
  for (const std::string& vin : fleet->vins()) {
    ASSERT_TRUE(server.UninstallApp(alice, vin, "app").ok());
  }
  simulator.Run();
  for (const std::string& vin : fleet->vins()) {
    EXPECT_FALSE(server.AppState(vin, "app").ok()) << vin;  // rows removed
  }
  auto again = server.DeployCampaign(alice, "app", fleet->vins());
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(again->deployed, kFleet);
  simulator.Run();
  const auto vehicle = server.FindVehicle(fleet->vins()[0]);
  ASSERT_NE(vehicle, nullptr);
  ASSERT_EQ(vehicle->installed.size(), 1u);
  // Freed ids were reused: allocation restarted at 0.
  EXPECT_EQ(vehicle->installed[0].plugins[0].pic.entries[0].unique_id, 0);
}

// --- content-addressed package cache ---------------------------------------------------------

TEST_F(CampaignFixture, CampaignSharesOneCachedBatchAcrossTheFleet) {
  ASSERT_TRUE(server.UploadApp(FleetApp("app")).ok());
  ASSERT_TRUE(server.DeployCampaign(alice, "app", fleet->vins()).ok());
  // Before the acks land: every pending row references the *same*
  // refcounted envelope — pointer identity, not just equal bytes.
  const auto first = server.FindVehicle(fleet->vins()[0]);
  const auto last = server.FindVehicle(fleet->vins()[kFleet - 1]);
  ASSERT_NE(first, nullptr);
  ASSERT_NE(last, nullptr);
  ASSERT_EQ(first->installed.size(), 1u);
  EXPECT_EQ(first->installed[0].push_bytes.data(),
            last->installed[0].push_bytes.data());
  EXPECT_EQ(first->installed[0].uninstall_bytes.data(),
            last->installed[0].uninstall_bytes.data());
  // One distinct (model, app, version) -> one cache entry, generated once.
  EXPECT_EQ(server.package_cache().entries(), 1u);
}

TEST_F(CampaignFixture, DistinctAppsNeverShareCachedEnvelopes) {
  // Same fleet, same version string, different app names: the cache keys
  // must isolate them — a hash-key collision handing app-b's fleet
  // app-a's batch would install the wrong software.
  ASSERT_TRUE(server.UploadApp(FleetApp("app-a")).ok());
  ASSERT_TRUE(server.UploadApp(FleetApp("app-b")).ok());
  ASSERT_TRUE(server.DeployCampaign(alice, "app-a", fleet->vins()).ok());
  ASSERT_TRUE(server.DeployCampaign(alice, "app-b", fleet->vins()).ok());
  const auto vehicle = server.FindVehicle(fleet->vins()[0]);
  ASSERT_NE(vehicle, nullptr);
  ASSERT_EQ(vehicle->installed.size(), 2u);
  const auto& a = vehicle->installed[0];
  const auto& b = vehicle->installed[1];
  EXPECT_NE(a.push_bytes.data(), b.push_bytes.data());
  EXPECT_NE(a.push_bytes.bytes(), b.push_bytes.bytes());
  EXPECT_NE(a.uninstall_bytes.bytes(), b.uninstall_bytes.bytes());
  EXPECT_EQ(server.package_cache().entries(), 2u);
  simulator.Run();
  for (const std::string& vin : fleet->vins()) {
    EXPECT_EQ(*server.AppState(vin, "app-a"), InstallState::kInstalled) << vin;
    EXPECT_EQ(*server.AppState(vin, "app-b"), InstallState::kInstalled) << vin;
  }
}

TEST_F(CampaignFixture, ConvergenceDropsTheCachedPayload) {
  ASSERT_TRUE(server.UploadApp(FleetApp("app")).ok());
  ASSERT_TRUE(server.DeployCampaign(alice, "app", fleet->vins()).ok());
  // In flight: the fleet's pending rows pin the payload alive.
  EXPECT_EQ(server.package_cache().live_payloads(), 1u);
  simulator.Run();
  // Converged: the last row's refcount drop freed the package bytes and
  // batch envelope fleet-wide; only the manifest (names, ids, uninstall
  // wire) stays pinned.
  EXPECT_EQ(server.package_cache().live_payloads(), 0u);
  EXPECT_EQ(server.package_cache().entries(), 1u);
  for (const std::string& vin : fleet->vins()) {
    EXPECT_EQ(*server.AppState(vin, "app"), InstallState::kInstalled) << vin;
  }
}

TEST_F(CampaignFixture, RollbackReusesTheCachedUninstallBatch) {
  ASSERT_TRUE(server.UploadApp(FleetApp("app", /*plugins=*/2)).ok());
  ASSERT_TRUE(server.DeployCampaign(alice, "app", fleet->vins()).ok());
  simulator.Run();
  // The rollback wave pushes the manifest's pre-built kUninstallBatch —
  // no per-vehicle serialization, same refcounted wire for every VIN.
  std::vector<WaveTarget> targets;
  for (const std::string& vin : fleet->vins()) {
    targets.push_back(WaveTarget{vin, server.ResolveVehicle(vin)});
  }
  PayloadPins built;
  auto outcomes = server.CampaignWavePush(alice, "app", CampaignKind::kRollback,
                                          targets, built);
  EXPECT_TRUE(built.empty());  // the uninstall wire lives on the manifest
  for (const WaveOutcome& outcome : outcomes) {
    EXPECT_EQ(outcome.action, WaveOutcome::Action::kPushed)
        << outcome.status.ToString();
  }
  const auto first = server.FindVehicle(fleet->vins()[0]);
  const auto last = server.FindVehicle(fleet->vins()[kFleet - 1]);
  ASSERT_EQ(first->installed.size(), 1u);
  EXPECT_EQ(first->installed[0].uninstall_bytes.data(),
            last->installed[0].uninstall_bytes.data());
  simulator.Run();
  EXPECT_EQ(fleet->uninstall_batches_received(), kFleet);
  for (const std::string& vin : fleet->vins()) {
    EXPECT_FALSE(server.AppState(vin, "app").ok()) << vin;  // rows gone
  }
}

// --- queries / stats -----------------------------------------------------------------------------

TEST_F(ServerFixture, InstalledAppsListing) {
  EXPECT_TRUE(server.InstalledApps("VIN-1").empty());
  DeployAndAck("a1");
  DeployAndAck("a2");
  auto apps = server.InstalledApps("VIN-1");
  EXPECT_EQ(apps.size(), 2u);
}

TEST_F(ServerFixture, StatsTrackOperations) {
  DeployAndAck("app");
  EXPECT_EQ(server.stats().deploys_ok, 1u);
  EXPECT_EQ(server.stats().packages_pushed, 1u);
  EXPECT_EQ(server.stats().acks_received, 1u);
  ASSERT_TRUE(server.UploadApp(EchoApp("bad", 1, {"missing-dep"})).ok());
  (void)server.Deploy(alice, "VIN-1", "bad");
  EXPECT_EQ(server.stats().deploys_rejected, 1u);
}

TEST_F(ServerFixture, VehicleOnlineTracksConnection) {
  EXPECT_TRUE(server.VehicleOnline("VIN-1"));
  ecm->peer->Close();
  EXPECT_FALSE(server.VehicleOnline("VIN-1"));
  EXPECT_FALSE(server.VehicleOnline("VIN-404"));
}

}  // namespace
}  // namespace dacm::server
