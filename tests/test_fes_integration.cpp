// System-level integration tests: multi-vehicle federations, plug-in
// isolation under load, fault injection on the CAN bus, watchdog
// supervision of the VM task, and the update (uninstall + reinstall)
// workflow of the paper.
#include <gtest/gtest.h>

#include "bsw/watchdog.hpp"
#include "fes/appgen.hpp"
#include "fes/device.hpp"
#include "fes/fleet.hpp"
#include "fes/testbed.hpp"
#include "support/log.hpp"

namespace dacm::fes {
namespace {

struct FesTest : ::testing::Test {
  std::unique_ptr<Figure3Testbed> testbed;

  void SetUp() override {
    auto created = Figure3Testbed::Create();
    ASSERT_TRUE(created.ok()) << created.status().ToString();
    testbed = std::move(*created);
    ASSERT_TRUE(testbed->SetUp().ok());
  }
};

// --- update workflow ----------------------------------------------------------------------

TEST_F(FesTest, UpdateIsUninstallThenFreshInstall) {
  ASSERT_TRUE(testbed->DeployRemoteCar().ok());
  ASSERT_TRUE(testbed->SendWheels(1).ok());

  // Paper: "mandating a plug-in to be stopped before being updated, and
  // then restarted fresh" — modelled as uninstall + deploy of v2.
  ASSERT_TRUE(testbed->server()
                  .UninstallApp(testbed->user(), "VIN-0001", "remote-car")
                  .ok());
  testbed->RunUntil(
      [&]() {
        return !testbed->server().AppState("VIN-0001", "remote-car").ok();
      },
      5 * sim::kSecond);

  auto v2 = MakeRemoteCarApp(testbed->options().phone_address);
  v2.version = "2.0";
  ASSERT_TRUE(testbed->server().UploadApp(v2).ok());
  ASSERT_TRUE(testbed->DeployRemoteCar().ok());
  auto latency = testbed->SendWheels(7);
  ASSERT_TRUE(latency.ok());
  EXPECT_EQ(testbed->last_wheels(), 7);
  EXPECT_EQ(testbed->vehicle().ecm()->FindPlugin("COM")->version(), "2.0");
}

// --- isolation ------------------------------------------------------------------------------

TEST_F(FesTest, MisbehavingSecondAppDoesNotBreakControlPath) {
  ASSERT_TRUE(testbed->DeployRemoteCar().ok());

  // A hostile app on ECU2 that spins forever on every step tick.
  server::App hostile;
  hostile.name = "hog";
  hostile.version = "1.0";
  server::PluginDecl plugin;
  plugin.name = "hog.p0";
  plugin.binary = AssembleOrDie(R"(
    .entry step spin
    spin:
    loop: JMP loop
  )");
  plugin.ports = {{0, "out", pirte::PluginPortDirection::kProvided}};
  hostile.plugins.push_back(std::move(plugin));
  server::SwConf conf;
  conf.vehicle_model = "rpi-testbed";
  conf.placements = {{"hog.p0", 2}};
  hostile.confs.push_back(std::move(conf));
  ASSERT_TRUE(testbed->server().UploadApp(hostile).ok());
  ASSERT_TRUE(testbed->server().Deploy(testbed->user(), "VIN-0001", "hog").ok());
  testbed->RunUntil(
      [&]() {
        auto state = testbed->server().AppState("VIN-0001", "hog");
        return state.ok() && *state == server::InstallState::kInstalled;
      },
      5 * sim::kSecond);

  // The fuel budget confines the hog; control commands still flow.
  for (int i = 1; i <= 5; ++i) {
    auto latency = testbed->SendWheels(i);
    ASSERT_TRUE(latency.ok()) << "command " << i;
  }
  EXPECT_EQ(testbed->last_wheels(), 5);
  auto* pirte2 = testbed->vehicle().FindPirte("PIRTE2");
  EXPECT_GE(pirte2->stats().vm_fuel_exhaustions, 1u);
  // The hog is still "running" — budget enforcement, not quarantine.
  EXPECT_EQ(pirte2->FindPlugin("hog.p0")->state(), pirte::PluginState::kRunning);
}

TEST_F(FesTest, BuiltInRunnablesKeepTheirCadenceUnderPluginLoad) {
  ASSERT_TRUE(testbed->DeployRemoteCar().ok());
  auto* ecu2 = testbed->vehicle().FindEcu(2);
  auto task = ecu2->ecu_os().FindTask("rte.MotorControl.MeasureSpeed");
  ASSERT_TRUE(task.ok());
  const auto before = ecu2->ecu_os().task_activations(*task);
  // Hammer the control path for one simulated second.
  for (int i = 0; i < 10; ++i) (void)testbed->SendWheels(i);
  const sim::SimTime horizon = testbed->simulator().Now() + sim::kSecond;
  testbed->simulator().RunUntil(horizon);
  const auto after = ecu2->ecu_os().task_activations(*task);
  // MeasureSpeed has a 100 ms period: ~10 activations per second regardless
  // of plug-in traffic (allow scheduling slack).
  EXPECT_GE(after - before, 8u);
}

TEST_F(FesTest, HostileValuesStopAtTheCriticalSignalGuards) {
  ASSERT_TRUE(testbed->DeployRemoteCar().ok());
  ASSERT_TRUE(testbed->SendWheels(10).ok());
  ASSERT_TRUE(testbed->SendSpeed(50).ok());

  // Out-of-range wheel angle: the guard clamps, the motor sees the bound.
  ASSERT_TRUE(testbed->SendWheels(9000).ok());
  EXPECT_EQ(testbed->last_wheels(), 45);
  EXPECT_GE(testbed->wheels_guard()->stats().clamped, 1u);

  // Out-of-range speed: the guard drops, the motor keeps the last safe value.
  (void)testbed->phone().Send("Speed", EncodeControl(-200));
  testbed->simulator().RunFor(200 * sim::kMillisecond);
  EXPECT_EQ(testbed->last_speed(), 50);
  EXPECT_GE(testbed->speed_guard()->stats().dropped_range, 1u);

  // Both violations are diagnosed on ECU2; the OP plug-in is not faulted.
  auto* ecu2 = testbed->vehicle().FindEcu(2);
  EXPECT_TRUE(*ecu2->dem().IsEventConfirmed(*ecu2->dem().FindEvent("guard.WheelsReq")));
  EXPECT_TRUE(*ecu2->dem().IsEventConfirmed(*ecu2->dem().FindEvent("guard.SpeedReq")));
  EXPECT_EQ(testbed->vehicle().FindPirte("PIRTE2")->FindPlugin("OP")->state(),
            pirte::PluginState::kRunning);

  // In-range traffic continues unharmed.
  ASSERT_TRUE(testbed->SendSpeed(80).ok());
  EXPECT_EQ(testbed->last_speed(), 80);
}

TEST_F(FesTest, GuardsCanBeDisabledByTheOem) {
  auto open = Figure3Testbed::Create([] {
    Figure3Options options;
    options.guard_critical_signals = false;
    return options;
  }());
  ASSERT_TRUE(open.ok());
  ASSERT_TRUE((*open)->SetUp().ok());
  ASSERT_TRUE((*open)->DeployRemoteCar().ok());
  ASSERT_TRUE((*open)->SendWheels(9000).ok());
  EXPECT_EQ((*open)->last_wheels(), 9000);  // nothing in the way
  EXPECT_EQ((*open)->wheels_guard(), nullptr);
}

// --- CAN fault injection -------------------------------------------------------------------

TEST_F(FesTest, InstallationSurvivesCorruptBusOnlyWhenCrcHolds) {
  testbed->vehicle().bus().SetCorruptRate(0.05);
  // Deployment may or may not complete depending on which frames got hit;
  // what must never happen is a corrupted package being installed.
  (void)testbed->server().Deploy(testbed->user(), "VIN-0001", "remote-car");
  testbed->simulator().RunFor(10 * sim::kSecond);
  auto* op = testbed->vehicle().FindPirte("PIRTE2")->FindPlugin("OP");
  if (op != nullptr) {
    // If it made it through, the binary was intact and the plug-in runs.
    EXPECT_EQ(op->state(), pirte::PluginState::kRunning);
  }
  auto state = testbed->server().AppState("VIN-0001", "remote-car");
  ASSERT_TRUE(state.ok());
  // Either fully acknowledged or still pending/failed — never a half state.
  EXPECT_TRUE(*state == server::InstallState::kInstalled ||
              *state == server::InstallState::kPending ||
              *state == server::InstallState::kFailed);
}

TEST_F(FesTest, CleanBusDeliversDespitePriorFaults) {
  testbed->vehicle().bus().SetCorruptRate(0.5);
  (void)testbed->server().Deploy(testbed->user(), "VIN-0001", "remote-car");
  testbed->simulator().RunFor(5 * sim::kSecond);
  testbed->vehicle().bus().SetCorruptRate(0.0);
  // Repair: restore re-pushes the identical packages.
  auto install_state = testbed->server().AppState("VIN-0001", "remote-car");
  ASSERT_TRUE(install_state.ok());
  if (*install_state != server::InstallState::kInstalled) {
    // Re-push to the possibly half-provisioned ECUs; duplicates nack but
    // the missing plug-in lands.
    (void)testbed->server().Restore(testbed->user(), "VIN-0001", 1);
    (void)testbed->server().Restore(testbed->user(), "VIN-0001", 2);
    testbed->simulator().RunFor(5 * sim::kSecond);
  }
  EXPECT_NE(testbed->vehicle().FindPirte("PIRTE2")->FindPlugin("OP"), nullptr);
}

// --- watchdog supervision ----------------------------------------------------------------------

TEST_F(FesTest, WatchdogSupervisesTheVmTask) {
  auto* ecu2 = testbed->vehicle().FindEcu(2);
  auto event = ecu2->dem().DefineEvent("wd.vm");
  ASSERT_TRUE(event.ok());
  bsw::Watchdog watchdog(testbed->simulator(), ecu2->dem(), 500 * sim::kMillisecond);
  // The VM only runs when plug-ins have work, so supervise with min_alive 0
  // inverted: here we demand at least one activation per cycle and feed it
  // via the step scheduler — absence of plug-ins must trip the watchdog.
  auto entity = watchdog.Register("PIRTE2.vm", 1, 1, *event);
  ASSERT_TRUE(entity.ok());
  testbed->vehicle().FindPirte("PIRTE2")->SetAliveHook(
      [&]() { (void)watchdog.ReportAlive(*entity); });
  watchdog.Start();

  // No plug-ins installed -> no VM activity -> supervision expires.
  testbed->simulator().RunFor(3 * sim::kSecond);
  EXPECT_TRUE(*watchdog.Expired(*entity));
  EXPECT_TRUE(*ecu2->dem().IsEventConfirmed(*event));
}

// --- multi-vehicle federation ----------------------------------------------------------------------

TEST(FleetTest, TwoVehiclesShareOneServerIndependently) {
  sim::Simulator simulator;
  sim::Network network(simulator, 10 * sim::kMillisecond);
  server::TrustedServer server(network, "fleet-server:443");
  ASSERT_TRUE(server.Start().ok());
  ASSERT_TRUE(server.UploadVehicleModel(MakeRpiTestbedConf()).ok());

  auto build_vehicle = [&](const std::string& vin) {
    auto vehicle = std::make_unique<Vehicle>(
        simulator, network, VehicleParams{vin, "rpi-testbed", 500'000});
    Ecu& ecu1 = vehicle->AddEcu(1, vin + ".ECU1");
    auto p1 = vehicle->AddPluginSwc(ecu1, "PIRTE1");
    EXPECT_TRUE(p1.ok());
    EXPECT_TRUE(vehicle->DesignateEcm(**p1, "fleet-server:443").ok());
    EXPECT_TRUE(vehicle->Finalize().ok());
    return vehicle;
  };
  auto car_a = build_vehicle("VIN-A");
  auto car_b = build_vehicle("VIN-B");
  simulator.RunFor(2 * sim::kSecond);
  ASSERT_TRUE(server.VehicleOnline("VIN-A"));
  ASSERT_TRUE(server.VehicleOnline("VIN-B"));

  auto alice = server.CreateUser("alice");
  auto bob = server.CreateUser("bob");
  ASSERT_TRUE(server.BindVehicle(*alice, "VIN-A", "rpi-testbed").ok());
  ASSERT_TRUE(server.BindVehicle(*bob, "VIN-B", "rpi-testbed").ok());

  SyntheticAppParams params;
  params.name = "fleet-app";
  params.vehicle_model = "rpi-testbed";
  params.target_ecu = 1;
  ASSERT_TRUE(server.UploadApp(MakeSyntheticApp(params)).ok());

  // Deploy only to A.
  ASSERT_TRUE(server.Deploy(*alice, "VIN-A", "fleet-app").ok());
  simulator.RunFor(2 * sim::kSecond);
  EXPECT_EQ(*server.AppState("VIN-A", "fleet-app"), server::InstallState::kInstalled);
  EXPECT_FALSE(server.AppState("VIN-B", "fleet-app").ok());
  EXPECT_NE(car_a->ecm()->FindPlugin("fleet-app.p0"), nullptr);
  EXPECT_EQ(car_b->ecm()->FindPlugin("fleet-app.p0"), nullptr);

  // Then to B; both run independently.
  ASSERT_TRUE(server.Deploy(*bob, "VIN-B", "fleet-app").ok());
  simulator.RunFor(2 * sim::kSecond);
  EXPECT_EQ(*server.AppState("VIN-B", "fleet-app"), server::InstallState::kInstalled);
  EXPECT_NE(car_b->ecm()->FindPlugin("fleet-app.p0"), nullptr);
}

TEST(FleetTest, CampaignBatchReachesRealEcmsAndInstalls) {
  // A campaign against *real* vehicles: the kInstallBatch arrives
  // at each ECM, is unpacked into per-plug-in installs, routed, executed
  // and acknowledged plug-in by plug-in — the server's row must converge
  // to kInstalled exactly as with individual pushes.
  sim::Simulator simulator;
  sim::Network network(simulator, 10 * sim::kMillisecond);
  server::TrustedServer server(network, "fleet-server:443");
  ASSERT_TRUE(server.Start().ok());
  ASSERT_TRUE(server.UploadVehicleModel(MakeRpiTestbedConf()).ok());

  auto build_vehicle = [&](const std::string& vin) {
    auto vehicle = std::make_unique<Vehicle>(
        simulator, network, VehicleParams{vin, "rpi-testbed", 500'000});
    Ecu& ecu1 = vehicle->AddEcu(1, vin + ".ECU1");
    auto p1 = vehicle->AddPluginSwc(ecu1, "PIRTE1");
    EXPECT_TRUE(p1.ok());
    EXPECT_TRUE(vehicle->DesignateEcm(**p1, "fleet-server:443").ok());
    EXPECT_TRUE(vehicle->Finalize().ok());
    return vehicle;
  };
  std::vector<std::unique_ptr<Vehicle>> cars;
  std::vector<std::string> vins = {"VIN-CA", "VIN-CB", "VIN-CC"};
  for (const std::string& vin : vins) cars.push_back(build_vehicle(vin));
  simulator.RunFor(2 * sim::kSecond);

  auto alice = server.CreateUser("alice");
  ASSERT_TRUE(alice.ok());
  for (const std::string& vin : vins) {
    ASSERT_TRUE(server.BindVehicle(*alice, vin, "rpi-testbed").ok());
    ASSERT_TRUE(server.VehicleOnline(vin));
  }

  SyntheticAppParams params;
  params.name = "campaign-app";
  params.vehicle_model = "rpi-testbed";
  params.plugin_count = 2;
  params.target_ecu = 1;
  ASSERT_TRUE(server.UploadApp(MakeSyntheticApp(params)).ok());

  auto report = server.DeployCampaign(*alice, "campaign-app", vins);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(report->deployed, 3u);
  EXPECT_EQ(report->rejected, 0u);
  simulator.RunFor(2 * sim::kSecond);

  for (std::size_t i = 0; i < vins.size(); ++i) {
    EXPECT_EQ(*server.AppState(vins[i], "campaign-app"),
              server::InstallState::kInstalled)
        << vins[i];
    EXPECT_NE(cars[i]->ecm()->FindPlugin("campaign-app.p0"), nullptr);
    EXPECT_NE(cars[i]->ecm()->FindPlugin("campaign-app.p1"), nullptr);
  }
  // One batched push per vehicle.
  EXPECT_EQ(server.stats().packages_pushed, 3u);
}

TEST(FleetTest, ShardedCampaignIsDeterministicAcrossRuns) {
  // Two identical campaigns must produce identical event traces:
  // delivered-message counts, final states and the ack completion order
  // match a fresh run exactly.
  auto run_once = [] {
    sim::Simulator simulator;
    sim::Network network(simulator, sim::kMillisecond);
    server::TrustedServer server(network, "srv:443");
    EXPECT_TRUE(server.Start().ok());
    EXPECT_TRUE(server.UploadVehicleModel(MakeRpiTestbedConf()).ok());
    auto user = *server.CreateUser("u");
    ScriptedFleetOptions options;
    options.vehicle_count = 32;
    ScriptedFleet fleet(simulator, network, server, options);
    EXPECT_TRUE(fleet.BindAndConnect(user).ok());
    SyntheticAppParams params;
    params.name = "det-app";
    params.vehicle_model = "rpi-testbed";
    params.plugin_count = 2;
    params.target_ecu = 1;
    EXPECT_TRUE(server.UploadApp(MakeSyntheticApp(params)).ok());

    // Record the *order* acknowledgements complete on the simulation
    // thread — aggregate counters alone would not notice a reordering.
    std::vector<std::string> ack_order;
    support::Log::SetSink([&ack_order](support::LogLevel, std::string_view,
                                       std::string_view message) {
      if (message.find("fully acknowledged") != std::string_view::npos) {
        ack_order.emplace_back(message);
      }
    });
    support::Log::SetLevel(support::LogLevel::kInfo);
    EXPECT_TRUE(server.DeployCampaign(user, "det-app", fleet.vins()).ok());
    simulator.Run();
    support::Log::SetLevel(support::LogLevel::kOff);
    support::Log::SetSink(nullptr);
    EXPECT_EQ(ack_order.size(), 32u);
    return std::tuple(network.messages_delivered(), simulator.Now(),
                      server.stats().acks_received, server.stats().deploys_ok,
                      ack_order);
  };
  const auto a = run_once();
  const auto b = run_once();
  EXPECT_EQ(a, b);
}

TEST(FleetTest, FederatedTelemetryFlowsVehicleToDevice) {
  // A vehicle-resident plug-in publishes a counter outbound to an external
  // FES participant — the reverse direction of the remote-control demo.
  sim::Simulator simulator;
  sim::Network network(simulator, 10 * sim::kMillisecond);
  server::TrustedServer server(network, "srv:443");
  ASSERT_TRUE(server.Start().ok());
  ExternalDevice dashboard(network, "dash:80");
  ASSERT_TRUE(dashboard.Start().ok());
  std::vector<std::int32_t> readings;
  dashboard.SetFrameHandler([&](const std::string& id, const support::Bytes& payload) {
    if (id == "Telemetry" && !payload.empty()) readings.push_back(payload[0]);
  });

  auto model = MakeRpiTestbedConf();
  ASSERT_TRUE(server.UploadVehicleModel(model).ok());

  Vehicle vehicle(simulator, network, VehicleParams{"VIN-T", "rpi-testbed", 500'000});
  Ecu& ecu1 = vehicle.AddEcu(1, "ECU1");
  auto p1 = vehicle.AddPluginSwc(ecu1, "PIRTE1");
  ASSERT_TRUE(p1.ok());
  (*p1)->SetStepPeriod(100 * sim::kMillisecond);
  ASSERT_TRUE(vehicle.DesignateEcm(**p1, "srv:443").ok());
  ASSERT_TRUE(vehicle.Finalize().ok());
  simulator.RunFor(sim::kSecond);
  ASSERT_TRUE(server.VehicleOnline("VIN-T"));

  server::App app;
  app.name = "telemetry";
  app.version = "1.0";
  server::PluginDecl plugin;
  plugin.name = "reporter";
  plugin.binary = MakeCounterPluginBinary();  // step: counter -> port 0
  plugin.ports = {{0, "count", pirte::PluginPortDirection::kProvided}};
  app.plugins.push_back(std::move(plugin));
  server::SwConf conf;
  conf.vehicle_model = "rpi-testbed";
  conf.placements = {{"reporter", 1}};
  server::ConnectionDecl out;
  out.plugin = "reporter";
  out.local_port = 0;
  out.target = server::ConnectionDecl::Target::kExternalOut;
  out.endpoint = "dash:80";
  out.message_id = "Telemetry";
  conf.connections.push_back(out);
  app.confs.push_back(std::move(conf));
  ASSERT_TRUE(server.UploadApp(app).ok());

  auto user = server.CreateUser("carol");
  ASSERT_TRUE(server.BindVehicle(*user, "VIN-T", "rpi-testbed").ok());
  ASSERT_TRUE(server.Deploy(*user, "VIN-T", "telemetry").ok());
  simulator.RunFor(3 * sim::kSecond);

  ASSERT_GE(readings.size(), 3u);
  // Monotone counter values prove ordered outbound delivery.
  for (std::size_t i = 1; i < readings.size(); ++i) {
    EXPECT_GT(readings[i], readings[i - 1]);
  }
  EXPECT_GE(vehicle.ecm()->ecm_stats().external_out, readings.size());
}

}  // namespace
}  // namespace dacm::fes
