// Over-the-air update + workshop restore + retrying fleet campaign.
//
// Walks the remaining life-cycle operations of the paper's Section 3.2.2:
//
//   1. deploy v1.0 of an app;
//   2. update: the paper mandates "a plug-in to be stopped before being
//      updated, and then restarted fresh" — modelled as uninstall + deploy
//      of the uploaded v2.0;
//   3. dependency guard: an add-on app that depends on the base app blocks
//      the base's uninstallation;
//   4. restore: after a (simulated) physical ECU replacement in a
//      workshop, the server re-pushes the recorded packages of every
//      plug-in placed on that ECU;
//   5. fleet scale-out: a retrying multi-wave campaign (CampaignEngine)
//      converges a 24-vehicle fleet over a flapping WAN with an offline
//      cohort, then a rollback campaign takes the app off again — the
//      convergence report prints waves, retries and the injected faults.
//
// Run: ./build/examples/ota_update
#include <algorithm>
#include <cstdio>

#include "fes/appgen.hpp"
#include "fes/fleet.hpp"
#include "fes/testbed.hpp"
#include "server/campaign.hpp"
#include "sim/fault.hpp"

using namespace dacm;

namespace {

void Show(fes::Figure3Testbed& testbed, const char* app, const char* when) {
  auto state = testbed.server().AppState("VIN-0001", app);
  const std::string name =
      state.ok() ? std::string(server::InstallStateName(*state)) : "(not installed)";
  std::printf("  [%-22s] %-10s: %s\n", when, app, name.c_str());
}

bool WaitInstalled(fes::Figure3Testbed& testbed, const char* app) {
  return testbed.RunUntil(
      [&]() {
        auto state = testbed.server().AppState("VIN-0001", app);
        return state.ok() && *state == server::InstallState::kInstalled;
      },
      5 * sim::kSecond);
}

void PrintCampaignReport(const char* what, server::CampaignEngine& engine,
                         server::CampaignId id) {
  auto snapshot = *engine.Snapshot(id);
  std::printf("  %s: %s after %zu wave(s), %llu push(es) for %zu vehicles\n",
              what, std::string(server::CampaignStatusName(snapshot.status)).c_str(),
              snapshot.waves_pushed,
              static_cast<unsigned long long>(snapshot.total_pushes),
              snapshot.rows);
  std::printf("    rows: done=%zu failed=%zu (pending=%zu pushed=%zu offline=%zu)\n",
              snapshot.done, snapshot.failed, snapshot.pending, snapshot.pushed,
              snapshot.offline);
  auto times = *engine.TimesToDone(id);
  if (!times.empty()) {
    std::sort(times.begin(), times.end());
    std::printf("    time-to-installed: median %.0f ms, worst %.0f ms (sim time)\n",
                static_cast<double>(times[times.size() / 2]) / sim::kMillisecond,
                static_cast<double>(times.back()) / sim::kMillisecond);
  }
}

// Section 5: a fleet-wide rollout that has to *converge*, not just push.
int RunRetryingCampaign() {
  std::printf("\n=== 5. retrying fleet campaign over a flapping WAN ===\n\n");

  sim::Simulator simulator;
  sim::Network network(simulator, sim::kMillisecond);
  server::TrustedServer server(network, "fleet:443");
  if (!server.Start().ok()) return 1;
  if (!server.UploadVehicleModel(fes::MakeRpiTestbedConf()).ok()) return 1;
  auto user = server.CreateUser("fleet-ops");
  if (!user.ok()) return 1;

  fes::ScriptedFleetOptions fleet_options;
  fleet_options.vehicle_count = 24;
  fes::ScriptedFleet fleet(simulator, network, server, fleet_options);
  if (!fleet.BindAndConnect(*user).ok()) return 1;

  fes::SyntheticAppParams params;
  params.name = "nav-maps";
  params.vehicle_model = "rpi-testbed";
  params.plugin_count = 2;
  params.target_ecu = 1;
  if (!server.UploadApp(fes::MakeSyntheticApp(params)).ok()) return 1;

  // The fault matrix, drawn deterministically from one seed: a quarter of
  // the fleet is dark when the campaign starts, and the WAN flaps twice
  // mid-rollout.
  sim::FaultScenario faults(simulator, network, /*seed=*/42);
  faults.AddOfflineChurn(fleet, /*fraction=*/0.25, /*horizon=*/0,
                         100 * sim::kMillisecond, 300 * sim::kMillisecond);
  faults.AddRandomLinkFlaps(/*count=*/2, /*horizon=*/300 * sim::kMillisecond,
                            20 * sim::kMillisecond, 60 * sim::kMillisecond);
  std::printf("Injected faults (seed 42):\n");
  for (const sim::FaultEvent& event : faults.timeline()) {
    std::printf("  t=%4.0f ms  %s\n",
                static_cast<double>(event.at) / sim::kMillisecond,
                event.description.c_str());
  }

  server::RetryPolicy policy;
  policy.max_waves = 8;
  policy.settle_delay = 50 * sim::kMillisecond;
  policy.initial_backoff = 200 * sim::kMillisecond;

  server::CampaignEngine engine(simulator, server);
  auto deploy = engine.StartDeploy(*user, "nav-maps", fleet.vins(), policy);
  if (!deploy.ok()) return 1;
  simulator.Run();
  std::printf("\nConvergence report:\n");
  PrintCampaignReport("deploy nav-maps", engine, *deploy);
  const auto stats = server.stats();
  std::printf("    server: pushed=%llu repushes=%llu acks=%llu reaped=%llu\n",
              static_cast<unsigned long long>(stats.packages_pushed),
              static_cast<unsigned long long>(stats.repushes),
              static_cast<unsigned long long>(stats.acks_received),
              static_cast<unsigned long long>(stats.connections_reaped));

  // And back off again: a rollback campaign (batched uninstalls) on the
  // same fleet.
  auto rollback = engine.StartRollback(*user, "nav-maps", fleet.vins(), policy);
  if (!rollback.ok()) return 1;
  simulator.Run();
  PrintCampaignReport("rollback nav-maps", engine, *rollback);
  std::printf("    apps left on %s: %zu\n", fleet.vins()[0].c_str(),
              server.InstalledApps(fleet.vins()[0]).size());
  return 0;
}

}  // namespace

int main() {
  std::printf("=== OTA update / dependency guard / workshop restore ===\n\n");

  auto created = fes::Figure3Testbed::Create();
  if (!created.ok()) return 1;
  auto& testbed = **created;
  if (!testbed.SetUp().ok()) return 1;

  // --- 1. deploy v1.0 ----------------------------------------------------------
  if (!testbed.DeployRemoteCar().ok()) return 1;
  Show(testbed, "remote-car", "deployed v1.0");
  std::printf("  COM version on ECM: %s\n\n",
              testbed.vehicle().ecm()->FindPlugin("COM")->version().c_str());

  // --- 2. update to v2.0 ---------------------------------------------------------
  auto v2 = fes::MakeRemoteCarApp(testbed.options().phone_address);
  v2.version = "2.0";
  if (!testbed.server().UploadApp(v2).ok()) return 1;
  std::printf("Uploaded remote-car v2.0 (replaces stored v1.0).\n");

  if (!testbed.server().UninstallApp(testbed.user(), "VIN-0001", "remote-car").ok()) {
    return 1;
  }
  testbed.RunUntil(
      [&]() { return !testbed.server().AppState("VIN-0001", "remote-car").ok(); },
      5 * sim::kSecond);
  Show(testbed, "remote-car", "after uninstall");

  if (!testbed.DeployRemoteCar().ok()) return 1;
  Show(testbed, "remote-car", "redeployed");
  std::printf("  COM version on ECM: %s\n",
              testbed.vehicle().ecm()->FindPlugin("COM")->version().c_str());
  auto latency = testbed.SendWheels(42);
  std::printf("  control path intact: wheels=42 in %.2f ms\n\n",
              latency.ok() ? static_cast<double>(*latency) / sim::kMillisecond : -1.0);

  // --- 3. dependency guard ----------------------------------------------------------
  fes::SyntheticAppParams params;
  params.name = "lane-assist";
  params.vehicle_model = "rpi-testbed";
  params.target_ecu = 2;
  params.depends_on = {"remote-car"};
  if (!testbed.server().UploadApp(fes::MakeSyntheticApp(params)).ok()) return 1;
  if (!testbed.server().Deploy(testbed.user(), "VIN-0001", "lane-assist").ok()) return 1;
  WaitInstalled(testbed, "lane-assist");
  Show(testbed, "lane-assist", "deployed add-on");

  auto blocked = testbed.server().UninstallApp(testbed.user(), "VIN-0001", "remote-car");
  std::printf("  uninstall remote-car while lane-assist depends on it:\n    -> %s\n\n",
              blocked.ToString().c_str());

  // --- 4. workshop restore -----------------------------------------------------------
  // ECU2 is "replaced": its PIRTE loses all plug-ins (we simulate by
  // uninstalling locally, behind the server's back — exactly the state a
  // fresh ECU would be in).
  auto* pirte2 = testbed.vehicle().FindPirte("PIRTE2");
  for (const auto& name : pirte2->InstalledPluginNames()) {
    (void)pirte2->Uninstall(name);
  }
  std::printf("ECU2 replaced in the workshop; plug-ins on PIRTE2: %zu\n",
              pirte2->InstalledPluginNames().size());

  if (auto status = testbed.server().Restore(testbed.user(), "VIN-0001", 2);
      !status.ok()) {
    std::fprintf(stderr, "restore failed: %s\n", status.ToString().c_str());
    return 1;
  }
  WaitInstalled(testbed, "remote-car");
  std::printf("Server restore re-pushed recorded packages for ECU2.\n");
  std::printf("  plug-ins on PIRTE2 after restore: %zu\n",
              pirte2->InstalledPluginNames().size());
  latency = testbed.SendWheels(7);
  std::printf("  control path intact: wheels=7 in %.2f ms\n",
              latency.ok() ? static_cast<double>(*latency) / sim::kMillisecond : -1.0);

  if (int rc = RunRetryingCampaign(); rc != 0) return rc;

  std::printf("\nDone.\n");
  return 0;
}
