// FIG2-A — trusted-server deploy pipeline (paper Figure 2, §3.2.2).
//
// "The trusted server acts as a central point of intelligence, performing
// compatibility checks and generating the different types of context."
//
// Measures the full Deploy() pipeline — compatibility check, dependency /
// conflict check, PIC/PLC/ECC generation, package assembly, push — as a
// function of:
//   * the number of already-installed apps on the vehicle (id allocation
//     and dependency checks consult the InstalledAPP table);
//   * the app's plug-in count;
//   * the ports per plug-in.
//
// Expected shape: near-linear in plug-ins x ports; interactive (micro- to
// millisecond scale) even at hundreds of installed apps.
#include <benchmark/benchmark.h>

#include "bench_common.hpp"

namespace dacm::bench {
namespace {

struct ServerBench {
  sim::Simulator simulator;
  sim::Network network{simulator, sim::kMicrosecond};
  server::TrustedServer server{network, "srv:443"};
  server::UserId user = server::UserId::Invalid();
  std::unique_ptr<fes::ScriptedFleet> vehicle;
  std::string vin;

  ServerBench() {
    (void)server.Start();
    (void)server.UploadVehicleModel(fes::MakeRpiTestbedConf());
    user = *server.CreateUser("bench");
    vehicle = ConnectScriptedVehicle(simulator, network, server, user);
    vin = vehicle->vins()[0];
  }

  server::App SyntheticApp(const std::string& name, std::uint32_t plugins,
                           std::uint32_t ports) {
    fes::SyntheticAppParams params;
    params.name = name;
    params.vehicle_model = "rpi-testbed";
    params.plugin_count = plugins;
    params.ports_per_plugin = ports;
    params.target_ecu = 1;
    return fes::MakeSyntheticApp(params);
  }

  support::Status Preinstall(int count, std::uint32_t ports_per_plugin = 2) {
    for (int i = 0; i < count; ++i) {
      const std::string name = "pre" + std::to_string(i);
      DACM_RETURN_IF_ERROR(
          server.UploadApp(SyntheticApp(name, 1, ports_per_plugin)));
      DACM_RETURN_IF_ERROR(server.Deploy(user, vin, name));
      simulator.Run();  // scripted vehicle acks instantly
    }
    return support::OkStatus();
  }

  /// One timed deploy + uninstall of "probe"; false (benchmark errored)
  /// on a failed call.
  bool DeployUninstallCycle(benchmark::State& state) {
    if (!OkOrSkip(state, server.Deploy(user, vin, "probe"))) return false;
    simulator.Run();
    if (!OkOrSkip(state, server.UninstallApp(user, vin, "probe"))) return false;
    simulator.Run();
    return true;
  }
};

// Deploy+undeploy cycle cost vs installed-app count (id allocation scans
// the occupied-id set; dependency checks scan InstalledAPP).
void BM_DeployVsInstalledApps(benchmark::State& state) {
  ServerBench bench;
  if (!OkOrSkip(state, bench.Preinstall(static_cast<int>(state.range(0))))) {
    return;
  }
  (void)bench.server.UploadApp(bench.SyntheticApp("probe", 1, 2));
  for (auto _ : state) {
    if (!bench.DeployUninstallCycle(state)) break;
  }
  state.counters["installed_apps"] = static_cast<double>(state.range(0));
}
// The axis stops at 127 preinstalled apps: an ECU has 256 port ids, each
// app here claims two, and the probe needs the last two.
BENCHMARK(BM_DeployVsInstalledApps)->Arg(1)->Arg(16)->Arg(64)->Arg(127);

// Deploy cost vs plug-in count of the deployed app (one package generated
// per plug-in, all pushed in one batch).
void BM_DeployVsPluginCount(benchmark::State& state) {
  ServerBench bench;
  (void)bench.server.UploadApp(bench.SyntheticApp(
      "probe", static_cast<std::uint32_t>(state.range(0)), 2));
  for (auto _ : state) {
    if (!bench.DeployUninstallCycle(state)) break;
  }
  state.counters["plugins"] = static_cast<double>(state.range(0));
  state.counters["packages_pushed"] =
      static_cast<double>(bench.server.stats().packages_pushed);
}
BENCHMARK(BM_DeployVsPluginCount)->Arg(1)->Arg(2)->Arg(4)->Arg(8);

// Deploy cost vs ports per plug-in (PIC/PLC size).
void BM_DeployVsPortCount(benchmark::State& state) {
  ServerBench bench;
  (void)bench.server.UploadApp(bench.SyntheticApp(
      "probe", 1, static_cast<std::uint32_t>(state.range(0))));
  for (auto _ : state) {
    if (!bench.DeployUninstallCycle(state)) break;
  }
  state.counters["ports_per_plugin"] = static_cast<double>(state.range(0));
}
BENCHMARK(BM_DeployVsPortCount)->Arg(2)->Arg(4)->Arg(8)->Arg(16);

// Rejected deploys (the compatibility checker's fast path): how quickly
// the server turns down an incompatible request.
void BM_DeployRejection(benchmark::State& state) {
  ServerBench bench;
  auto app = bench.SyntheticApp("needsvp", 1, 2);
  app.confs[0].required_virtual_ports = {"NoSuchPort"};
  (void)bench.server.UploadApp(app);
  for (auto _ : state) {
    auto status = bench.server.Deploy(bench.user, bench.vin, "needsvp");
    if (status.code() != support::ErrorCode::kIncompatible) {
      state.SkipWithError(("expected kIncompatible, got " + status.ToString())
                              .c_str());
      break;
    }
    benchmark::DoNotOptimize(status);
  }
}
BENCHMARK(BM_DeployRejection);

}  // namespace
}  // namespace dacm::bench

DACM_BENCH_MAIN();
