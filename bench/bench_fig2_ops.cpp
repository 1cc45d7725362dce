// FIG2-B — uninstall and restore operations (paper §3.2.2).
//
// Uninstall consults the InstalledAPP table for dependents before pushing
// the removal batch; restore filters the table by the replaced ECU and
// re-pushes the recorded packages.  Both should scale gracefully with the
// installed-app population and with dependency-chain depth.
#include <benchmark/benchmark.h>

#include "bench_common.hpp"

namespace dacm::bench {
namespace {

struct OpsBench {
  sim::Simulator simulator;
  sim::Network network{simulator, sim::kMicrosecond};
  server::TrustedServer server{network, "srv:443"};
  server::UserId user = server::UserId::Invalid();
  std::unique_ptr<fes::ScriptedFleet> vehicle;
  std::string vin;

  OpsBench() {
    (void)server.Start();
    (void)server.UploadVehicleModel(fes::MakeRpiTestbedConf());
    user = *server.CreateUser("bench");
    vehicle = ConnectScriptedVehicle(simulator, network, server, user);
    vin = vehicle->vins()[0];
  }

  support::Status UploadAndDeploy(const std::string& name,
                                  std::vector<std::string> depends = {}) {
    fes::SyntheticAppParams params;
    params.name = name;
    params.vehicle_model = "rpi-testbed";
    params.target_ecu = 1;
    params.depends_on = std::move(depends);
    DACM_RETURN_IF_ERROR(server.UploadApp(fes::MakeSyntheticApp(params)));
    DACM_RETURN_IF_ERROR(server.Deploy(user, vin, name));
    simulator.Run();
    return support::OkStatus();
  }
};

// Uninstall/redeploy cycle of a leaf app vs total installed apps (the
// dependent scan walks the whole table).
void BM_UninstallVsInstalledApps(benchmark::State& state) {
  OpsBench bench;
  for (int i = 0; i < state.range(0); ++i) {
    if (!OkOrSkip(state, bench.UploadAndDeploy("filler" + std::to_string(i)))) {
      return;
    }
  }
  if (!OkOrSkip(state, bench.UploadAndDeploy("leaf"))) return;
  for (auto _ : state) {
    if (!OkOrSkip(state, bench.server.UninstallApp(bench.user, bench.vin,
                                                   "leaf"))) {
      break;
    }
    bench.simulator.Run();
    if (!OkOrSkip(state, bench.server.Deploy(bench.user, bench.vin, "leaf"))) {
      break;
    }
    bench.simulator.Run();
  }
  state.counters["installed_apps"] = static_cast<double>(state.range(0));
}
// The axis stops at 127 fillers: an ECU has 256 port ids, each app here
// claims two, and the leaf needs the last two.
BENCHMARK(BM_UninstallVsInstalledApps)->Arg(4)->Arg(32)->Arg(127);

// The dependency guard at work: attempting to uninstall the root of a
// dependency chain of depth D (always rejected; measures the dependent
// check, which must name the blocking apps).
void BM_UninstallBlockedByChain(benchmark::State& state) {
  OpsBench bench;
  const int depth = static_cast<int>(state.range(0));
  if (!OkOrSkip(state, bench.UploadAndDeploy("chain0"))) return;
  for (int i = 1; i < depth; ++i) {
    if (!OkOrSkip(state,
                  bench.UploadAndDeploy("chain" + std::to_string(i),
                                        {"chain" + std::to_string(i - 1)}))) {
      return;
    }
  }
  for (auto _ : state) {
    auto status = bench.server.UninstallApp(bench.user, bench.vin, "chain0");
    if (status.code() != support::ErrorCode::kDependencyViolation) {
      state.SkipWithError(
          ("expected kDependencyViolation, got " + status.ToString()).c_str());
      break;
    }
    benchmark::DoNotOptimize(status);
  }
  state.counters["chain_depth"] = static_cast<double>(depth);
}
BENCHMARK(BM_UninstallBlockedByChain)->Arg(2)->Arg(4)->Arg(8);

// Restore after ECU replacement vs the number of apps recorded on that
// ECU (each one re-pushed from its stored package bytes).
void BM_RestoreVsAppsOnEcu(benchmark::State& state) {
  OpsBench bench;
  for (int i = 0; i < state.range(0); ++i) {
    if (!OkOrSkip(state, bench.UploadAndDeploy("app" + std::to_string(i)))) {
      return;
    }
  }
  for (auto _ : state) {
    if (!OkOrSkip(state, bench.server.Restore(bench.user, bench.vin, 1))) break;
    bench.simulator.Run();  // scripted acks flip rows back to kInstalled
  }
  state.counters["apps_on_ecu"] = static_cast<double>(state.range(0));
  state.counters["packages_pushed"] =
      static_cast<double>(bench.server.stats().packages_pushed);
}
BENCHMARK(BM_RestoreVsAppsOnEcu)->Arg(1)->Arg(8)->Arg(32)->Arg(64);

}  // namespace
}  // namespace dacm::bench

DACM_BENCH_MAIN();
