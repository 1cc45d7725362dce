// Shared fixtures for the figure benchmarks.
//
// BenchStack — a single-ECU plug-in SW-C with a loopback Type II channel
// and a Type III virtual-port pair, mirroring the unit-test harness: the
// cheapest complete environment in which every PLC routing kind can be
// exercised.
//
// ConnectScriptedVehicle — one scripted ECM endpoint for server
// benchmarks (a fes::ScriptedFleet of one): it acks every push at once, so
// benchmarks measure the server pipeline, not the vehicle.  OkOrSkip
// stops a benchmark on the first failed server call instead of timing
// rejections.
//
// DACM_BENCH_MAIN — the shared driver entry point.  On top of the stock
// Google Benchmark flags it understands:
//   --json          emit JSON results on stdout (instead of the console table)
//   --json=PATH     keep the console table, write JSON results to PATH
//   --metrics       dump the Prometheus text exposition of the process-wide
//                   metrics registry on stderr after the run
//   --metrics=PATH  write the registry's JSON snapshot (counters, gauges,
//                   histogram quantiles) to PATH after the run
// The `bench_all` CMake target uses `--json=PATH` to aggregate every bench
// binary's output into BENCH_results.json; the CI metrics-smoke step greps
// `--metrics` output for the required metric families.
#pragma once

#include <benchmark/benchmark.h>

#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "bsw/nvm.hpp"
#include "fes/appgen.hpp"
#include "fes/ecu.hpp"
#include "fes/fleet.hpp"
#include "fes/testbed.hpp"
#include "pirte/pirte.hpp"
#include "server/server.hpp"
#include "sim/network.hpp"
#include "support/metrics.hpp"

namespace dacm::bench {

/// Driver entry point: translates the `--json[=PATH]` convenience flag
/// into the underlying benchmark reporter flags, then runs as usual.
inline int BenchMain(int argc, char** argv) {
  std::vector<std::string> args;
  bool metrics_text = false;
  std::string metrics_json_path;
  args.reserve(static_cast<std::size_t>(argc) + 1);
  args.emplace_back(argc > 0 ? argv[0] : "bench");
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--json") {
      args.emplace_back("--benchmark_format=json");
    } else if (arg.rfind("--json=", 0) == 0) {
      args.emplace_back("--benchmark_out=" + arg.substr(sizeof("--json=") - 1));
      args.emplace_back("--benchmark_out_format=json");
    } else if (arg == "--metrics") {
      metrics_text = true;
    } else if (arg.rfind("--metrics=", 0) == 0) {
      metrics_json_path = arg.substr(sizeof("--metrics=") - 1);
    } else {
      args.emplace_back(arg);
    }
  }
  std::vector<char*> argv2;
  argv2.reserve(args.size());
  for (std::string& s : args) argv2.push_back(s.data());
  int argc2 = static_cast<int>(argv2.size());
  benchmark::Initialize(&argc2, argv2.data());
  if (benchmark::ReportUnrecognizedArguments(argc2, argv2.data())) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  // Registry dumps after the run, cumulative over every benchmark that
  // executed.  Text goes to stderr so `--json` stdout stays parseable.
  if (metrics_text) {
    const std::string exposition = support::Metrics::Instance().TextExposition();
    std::fwrite(exposition.data(), 1, exposition.size(), stderr);
  }
  if (!metrics_json_path.empty()) {
    std::FILE* out = std::fopen(metrics_json_path.c_str(), "wb");
    if (out == nullptr) {
      std::fprintf(stderr, "cannot write metrics snapshot to %s\n",
                   metrics_json_path.c_str());
      return 1;
    }
    const std::string json = support::Metrics::Instance().Json();
    std::fwrite(json.data(), 1, json.size(), out);
    std::fputc('\n', out);
    std::fclose(out);
  }
  return 0;
}

#define DACM_BENCH_MAIN()                      \
  int main(int argc, char** argv) {            \
    return ::dacm::bench::BenchMain(argc, argv); \
  }

class BenchStack {
 public:
  sim::Simulator simulator;
  sim::CanBus bus{simulator, 500'000};
  fes::Ecu ecu{simulator, bus, 1, "ECU1"};
  bsw::Nvm nvm;
  std::unique_ptr<pirte::Pirte> pirte;
  rte::PortId native_out, native_in;     // built-in S/R baseline pair
  rte::PortId drv_sensor, mon_act;       // harness ends of the Type III ports

  explicit BenchStack(std::size_t max_plugins = 64) {
    rte::Rte& rte = ecu.ecu_rte();
    auto plug_swc = *rte.AddSwc("Plug");
    auto harness_swc = *rte.AddSwc("Harness");

    auto add_port = [&](rte::SwcId swc, const char* name, rte::PortDirection dir) {
      rte::PortConfig config;
      config.name = name;
      config.direction = dir;
      config.max_len = 4096;
      return *rte.AddPort(swc, std::move(config));
    };

    auto t2_out = add_port(plug_swc, "t2.out", rte::PortDirection::kProvided);
    auto t2_in = add_port(plug_swc, "t2.in", rte::PortDirection::kRequired);
    auto act_out = add_port(plug_swc, "ActReq", rte::PortDirection::kProvided);
    auto sensor_in = add_port(plug_swc, "SensorProv", rte::PortDirection::kRequired);
    native_out = add_port(harness_swc, "native.out", rte::PortDirection::kProvided);
    native_in = add_port(harness_swc, "native.in", rte::PortDirection::kRequired);
    mon_act = add_port(harness_swc, "mon.act", rte::PortDirection::kRequired);
    drv_sensor = add_port(harness_swc, "drv.sensor", rte::PortDirection::kProvided);

    (void)rte.ConnectLocal(t2_out, t2_in);  // Type II loopback
    (void)rte.ConnectLocal(act_out, mon_act);
    (void)rte.ConnectLocal(drv_sensor, sensor_in);
    (void)rte.ConnectLocal(native_out, native_in);

    pirte::PirteConfig config;
    config.name = "P1";
    config.ecu_id = 1;
    config.swc = plug_swc;
    config.max_plugins = max_plugins;

    pirte::VirtualPortConfig v1;
    v1.id = 1;
    v1.name = "t2.loop";
    v1.kind = pirte::VirtualPortKind::kTypeII;
    v1.swc_out = t2_out;
    v1.swc_in = t2_in;
    config.virtual_ports.push_back(v1);

    pirte::VirtualPortConfig v4;
    v4.id = 4;
    v4.name = "ActReq";
    v4.kind = pirte::VirtualPortKind::kTypeIII;
    v4.swc_out = act_out;
    config.virtual_ports.push_back(v4);

    pirte::VirtualPortConfig v6;
    v6.id = 6;
    v6.name = "SensorProv";
    v6.kind = pirte::VirtualPortKind::kTypeIII;
    v6.swc_in = sensor_in;
    config.virtual_ports.push_back(v6);

    pirte = std::make_unique<pirte::Pirte>(rte, &nvm, nullptr, std::move(config));
    (void)pirte->Init();
    (void)ecu.Start();
    simulator.Run();
  }

  /// Installs a plug-in directly (no server round-trip).
  void Install(const pirte::InstallationPackage& package) {
    (void)pirte->Install(package);
    simulator.Run();
  }
};

/// Builds a plug-in package around a binary with `ports` PIC entries whose
/// unique ids start at `base_uid`; PLC entries are supplied by the caller.
inline pirte::InstallationPackage MakePackage(const std::string& name,
                                              support::Bytes binary,
                                              std::vector<pirte::PicEntry> pic,
                                              std::vector<pirte::PlcEntry> plc = {}) {
  pirte::InstallationPackage package;
  package.plugin_name = name;
  package.version = "1.0";
  package.pic.entries = std::move(pic);
  package.plc.entries = std::move(plc);
  package.binary = std::move(binary);
  return package;
}

/// Binds VIN-0 to `user` on `server` and connects a scripted endpoint for
/// it that acks every push at once.
inline std::unique_ptr<fes::ScriptedFleet> ConnectScriptedVehicle(
    sim::Simulator& simulator, sim::Network& network,
    server::TrustedServer& server, server::UserId user) {
  fes::ScriptedFleetOptions options;
  options.vin_prefix = "VIN-";
  auto vehicle = std::make_unique<fes::ScriptedFleet>(simulator, network,
                                                      server, options);
  (void)vehicle->BindAndConnect(user);  // a failure surfaces at Deploy
  return vehicle;
}

/// True when `status` is ok; otherwise marks the benchmark errored with
/// the status text (the caller then stops iterating).
inline bool OkOrSkip(benchmark::State& state, const support::Status& status) {
  if (status.ok()) return true;
  state.SkipWithError(status.ToString().c_str());
  return false;
}

}  // namespace dacm::bench
