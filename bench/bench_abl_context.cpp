// ABL-2 — where should the intelligence live? (paper §3.2)
//
// The paper keeps context generation (unique-id assignment, connection
// resolution, ECC extraction) on the trusted server, "somewhat relieving
// the vehicular system from the burdens of plug-in configuration and
// supervision".  The ablation compares:
//
//   * server-side: the real GeneratePackages pipeline (hash-map id
//     bookkeeping, rich diagnostics, arbitrary app sizes);
//   * ECU-side baseline: the same resolution implemented the way a
//     resource-constrained ECU would have to run it — flat arrays, linear
//     scans, a fixed 256-bit id bitmap, no allocation-heavy diagnostics.
//
// Both produce identical contexts.  The point is not that one is slower —
// both are micro-scale — but that the ECU-side variant would run on every
// vehicle at install time *on the critical path of the VM task*, while the
// server amortizes it off-board, keeps the global view needed for
// dependency checking, and ships only finished contexts.
#include <benchmark/benchmark.h>

#include <array>

#include "bench_common.hpp"
#include "server/context_gen.hpp"
#include "server/package_cache.hpp"

namespace dacm::bench {
namespace {

server::App MakeApp(std::uint32_t ports) {
  fes::SyntheticAppParams params;
  params.name = "app";
  params.vehicle_model = "rpi-testbed";
  params.plugin_count = 1;
  params.ports_per_plugin = ports;
  params.target_ecu = 1;
  return fes::MakeSyntheticApp(params);
}

// Server-side: the real pipeline.
void BM_ServerSideContextGen(benchmark::State& state) {
  const auto app = MakeApp(static_cast<std::uint32_t>(state.range(0)));
  const auto model = fes::MakeRpiTestbedConf();
  for (auto _ : state) {
    server::UsedIdMap used;
    auto packages =
        server::GeneratePackages(app, app.confs[0], model.sw, used);
    benchmark::DoNotOptimize(packages);
  }
  state.counters["ports"] = static_cast<double>(state.range(0));
}
BENCHMARK(BM_ServerSideContextGen)->Arg(1)->Arg(4)->Arg(16)->Arg(64);

// ECU-side baseline: fixed-size structures, linear scans — the shape this
// logic would take inside the PIRTE if the server shipped raw SW confs
// instead of finished contexts.
struct EcuSideResolver {
  std::array<bool, 256> used{};

  support::Result<pirte::InstallationPackage> Resolve(
      const server::App& app, const server::SwConf& conf,
      const server::SystemSwConf& system_sw, const server::PluginDecl& plugin) {
    pirte::InstallationPackage package;
    package.plugin_name = plugin.name;
    package.version = app.version;
    for (const server::PluginPortDecl& port : plugin.ports) {
      // Linear probe for a free unique id.
      std::uint16_t id = 0;
      while (id < 256 && used[id]) ++id;
      if (id == 256) return support::ResourceExhausted("ids");
      used[id] = true;
      package.pic.entries.push_back({port.local_index, port.name,
                                     static_cast<std::uint8_t>(id),
                                     port.direction});
    }
    for (const server::ConnectionDecl& connection : conf.connections) {
      if (connection.plugin != plugin.name) continue;  // linear scan
      pirte::PlcEntry entry;
      entry.local_port = connection.local_port;
      switch (connection.target) {
        case server::ConnectionDecl::Target::kNone:
          entry.kind = pirte::PlcKind::kUnconnected;
          break;
        case server::ConnectionDecl::Target::kVirtualPort: {
          const auto* vp = system_sw.FindByName(connection.virtual_port_name);
          if (vp == nullptr) return support::Incompatible("vp");
          entry.kind = pirte::PlcKind::kVirtual;
          entry.virtual_port = vp->id;
          break;
        }
        default:
          // Peer/external targets need the global view only the server has;
          // the baseline cannot resolve them — precisely the limitation the
          // paper's design avoids.
          entry.kind = pirte::PlcKind::kUnconnected;
          break;
      }
      package.plc.entries.push_back(std::move(entry));
    }
    package.binary = plugin.binary;
    return package;
  }
};

void BM_EcuSideContextGen(benchmark::State& state) {
  const auto app = MakeApp(static_cast<std::uint32_t>(state.range(0)));
  const auto model = fes::MakeRpiTestbedConf();
  for (auto _ : state) {
    EcuSideResolver resolver;
    for (const auto& plugin : app.plugins) {
      auto package = resolver.Resolve(app, app.confs[0], model.sw, plugin);
      benchmark::DoNotOptimize(package);
    }
  }
  state.counters["ports"] = static_cast<double>(state.range(0));
}
BENCHMARK(BM_EcuSideContextGen)->Arg(1)->Arg(4)->Arg(16)->Arg(64);

// The part the ECU-side variant cannot amortize: repeated installs churn
// the id space.  K consecutive installs into one shared id map.
void BM_ServerSideIdChurn(benchmark::State& state) {
  const auto app = MakeApp(4);
  const auto model = fes::MakeRpiTestbedConf();
  const int installs = static_cast<int>(state.range(0));
  for (auto _ : state) {
    server::UsedIdMap used;
    for (int i = 0; i < installs; ++i) {
      auto packages =
          server::GeneratePackages(app, app.confs[0], model.sw, used);
      benchmark::DoNotOptimize(packages);
    }
  }
  state.counters["installs"] = static_cast<double>(installs);
}
BENCHMARK(BM_ServerSideIdChurn)->Arg(1)->Arg(8)->Arg(32);

// Package assembly: what PackageCache::Acquire costs on its two
// generating paths, for the fleet benchmark's 4-plug-in x 8-port app with
// 12 KiB binaries on a vehicle that already holds six ids on ECU 1.
//   new_variant  first sight of a (key, layout): context generation, the
//                batch wire, the manifest and its uninstall wire;
//   regenerate   an expired payload revived against the pinned manifest:
//                context generation and the batch wire only.
enum class AssemblyShape { kNewVariant, kRegenerate };

void BM_BatchAssembly(benchmark::State& state, AssemblyShape shape) {
  fes::SyntheticAppParams params;
  params.name = "campaign";
  params.vehicle_model = "rpi-testbed";
  params.plugin_count = 4;
  params.ports_per_plugin = 8;
  params.binary_padding = 12288;
  const server::App app = fes::MakeSyntheticApp(params);
  const auto model = fes::MakeRpiTestbedConf();
  const server::IdLayout layout = {{1, server::PortIdSet{0, 1, 2, 3, 4, 5}}};
  server::PackageCache shared;
  std::size_t wire_bytes = 0;
  for (auto _ : state) {
    server::PackageCache fresh;
    server::PackageCache& cache =
        shape == AssemblyShape::kNewVariant ? fresh : shared;
    // The batch dies at the end of the iteration, so `shared` regenerates.
    auto batch = cache.Acquire("rpi-testbed", app, app.confs[0], model.sw, layout);
    if (!batch.ok()) {
      state.SkipWithError(batch.status().ToString().c_str());
      break;
    }
    wire_bytes = batch->payload->install_wire.size();
    benchmark::DoNotOptimize(batch);
  }
  state.counters["wire_bytes"] = static_cast<double>(wire_bytes);
}
BENCHMARK_CAPTURE(BM_BatchAssembly, new_variant, AssemblyShape::kNewVariant);
BENCHMARK_CAPTURE(BM_BatchAssembly, regenerate, AssemblyShape::kRegenerate);

}  // namespace
}  // namespace dacm::bench

DACM_BENCH_MAIN();
