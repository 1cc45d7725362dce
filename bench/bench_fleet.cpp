// FLEET — deploy pipeline and campaign orchestration at scale.
//
// The paper's trusted server is "a central point of intelligence" for
// every vehicle; the north-star scales it to fleet-wide OTA campaigns.
// Benchmark families:
//
//   * BM_FleetCampaign — the single-shot DeployCampaign pipeline
//     (per-vehicle compatibility checks, PIC/PLC/ECC generation, package
//     assembly, batched pushes) plus the simulated delivery and
//     acknowledgement round, against fleet size.  Interactive Deploy
//     runs the same per-vehicle core and pushes the same batch, so it
//     has no family of its own.
//   * BM_FleetDurableCampaign — the same rollout with the write-ahead
//     status DB and campaign journal enabled; bench_compare.py holds its
//     deploys/s against the memory-only campaign baseline.
//   * BM_RecoveryReplay — restart cost: a cold server rebuilt from the
//     durable logs of a multi-campaign history (RecoverInstallDb +
//     journal replay), raw vs checkpointed; reports replay bytes/s,
//     time-to-serviceable and the log-to-live compaction ratio.
//   * BM_FleetFaultCampaign — the fault matrix: a retrying CampaignEngine
//     rollout over a seeded sim::FaultScenario (offline churn, WAN flaps,
//     transient nack cohorts).  Reported per case, and in the --json
//     output bench_all aggregates: waves-to-convergence, pushes per
//     vehicle, re-pushes and install-payload builds
//     (generations_per_iter: 1 when the campaign builds its one-model
//     batch once and every retry wave re-pushes it) per iteration, and
//     the p99 sim-time to installed.
//   * BM_StatusAppend — the WAL stage alone: ns to encode and append one
//     status paragraph for the campaign row shape.
//   * BM_FleetMegaCampaign — the memory-scaling probe: one seeded
//     multi-model campaign (vehicles bound round-robin over N distinct
//     models, so the content-addressed package cache holds one batch per
//     cohort).  Reports bytes_per_vehicle (converged VmRSS delta over the
//     whole stack) and deploys_per_s; the CI bench-smoke job runs the
//     100k-VIN default under an RSS budget, and --mega=10000000,24
//     drives the ten-million-VIN configuration.
//
// CLI overrides:
//   --fleet=1000      comma list replacing the fleet-size axis
//   --mega=100000,24  fleet,models for BM_FleetMegaCampaign
// Without overrides the default matrix below runs (kept small enough for
// the CI bench-smoke job).
#include <benchmark/benchmark.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "fes/fleet.hpp"
#include "server/campaign.hpp"
#include "server/journal.hpp"
#include "sim/fault.hpp"
#include "support/metrics.hpp"
#include "support/storage.hpp"

namespace dacm::bench {
namespace {

// Work shape per vehicle: 4 plug-ins x 8 ports with ~12 KiB binaries, so
// a campaign push carries ~50 KiB of generated context + code per vehicle
// — enough server-side work (context gen, package assembly, CRC, batch
// serialization) that the simulation/ack round is < 10% of a campaign.
constexpr std::uint32_t kPlugins = 4;
constexpr std::uint32_t kPorts = 8;
constexpr std::uint32_t kBinaryPadding = 12288;

std::string MegaModelName(std::size_t m) {
  return "rpi-mega-" + std::to_string(m);
}

/// Resident set from /proc/self/status, in bytes (0 off Linux).
std::size_t CurrentRssBytes() {
  std::FILE* status = std::fopen("/proc/self/status", "r");
  if (status == nullptr) return 0;
  char line[128];
  std::size_t rss = 0;
  while (std::fgets(line, sizeof(line), status) != nullptr) {
    if (std::strncmp(line, "VmRSS:", 6) == 0) {
      rss = std::strtoull(line + 6, nullptr, 10) * 1024;  // kB line
      break;
    }
  }
  std::fclose(status);
  return rss;
}

struct FleetBench {
  sim::Simulator simulator;
  sim::Network network{simulator, sim::kMicrosecond};
  server::TrustedServer server;
  server::UserId user = server::UserId::Invalid();
  std::unique_ptr<fes::ScriptedFleet> fleet;

  explicit FleetBench(std::size_t fleet_size,
                      support::RecordSink* status_sink = nullptr,
                      std::size_t model_count = 1, std::size_t sync_every = 0)
      : server(network, "srv:443",
               server::ServerOptions{status_sink, sync_every}) {
    (void)server.Start();
    fes::ScriptedFleetOptions options;
    options.vehicle_count = fleet_size;
    if (model_count <= 1) {
      (void)server.UploadVehicleModel(fes::MakeRpiTestbedConf());
    } else {
      // N distinct models (same hardware, distinct names) bound
      // round-robin, so the content-addressed cache keeps one install
      // batch per model cohort instead of one for the whole fleet.
      for (std::size_t m = 0; m < model_count; ++m) {
        server::VehicleModelConf conf = fes::MakeRpiTestbedConf();
        conf.model = MegaModelName(m);
        (void)server.UploadVehicleModel(std::move(conf));
        options.models.push_back(MegaModelName(m));
      }
    }
    user = *server.CreateUser("bench");

    fleet = std::make_unique<fes::ScriptedFleet>(simulator, network, server,
                                                 options);
    if (!fleet->BindAndConnect(user).ok()) std::abort();

    fes::SyntheticAppParams params;
    params.name = "campaign";
    params.vehicle_model =
        model_count <= 1 ? std::string("rpi-testbed") : MegaModelName(0);
    params.plugin_count = kPlugins;
    params.ports_per_plugin = kPorts;
    params.target_ecu = 1;
    params.binary_padding = kBinaryPadding;
    server::App app = fes::MakeSyntheticApp(params);
    for (std::size_t m = 1; m < model_count; ++m) {
      server::SwConf conf = app.confs.front();
      conf.vehicle_model = MegaModelName(m);
      app.confs.push_back(std::move(conf));
    }
    (void)server.UploadApp(std::move(app));
  }

  void UninstallAll() {
    for (const std::string& vin : fleet->vins()) {
      (void)server.UninstallApp(user, vin, "campaign");
    }
    simulator.Run();
  }
};

/// Quantile counters from a log2 histogram: `<prefix>_p50_<unit>` /
/// `_p95_` / `_p99_` / `_max_`, each scaled by `scale` (e.g. 1e-3 for
/// ns -> us).  Replaces the old sort-the-whole-vector p99: the histogram
/// accumulates in O(1) per sample with no retained per-sample storage,
/// so million-vehicle matrices report tails without the O(n log n) sort
/// or the vector's memory.
void ReportQuantiles(benchmark::State& state, const std::string& prefix,
                     const std::string& unit, const support::Histogram& hist,
                     double scale) {
  if (hist.Count() == 0) return;
  state.counters[prefix + "_p50_" + unit] = hist.Quantile(0.50) * scale;
  state.counters[prefix + "_p95_" + unit] = hist.Quantile(0.95) * scale;
  state.counters[prefix + "_p99_" + unit] = hist.Quantile(0.99) * scale;
  state.counters[prefix + "_max_" + unit] =
      static_cast<double>(hist.Max()) * scale;
}

void ReportLatencies(benchmark::State& state, const support::Histogram& ns) {
  if (ns.Count() == 0) return;
  state.counters["vehicle_mean_us"] = ns.Mean() / 1000.0;
  ReportQuantiles(state, "vehicle", "us", ns, 1.0 / 1000.0);
}

// Campaign deploys/s: batched pushes, including the simulated delivery +
// acknowledgement round.
void BM_FleetCampaign(benchmark::State& state) {
  const auto fleet_size = static_cast<std::size_t>(state.range(0));
  FleetBench bench(fleet_size);
  support::Histogram vehicle_ns;
  // Registry histograms fed by the instrumented pipeline; reset so the
  // quantiles cover exactly this benchmark's iterations.
  auto& metrics = support::Metrics::Instance();
  support::Histogram& ack_flush_nanos =
      metrics.GetHistogram("dacm_ack_flush_nanos");
  support::Histogram& roundtrip_us =
      metrics.GetHistogram("dacm_deploy_roundtrip_us");
  ack_flush_nanos.Reset();
  roundtrip_us.Reset();
  // Phase bookkeeping: the campaign phase (DeployCampaign), and the
  // simulation phase split into event-loop work (deliveries, vehicle
  // handlers, ack routing) — serial_sim_fraction — and the ack-inbox
  // flush — ack_flush_fraction.
  std::uint64_t campaign_ns = 0, sim_ns = 0, flush_ns = 0;
  for (auto _ : state) {
    const std::uint64_t flush_before = bench.server.ack_flush_nanos();
    const auto t0 = std::chrono::steady_clock::now();
    auto report = bench.server.DeployCampaign(bench.user, "campaign",
                                              bench.fleet->vins());
    const auto t1 = std::chrono::steady_clock::now();
    bench.simulator.Run();
    const auto t2 = std::chrono::steady_clock::now();
    campaign_ns += static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0).count());
    sim_ns += static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(t2 - t1).count());
    flush_ns += bench.server.ack_flush_nanos() - flush_before;

    state.PauseTiming();
    auto last_state =
        bench.server.AppState(bench.fleet->vins().back(), "campaign");
    if (!report.ok() || report->rejected != 0 || !last_state.ok() ||
        *last_state != server::InstallState::kInstalled) {
      state.SkipWithError("campaign did not deploy the whole fleet");
      state.ResumeTiming();
      break;
    }
    for (std::uint64_t v : report->per_vehicle_ns) vehicle_ns.Observe(v);
    bench.UninstallAll();
    state.ResumeTiming();
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(fleet_size));
  state.counters["fleet"] = static_cast<double>(fleet_size);
  if (campaign_ns + sim_ns > 0) {
    const auto total = static_cast<double>(campaign_ns + sim_ns);
    const std::uint64_t serial = sim_ns > flush_ns ? sim_ns - flush_ns : 0;
    state.counters["serial_sim_fraction"] = static_cast<double>(serial) / total;
    state.counters["ack_flush_fraction"] =
        static_cast<double>(flush_ns) / total;
    state.counters["sim_phase_fraction"] = static_cast<double>(sim_ns) / total;
  }
  ReportLatencies(state, vehicle_ns);
  // Per-flush wall time of the ack-inbox flush, and the push ->
  // converged-ack round trip in sim time.
  ReportQuantiles(state, "ack_flush", "us", ack_flush_nanos, 1.0 / 1000.0);
  ReportQuantiles(state, "roundtrip", "ms", roundtrip_us, 1.0 / 1000.0);
}

// The same rollout with the crash-consistent persistence layer enabled:
// every InstalledApp mutation writes a status paragraph ahead of the
// visible transition, and a CampaignEngine journals its wave ticks.  The
// acceptance bar for the durability PR is <= 5% off the memory-only
// BM_FleetCampaign deploys/s at the same shape (bench_compare.py tracks
// exactly that pairing).  wal_bytes_per_vehicle reports the durable
// footprint of one converged deploy.
void BM_FleetDurableCampaign(benchmark::State& state) {
  const auto fleet_size = static_cast<std::size_t>(state.range(0));
  support::MemorySink status_log;
  support::MemorySink journal_log;
  // Sync every 64 status frames: the power-loss durability cadence, and
  // the sample source for the WAL fsync histogram (a MemorySink Sync is
  // nearly free, so this prices the framing/locking around it, not disk).
  FleetBench bench(fleet_size, &status_log, /*model_count=*/1,
                   /*sync_every=*/64);
  server::CampaignEngine engine(bench.simulator, bench.server);
  server::CampaignJournal journal(journal_log);
  engine.AttachJournal(&journal);
  support::Histogram& fsync_nanos =
      support::Metrics::Instance().GetHistogram("dacm_wal_fsync_nanos");
  fsync_nanos.Reset();
  std::uint64_t wal_bytes = 0;
  for (auto _ : state) {
    auto id = engine.StartDeploy(bench.user, "campaign", bench.fleet->vins());
    bench.simulator.Run();

    state.PauseTiming();
    if (!id.ok() || !engine.Finished(*id) ||
        engine.Snapshot(*id)->status != server::CampaignStatus::kConverged) {
      state.SkipWithError("durable campaign did not converge");
      state.ResumeTiming();
      break;
    }
    (void)engine.Forget(*id);
    wal_bytes += status_log.bytes().size() + journal_log.bytes().size();
    bench.UninstallAll();
    // The uninstall paragraphs are teardown, not campaign cost.
    status_log.Clear();
    journal_log.Clear();
    state.ResumeTiming();
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(fleet_size));
  state.counters["fleet"] = static_cast<double>(fleet_size);
  if (state.iterations() > 0) {
    state.counters["wal_bytes_per_vehicle"] =
        static_cast<double>(wal_bytes) /
        static_cast<double>(state.iterations() *
                            static_cast<std::int64_t>(fleet_size));
  }
  ReportQuantiles(state, "wal_fsync", "us", fsync_nanos, 1.0 / 1000.0);
}

// Recovery replay: time-to-serviceable from the durable logs — the cost
// a restarted server pays before it can push again.  Setup runs five
// consecutive campaigns (four deploy/uninstall rounds plus a final
// converged deploy), so the raw log carries realistic multi-campaign
// history; checkpoint=1 folds it through Compact() /
// CompactJournal() first, making the 0/1 pair measure exactly what
// checkpointing buys at restart.  Bytes/s is replayed log bytes; the
// log_to_live_ratio counter is the 2x compaction guard bench_compare
// tracks.
void BM_RecoveryReplay(benchmark::State& state) {
  const auto fleet_size = static_cast<std::size_t>(state.range(0));
  const bool checkpoint = state.range(1) != 0;
  support::MemorySink status_log;
  support::MemorySink journal_log;
  FleetBench bench(fleet_size, &status_log);
  server::CampaignEngine engine(bench.simulator, bench.server);
  server::CampaignJournal journal(journal_log);
  engine.AttachJournal(&journal);
  for (int round = 0; round < 5; ++round) {
    auto id = engine.StartDeploy(bench.user, "campaign", bench.fleet->vins());
    bench.simulator.Run();
    if (!id.ok() || !engine.Finished(*id) ||
        engine.Snapshot(*id)->status != server::CampaignStatus::kConverged) {
      state.SkipWithError("setup campaign did not converge");
      return;
    }
    if (round < 4) {
      (void)engine.Forget(*id);
      bench.UninstallAll();
    }
  }
  if (checkpoint &&
      (!bench.server.Compact().ok() || !engine.CompactJournal().ok())) {
    state.SkipWithError("compaction failed");
    return;
  }
  const support::Bytes status_image = status_log.bytes();
  const support::Bytes journal_image = journal_log.bytes();
  auto replayed = server::StatusDb::ReplayImage(status_image);
  if (!replayed.ok()) {
    state.SkipWithError("status log replay failed");
    return;
  }

  for (auto _ : state) {
    // A cold process: fresh simulator, fresh server, nothing uploaded.
    sim::Simulator simulator;
    sim::Network network{simulator, sim::kMicrosecond};
    server::TrustedServer fresh(network, "srv-recover:1");
    if (!fresh.RecoverInstallDb(status_image).ok()) {
      state.SkipWithError("RecoverInstallDb failed");
      break;
    }
    server::CampaignEngine fresh_engine(simulator, fresh);
    if (!fresh_engine.Recover(journal_image).ok()) {
      state.SkipWithError("journal recovery failed");
      break;
    }
    benchmark::DoNotOptimize(fresh.stats().deploys_ok);
  }
  const auto log_bytes =
      static_cast<double>(status_image.size() + journal_image.size());
  state.SetBytesProcessed(state.iterations() *
                          static_cast<std::int64_t>(log_bytes));
  state.counters["fleet"] = static_cast<double>(fleet_size);
  state.counters["checkpoint"] = checkpoint ? 1.0 : 0.0;
  state.counters["log_bytes"] = log_bytes;
  state.counters["live_bytes"] = static_cast<double>(replayed->live_bytes);
  state.counters["log_to_live_ratio"] =
      static_cast<double>(status_image.size()) /
      static_cast<double>(replayed->live_bytes);
  // elapsed / (iterations / 1e3) = mean milliseconds per recovery.
  state.counters["time_to_serviceable_ms"] = benchmark::Counter(
      static_cast<double>(state.iterations()) / 1e3,
      benchmark::Counter::kIsRate | benchmark::Counter::kInvert);
}

// Fault matrix: a retrying multi-wave campaign converging over a seeded
// fault scenario.  Wall time measures the orchestration machinery (wave
// pushes, re-pushes, ack flushes); the sim-time counters measure
// convergence quality under the injected fault severity.
void BM_FleetFaultCampaign(benchmark::State& state) {
  const auto fleet_size = static_cast<std::size_t>(state.range(0));
  const double churn = static_cast<double>(state.range(1)) / 100.0;
  const auto flaps = static_cast<std::size_t>(state.range(2));
  const double nack = static_cast<double>(state.range(3)) / 100.0;

  FleetBench bench(fleet_size);
  server::CampaignEngine engine(bench.simulator, bench.server);

  server::RetryPolicy policy;
  policy.max_waves = 10;
  policy.settle_delay = 50 * sim::kMillisecond;
  policy.initial_backoff = 250 * sim::kMillisecond;
  policy.max_backoff = 2 * sim::kSecond;
  policy.abort_nack_fraction = 2.0;  // transients heal; never abort

  std::uint64_t waves = 0, pushes = 0, repushes = 0, generations = 0;
  const server::PackageCache& cache = bench.server.package_cache();
  auto builds = [&cache] {
    return cache.stats().variants + cache.stats().regenerations;
  };
  support::Histogram tti_us;
  for (auto _ : state) {
    sim::FaultScenario faults(bench.simulator, bench.network, /*seed=*/0xFA417);
    if (churn > 0) {
      // Horizon 0: the whole cohort is dark when wave 1 pushes (this
      // bench's 1 us link makes the deploy round trip shorter than any
      // spread-out churn window) and trickles back during retry waves.
      faults.AddOfflineChurn(*bench.fleet, churn, /*horizon=*/0,
                             100 * sim::kMillisecond, 400 * sim::kMillisecond);
    }
    if (flaps > 0) {
      faults.AddRandomLinkFlaps(flaps, 600 * sim::kMillisecond,
                                20 * sim::kMillisecond, 80 * sim::kMillisecond);
    }
    if (nack > 0) {
      faults.AddNackCohort(*bench.fleet, nack, 500 * sim::kMillisecond);
    }
    const std::uint64_t repushes_before = bench.server.stats().repushes;
    const std::uint64_t builds_before = builds();
    auto id = engine.StartDeploy(bench.user, "campaign", bench.fleet->vins(),
                                 policy);
    if (!id.ok()) {
      state.SkipWithError("campaign failed to start");
      break;
    }
    bench.simulator.Run();

    state.PauseTiming();
    auto snapshot = *engine.Snapshot(*id);
    if (snapshot.status != server::CampaignStatus::kConverged) {
      state.SkipWithError("faulted campaign did not converge");
      state.ResumeTiming();
      break;
    }
    waves += snapshot.waves_pushed;
    pushes += snapshot.total_pushes;
    repushes += bench.server.stats().repushes - repushes_before;
    generations += builds() - builds_before;
    const auto times_to_done = engine.TimesToDone(*id);
    for (std::uint64_t t : *times_to_done) tti_us.Observe(t);
    // Reset through a (untimed) rollback campaign — the uninstall-batch
    // path at fleet scale.
    auto rollback = engine.StartRollback(bench.user, "campaign",
                                         bench.fleet->vins(), policy);
    if (rollback.ok()) bench.simulator.Run();
    if (!rollback.ok() ||
        engine.Snapshot(*rollback)->status !=
            server::CampaignStatus::kConverged) {
      state.SkipWithError("rollback campaign did not converge");
      state.ResumeTiming();
      break;
    }
    // Counters harvested; drop the row tables so the engine's memory
    // stays flat across benchmark iterations.
    (void)engine.Forget(*id);
    (void)engine.Forget(*rollback);
    state.ResumeTiming();
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(fleet_size));
  state.counters["fleet"] = static_cast<double>(fleet_size);
  state.counters["churn_pct"] = static_cast<double>(state.range(1));
  state.counters["link_flaps"] = static_cast<double>(flaps);
  state.counters["nack_pct"] = static_cast<double>(state.range(3));
  const auto iterations = static_cast<double>(std::max<std::int64_t>(
      state.iterations(), 1));
  state.counters["waves_to_convergence"] = static_cast<double>(waves) / iterations;
  state.counters["pushes_per_vehicle"] =
      static_cast<double>(pushes) /
      (iterations * static_cast<double>(fleet_size));
  state.counters["repushes_per_iter"] = static_cast<double>(repushes) / iterations;
  state.counters["generations_per_iter"] =
      static_cast<double>(generations) / iterations;
  if (tti_us.Count() != 0) {
    // Sim-time, not wall.  The p99 key predates the histogram rework and
    // is kept verbatim for baseline comparability.
    state.counters["p99_time_to_installed_ms"] = tti_us.Quantile(0.99) / 1000.0;
    ReportQuantiles(state, "time_to_installed", "ms", tti_us, 1.0 / 1000.0);
  }
}

// Memory-scaling probe: one seeded multi-model campaign at a fleet size
// where per-vehicle footprint, not throughput, is the question.  The SoA
// fleet store keeps each VIN as interned arena chars + packed columns,
// and the content-addressed cache generates/serializes one install batch
// per (model, app, version, id-layout) cohort — every vehicle in a
// cohort shares the same refcounted envelope, and convergence drops the
// payload refs so steady-state memory is O(models), not O(fleet).
//
//   bytes_per_vehicle    converged VmRSS delta across the whole stack
//                        (server rows + cache + fleet endpoints + sim
//                        machinery) divided by the fleet size
//   deploys_per_s        end-to-end campaign rate, wall time, including
//                        the simulated delivery + acknowledgement round
//   cache_entries        distinct batches generated (== model cohorts)
//   cache_live_payloads  payloads still pinned after convergence (0 when
//                        every row released its envelope)
void BM_FleetMegaCampaign(benchmark::State& state) {
  const auto fleet_size = static_cast<std::size_t>(state.range(0));
  const auto models = static_cast<std::size_t>(state.range(1));
  const std::size_t rss_before = CurrentRssBytes();
  FleetBench bench(fleet_size, nullptr, models);
  std::size_t rss_converged = 0;
  std::size_t cache_entries = 0, cache_live = 0;
  for (auto _ : state) {
    auto report = bench.server.DeployCampaign(bench.user, "campaign",
                                              bench.fleet->vins());
    bench.simulator.Run();

    state.PauseTiming();
    auto last_state =
        bench.server.AppState(bench.fleet->vins().back(), "campaign");
    if (!report.ok() || report->rejected != 0 || !last_state.ok() ||
        *last_state != server::InstallState::kInstalled) {
      state.SkipWithError("mega campaign did not deploy the whole fleet");
      state.ResumeTiming();
      break;
    }
    rss_converged = std::max(rss_converged, CurrentRssBytes());
    cache_entries = bench.server.package_cache().entries();
    cache_live = bench.server.package_cache().live_payloads();
    bench.UninstallAll();
    state.ResumeTiming();
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(fleet_size));
  state.counters["fleet"] = static_cast<double>(fleet_size);
  state.counters["models"] = static_cast<double>(models);
  state.counters["deploys_per_s"] = benchmark::Counter(
      static_cast<double>(state.iterations()) *
          static_cast<double>(fleet_size),
      benchmark::Counter::kIsRate);
  if (rss_converged > rss_before) {
    state.counters["bytes_per_vehicle"] =
        static_cast<double>(rss_converged - rss_before) /
        static_cast<double>(fleet_size);
  }
  state.counters["cache_entries"] = static_cast<double>(cache_entries);
  state.counters["cache_live_payloads"] = static_cast<double>(cache_live);
}

// --- registration (dynamic: the --fleet= override) ---------------------------

/// Parses a comma list of positive integers; empty on any malformed,
/// non-positive or out-of-range token (the caller rejects empty lists).
std::vector<std::int64_t> ParseList(const std::string& csv) {
  std::vector<std::int64_t> values;
  std::size_t start = 0;
  while (start <= csv.size()) {
    const std::size_t comma = csv.find(',', start);
    const std::string token =
        csv.substr(start, comma == std::string::npos ? comma : comma - start);
    if (!token.empty()) {
      errno = 0;
      char* end = nullptr;
      const long long value = std::strtoll(token.c_str(), &end, 10);
      if (errno != 0 || end != token.c_str() + token.size() || value <= 0 ||
          value > 10'000'000) {
        return {};
      }
      values.push_back(value);
    }
    if (comma == std::string::npos) break;
    start = comma + 1;
  }
  return values;
}

// The WAL stage on its own: one status paragraph for the campaign app's
// 4-plug-in x 8-port row, written the way the server's WriteStatus
// writes it — the view encoder into a reused buffer, then one
// CRC-framed StatusDb append to a MemorySink.  Time per iteration is ns
// per paragraph; the end-to-end durable campaign numbers decompose
// against it.
void BM_StatusAppend(benchmark::State& state) {
  const server::VehicleModelConf model = fes::MakeRpiTestbedConf();
  fes::SyntheticAppParams params;
  params.name = "campaign";
  params.vehicle_model = model.model;
  params.plugin_count = kPlugins;
  params.ports_per_plugin = kPorts;
  params.target_ecu = 1;
  params.binary_padding = kBinaryPadding;
  const server::App app = fes::MakeSyntheticApp(params);
  server::PackageCache cache;
  auto batch =
      cache.Acquire(model.model, app, app.confs.front(), model.sw, {});
  if (!batch.ok()) {
    state.SkipWithError("could not generate the campaign batch");
    return;
  }
  const server::BatchManifest& manifest = *batch->manifest;
  const server::ParagraphHead head{"VIN1-000001", manifest.app_name,
                                   manifest.version, server::Want::kInstall,
                                   server::DbState::kHalfInstalled};
  support::MemorySink sink;
  server::StatusDb db(sink);
  support::Bytes record;
  // Clearing the sink keeps its capacity, so memory stays bounded and
  // the appends never pay a reallocation after the first lap.
  constexpr std::size_t kClearEvery = 4096;
  std::size_t since_clear = 0;
  for (auto _ : state) {
    server::StatusDb::EncodeParagraph(head, &manifest, record);
    if (!db.AppendRaw(record).ok()) {
      state.SkipWithError("status append failed");
      break;
    }
    if (++since_clear == kClearEvery) {
      sink.Clear();
      since_clear = 0;
    }
  }
  state.SetItemsProcessed(state.iterations());
  state.counters["record_bytes"] = static_cast<double>(record.size());
}

void RegisterFleetBenchmarks(const std::vector<std::int64_t>& fleet_list,
                             bool overridden) {
  benchmark::RegisterBenchmark("BM_StatusAppend", BM_StatusAppend)
      ->Unit(benchmark::kNanosecond);
  auto* campaign =
      benchmark::RegisterBenchmark("BM_FleetCampaign", BM_FleetCampaign)
          ->ArgNames({"fleet"})
          ->UseRealTime()
          ->Unit(benchmark::kMillisecond);
  for (std::int64_t fleet : fleet_list) campaign->Arg(fleet);

  auto* durable = benchmark::RegisterBenchmark("BM_FleetDurableCampaign",
                                               BM_FleetDurableCampaign)
                      ->ArgNames({"fleet"})
                      ->UseRealTime()
                      ->Unit(benchmark::kMillisecond);
  if (overridden) {
    for (std::int64_t fleet : fleet_list) durable->Arg(fleet);
  } else {
    // Only the shape bench_compare tracks against the memory-only
    // campaign — the durability delta, not another full matrix.
    durable->Arg(1000);
  }

  auto* recovery =
      benchmark::RegisterBenchmark("BM_RecoveryReplay", BM_RecoveryReplay)
          ->ArgNames({"fleet", "checkpoint"})
          ->UseRealTime()
          ->Unit(benchmark::kMillisecond);
  const std::vector<std::int64_t> recovery_fleets =
      overridden ? fleet_list : std::vector<std::int64_t>{1000, 10000};
  for (std::int64_t fleet : recovery_fleets) {
    recovery->Args({fleet, 0})->Args({fleet, 1});
  }

  auto* faulted =
      benchmark::RegisterBenchmark("BM_FleetFaultCampaign", BM_FleetFaultCampaign)
          ->ArgNames({"fleet", "churn_pct", "flaps", "nack_pct"})
          ->UseRealTime()
          ->Unit(benchmark::kMillisecond);
  const std::vector<std::int64_t> fault_fleets =
      overridden ? fleet_list : std::vector<std::int64_t>{1000};
  for (std::int64_t fleet : fault_fleets) {
    faulted->Args({fleet, 20, 2, 0});   // churn + flaps
    faulted->Args({fleet, 0, 0, 30});   // transient nack cohort
    faulted->Args({fleet, 20, 2, 10});  // the full matrix
  }
}

void RegisterMegaBenchmark(const std::vector<std::int64_t>& mega) {
  // One measured campaign: the fleet build is untimed setup, and the
  // memory question is answered by a single converged rollout (repeat
  // iterations would only re-measure the same resident set).
  benchmark::RegisterBenchmark("BM_FleetMegaCampaign", BM_FleetMegaCampaign)
      ->ArgNames({"fleet", "models"})
      ->UseRealTime()
      ->Unit(benchmark::kMillisecond)
      ->Iterations(1)
      ->Args({mega[0], mega[1]});
}

}  // namespace
}  // namespace dacm::bench

int main(int argc, char** argv) {
  std::vector<std::int64_t> fleets = {100, 1000, 10000};
  std::vector<std::int64_t> mega = {100000, 24};  // CI bench-smoke shape
  bool overridden = false;
  std::vector<char*> passthrough;
  for (int i = 0; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--fleet=", 0) == 0) {
      fleets = dacm::bench::ParseList(arg.substr(sizeof("--fleet=") - 1));
      overridden = true;
    } else if (arg.rfind("--mega=", 0) == 0) {
      mega = dacm::bench::ParseList(arg.substr(sizeof("--mega=") - 1));
      if (mega.size() != 2) mega.clear();
    } else {
      passthrough.push_back(argv[i]);
    }
  }
  if (fleets.empty()) {
    std::fprintf(stderr, "--fleet= needs a comma list of positive integers\n");
    return 1;
  }
  if (mega.empty()) {
    std::fprintf(stderr, "--mega= needs fleet,models\n");
    return 1;
  }
  dacm::bench::RegisterFleetBenchmarks(fleets, overridden);
  dacm::bench::RegisterMegaBenchmark(mega);
  return dacm::bench::BenchMain(static_cast<int>(passthrough.size()),
                                passthrough.data());
}
