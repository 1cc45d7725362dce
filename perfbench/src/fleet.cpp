// fleet-uniform and fleet-mixed: a ScriptedFleet behind a durable trusted
// server (in-memory status sink + campaign journal), driven by
// CampaignEngine campaigns to convergence in a closed loop — the next
// campaign starts when the previous one has converged.
//
//   fleet-uniform  one model, so every vehicle shares one cached batch.
//                  A round is a deploy of the 4-plug-in x 8-port, 12 KiB
//                  app, then its rollback.
//   fleet-mixed    24 models; before the run every vehicle receives a
//                  seeded subset of six small background apps, so the
//                  fleet spans 24 x 64 (model, id-layout) batch variants.
//                  A round deploys under a seeded fault scenario, rolls
//                  back, compacts both logs and recovers a cold server
//                  from them.
//
// Every round ends with TrustedServer::Compact + CampaignEngine::
// CompactJournal (explicit calls, not the watermark knobs), which keeps the
// in-memory logs bounded over a run of many rounds.
#include <algorithm>
#include <array>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "fes/appgen.hpp"
#include "fes/fleet.hpp"
#include "fes/testbed.hpp"
#include "perfbench.hpp"
#include "server/campaign.hpp"
#include "server/context_gen.hpp"
#include "server/journal.hpp"
#include "sim/fault.hpp"
#include "sim/rng.hpp"
#include "support/metrics.hpp"
#include "support/storage.hpp"

namespace dacm::perfbench {
namespace {

constexpr char kApp[] = "campaign";
constexpr std::uint32_t kPlugins = 4;
constexpr std::uint32_t kPorts = 8;
constexpr std::uint32_t kBinaryPadding = 12288;
constexpr std::size_t kMixedModels = 24;
// Background apps: one plug-in each, alternating between ECU2 and ECU1.
// Each ECU's port counts (2, 3, 6) are superincreasing, so every subset of
// the six apps leaves a distinct occupied-id layout behind.
constexpr std::array<std::uint32_t, 6> kBackgroundPorts = {2, 2, 3, 3, 6, 6};
constexpr std::uint32_t kBackgroundPadding = 256;
// Rounds measured at least, whatever --seconds says.
constexpr std::size_t kMinRounds = 3;
// Independent set-ups per run: setup_s is their median, and every one must
// produce the same determinism digest.
constexpr std::size_t kSetups = 9;

server::ServerOptions DurableOptions(support::RecordSink& status_sink) {
  server::ServerOptions options;
  options.status_sink = &status_sink;
  return options;
}

/// The fault bench's retry policy (bench_fleet's BM_FleetFaultCampaign).
server::RetryPolicy FaultRetryPolicy() {
  server::RetryPolicy policy;
  policy.max_waves = 10;
  policy.settle_delay = 50 * sim::kMillisecond;
  policy.initial_backoff = 250 * sim::kMillisecond;
  policy.max_backoff = 2 * sim::kSecond;
  policy.abort_nack_fraction = 2.0;  // transients heal; never abort
  return policy;
}

/// A synthetic app with one SW conf per model.
server::App MakeApp(const std::string& name, std::uint32_t ports,
                    std::uint32_t plugins, std::uint32_t ecu,
                    std::uint32_t padding, const std::vector<std::string>& models) {
  fes::SyntheticAppParams params;
  params.name = name;
  params.vehicle_model = models.front();
  params.plugin_count = plugins;
  params.ports_per_plugin = ports;
  params.target_ecu = ecu;
  params.binary_padding = padding;
  server::App app = fes::MakeSyntheticApp(params);
  for (std::size_t m = 1; m < models.size(); ++m) {
    server::SwConf conf = app.confs.front();
    conf.vehicle_model = models[m];
    app.confs.push_back(std::move(conf));
  }
  return app;
}

/// One fleet, built from the seed alone.
struct FleetWorld {
  FleetWorld(bool mixed_fleet, std::uint64_t run_seed)
      : mixed(mixed_fleet),
        seed(run_seed),
        server(network, "ota.example:443", DurableOptions(status_log)),
        engine(simulator, server) {
    engine.AttachJournal(&journal);
  }

  support::Status Build(std::size_t vehicles);

  const bool mixed;
  const std::uint64_t seed;
  sim::Simulator simulator;
  sim::Network network{simulator, sim::kMicrosecond};
  support::MemorySink status_log;
  support::MemorySink journal_log;
  server::TrustedServer server;
  server::CampaignJournal journal{journal_log};
  server::CampaignEngine engine;
  server::UserId user = server::UserId::Invalid();
  std::vector<server::VehicleModelConf> models;
  server::App app;
  std::unique_ptr<fes::ScriptedFleet> fleet;
  /// The fleet's VINs in the seeded order campaigns are given them.
  std::vector<std::string> order;
};

support::Status FleetWorld::Build(std::size_t vehicles) {
  DACM_RETURN_IF_ERROR(server.Start());
  std::vector<std::string> model_names;
  for (std::size_t m = 0; m < (mixed ? kMixedModels : 1); ++m) {
    server::VehicleModelConf conf = fes::MakeRpiTestbedConf();
    if (mixed) conf.model = "rpi-mix-" + std::to_string(m);
    model_names.push_back(conf.model);
    models.push_back(conf);
    DACM_RETURN_IF_ERROR(server.UploadVehicleModel(std::move(conf)));
  }
  DACM_ASSIGN_OR_RETURN(user, server.CreateUser("fleet-ops"));

  fes::ScriptedFleetOptions fleet_options;
  fleet_options.vehicle_count = vehicles;
  fleet_options.vin_prefix = "VIN" + std::to_string(seed % 100000) + "-";
  if (mixed) {
    fleet_options.models = model_names;
  } else {
    fleet_options.model = model_names.front();
  }
  fleet = std::make_unique<fes::ScriptedFleet>(simulator, network, server,
                                               fleet_options);
  DACM_RETURN_IF_ERROR(fleet->BindAndConnect(user));

  app = MakeApp(kApp, kPorts, kPlugins, /*ecu=*/1, kBinaryPadding, model_names);
  DACM_RETURN_IF_ERROR(server.UploadApp(app));

  sim::Rng rng(seed);
  order = fleet->vins();
  for (std::size_t i = order.size(); i > 1; --i) {
    std::swap(order[i - 1], order[rng.NextBelow(i)]);
  }
  if (!mixed) return support::OkStatus();

  // Background apps: a seeded 6-bit subset per vehicle, installed by one
  // campaign per app.
  std::vector<std::uint64_t> subset(order.size());
  for (std::uint64_t& bits : subset) bits = rng.NextBelow(64);
  std::vector<server::CampaignId> campaigns;
  for (std::size_t b = 0; b < kBackgroundPorts.size(); ++b) {
    const std::string name = "background-" + std::to_string(b);
    DACM_RETURN_IF_ERROR(server.UploadApp(MakeApp(
        name, kBackgroundPorts[b], 1, b % 2 == 0 ? 2 : 1, kBackgroundPadding,
        model_names)));
    std::vector<std::string> vins;
    for (std::size_t v = 0; v < order.size(); ++v) {
      if ((subset[v] >> b) & 1u) vins.push_back(order[v]);
    }
    if (vins.empty()) continue;
    DACM_ASSIGN_OR_RETURN(server::CampaignId id,
                          engine.StartDeploy(user, name, vins));
    campaigns.push_back(id);
  }
  simulator.Run();
  for (server::CampaignId id : campaigns) {
    DACM_ASSIGN_OR_RETURN(server::CampaignSnapshot snapshot, engine.Snapshot(id));
    if (snapshot.status != server::CampaignStatus::kConverged) {
      return support::Internal("background campaign did not converge");
    }
    DACM_RETURN_IF_ERROR(engine.Forget(id));
  }
  return support::OkStatus();
}

/// What one round measured.  Counts are deltas over the round.
struct Round {
  /// Calibration blocks the timed phases ran in (see Calibration).
  std::size_t deploy_block = 0;
  std::size_t rollback_block = 0;
  std::size_t recovery_block = 0;
  double deploy_s = 0;
  double rollback_s = 0;
  double start_us = 0;
  double sim_run_s = 0;
  double ack_flush_s = 0;
  std::uint64_t events = 0;
  std::uint64_t drain_passes = 0;
  std::uint64_t messages = 0;
  double time_to_installed_p99_ms = 0;
  std::uint64_t deploy_pushes = 0;
  std::uint64_t waves = 0;
  std::uint64_t status_bytes = 0;
  std::uint64_t journal_bytes = 0;
  std::uint64_t wal_frames = 0;
  server::ServerStats stats;
  std::uint64_t batches = 0;
  std::uint64_t fleet_nacks = 0;
  std::uint64_t reconnects = 0;
  double compact_ms = 0;
  double status_replay_ms = 0;
  double journal_replay_ms = 0;
  std::uint64_t replay_bytes = 0;
  double recovery_s = 0;
  std::uint64_t deploy_fingerprint = 0;
  std::uint64_t rollback_fingerprint = 0;

  /// The sim-time and count values that must repeat exactly, round after
  /// round.  With `fingerprints`, also the campaigns' Fingerprint(), which
  /// holds campaign ids and absolute sim times and so repeats only across
  /// set-ups, where the same round runs from the same state.
  std::string Digest(bool fingerprints) const {
    char text[256];
    std::snprintf(text, sizeof(text),
                  "tti=%.6f pushes=%llu wal=%llu events=%llu", time_to_installed_p99_ms,
                  static_cast<unsigned long long>(deploy_pushes),
                  static_cast<unsigned long long>(status_bytes + journal_bytes),
                  static_cast<unsigned long long>(events));
    std::string digest = text;
    if (fingerprints) {
      std::snprintf(text, sizeof(text), " deploy=%016llx rollback=%016llx",
                    static_cast<unsigned long long>(deploy_fingerprint),
                    static_cast<unsigned long long>(rollback_fingerprint));
      digest += text;
    }
    return digest;
  }
};

/// Gate: the campaign converged, and every VIN's AppState agrees —
/// installed after a deploy, absent after a rollback.
void CheckCampaign(FleetWorld& w, server::CampaignId id,
                   server::CampaignKind kind, const std::string& app,
                   const std::vector<std::string>& vins, Report& report) {
  auto snapshot = w.engine.Snapshot(id);
  const bool converged =
      snapshot.ok() && snapshot->status == server::CampaignStatus::kConverged;
  report.Tally(1, converged ? 0 : 1,
               "campaign of " + app + " ended " +
                   (snapshot.ok()
                        ? std::string(server::CampaignStatusName(snapshot->status))
                        : snapshot.status().ToString()));
  std::uint64_t wrong = 0;
  for (const std::string& vin : vins) {
    auto state = w.server.AppState(vin, app);
    const bool ok = kind == server::CampaignKind::kDeploy
                        ? state.ok() && *state == server::InstallState::kInstalled
                        : !state.ok() &&
                              state.status().code() == support::ErrorCode::kNotFound;
    if (!ok) ++wrong;
  }
  report.Tally(vins.size(), wrong,
               kind == server::CampaignKind::kDeploy
                   ? "VINs not installed after the deploy of " + app
                   : "VINs still holding " + app + " after the rollback");
}

/// Starts one campaign over the seeded VIN order and runs the simulator to
/// convergence.  Returns the campaign id and the host seconds it took.
std::pair<server::CampaignId, double> RunCampaign(
    FleetWorld& w, server::CampaignKind kind, const server::RetryPolicy& policy,
    Spans& spans, Round& round, Report& report) {
  const bool deploy = kind == server::CampaignKind::kDeploy;
  spans.BeginOp();
  const std::uint64_t start = NowNs();
  Spans::Scope campaign(spans, deploy ? "deploy" : "rollback", "bench");
  server::CampaignId id = server::CampaignId::Invalid();
  {
    Spans::Scope span(spans, deploy ? "CampaignEngine::StartDeploy"
                                    : "CampaignEngine::StartRollback",
                      "campaign");
    const std::uint64_t call = NowNs();
    auto started = deploy ? w.engine.StartDeploy(w.user, kApp, w.order, policy)
                          : w.engine.StartRollback(w.user, kApp, w.order, policy);
    if (deploy) round.start_us = static_cast<double>(NowNs() - call) / 1e3;
    if (!started.ok()) {
      report.Fail("campaign start: " + started.status().ToString());
      return {id, 0};
    }
    id = *started;
  }
  {
    Spans::Scope span(spans, "Simulator::Run", "sim");
    const std::uint64_t run = NowNs();
    round.events += w.simulator.Run();
    round.sim_run_s += static_cast<double>(NowNs() - run) / 1e9;
  }
  return {id, static_cast<double>(NowNs() - start) / 1e9};
}

/// A cold server rebuilt from the live server's logs, timed to
/// serviceable; its fleet fingerprint must equal the live one.
void RecoverCold(FleetWorld& w, Spans& spans, Round& round, Report& report) {
  const support::Bytes& status_image = w.status_log.bytes();
  const support::Bytes& journal_image = w.journal_log.bytes();
  round.replay_bytes = status_image.size() + journal_image.size();
  sim::Simulator simulator;
  sim::Network network{simulator, sim::kMicrosecond};
  server::TrustedServer cold(network, "ota-cold.example:443");
  server::CampaignEngine engine(simulator, cold);
  support::Status status, journal;
  spans.BeginOp();
  {
    Spans::Scope recovery(spans, "recovery", "bench");
    const std::uint64_t t0 = NowNs();
    {
      Spans::Scope span(spans, "TrustedServer::RecoverInstallDb", "recovery");
      status = cold.RecoverInstallDb(status_image);
    }
    const std::uint64_t t1 = NowNs();
    {
      Spans::Scope span(spans, "CampaignEngine::Recover", "recovery");
      journal = engine.Recover(journal_image);
    }
    const std::uint64_t t2 = NowNs();
    round.status_replay_ms = static_cast<double>(t1 - t0) / 1e6;
    round.journal_replay_ms = static_cast<double>(t2 - t1) / 1e6;
    round.recovery_s = static_cast<double>(t2 - t0) / 1e9;
  }
  report.Tally(1, status.ok() ? 0 : 1, "RecoverInstallDb: " + status.ToString());
  report.Tally(1, journal.ok() ? 0 : 1, "CampaignEngine::Recover: " + journal.ToString());
  report.Tally(1, cold.FleetFingerprint() == w.server.FleetFingerprint() ? 0 : 1,
               "recovered FleetFingerprint differs from the live server's");
}

/// Journal frames appended since byte offset `from`.
std::uint64_t JournalFrames(const support::MemorySink& log, std::size_t from) {
  const support::Bytes& bytes = log.bytes();
  auto replayed = support::ReplayRecords(
      std::span<const std::uint8_t>(bytes).subspan(std::min(from, bytes.size())),
      [](std::span<const std::uint8_t>) { return support::OkStatus(); });
  return replayed.ok() ? replayed->records : 0;
}

/// One closed-loop round: deploy to convergence, rollback to convergence,
/// compact both logs, and (fleet-mixed) recover a cold server from them.
/// With a calibration, each timed phase is bracketed by reference samples
/// taken right before and after it (the caller takes the first one).
Round RunRound(FleetWorld& w, Spans& spans, Report& report,
               std::uint64_t* rss_converged, Calibration* calibration) {
  const auto sample = [&]() {
    if (calibration != nullptr) calibration->Sample();
  };
  const auto block = [&]() { return calibration != nullptr ? calibration->next() : 0; };
  Round round;
  auto& metrics = support::Metrics::Instance();
  support::Counter& drain_passes = metrics.GetCounter("dacm_sim_drain_passes_total");
  support::Histogram& wal_appends = metrics.GetHistogram("dacm_wal_append_bytes");
  const server::ServerStats stats0 = w.server.stats();
  const std::uint64_t flush0 = w.server.ack_flush_nanos();
  const std::uint64_t drains0 = drain_passes.Value();
  const std::uint64_t messages0 = w.network.messages_delivered();
  const std::uint64_t batches0 =
      w.fleet->batches_received() + w.fleet->uninstall_batches_received();
  const std::uint64_t nacks0 = w.fleet->nacks_sent();
  const std::uint64_t reconnects0 = w.fleet->reconnects();
  const std::size_t status0 = w.status_log.bytes().size();
  const std::size_t journal0 = w.journal_log.bytes().size();
  const std::uint64_t appends0 = wal_appends.Count();

  server::RetryPolicy policy;
  std::unique_ptr<sim::FaultScenario> faults;
  if (w.mixed) {
    // 20 % offline churn, 2 WAN flaps and a 10 % transient-nack cohort,
    // drawn from the seed (the fault bench's full-matrix case).
    policy = FaultRetryPolicy();
    faults = std::make_unique<sim::FaultScenario>(w.simulator, w.network, w.seed);
    faults->AddOfflineChurn(*w.fleet, 0.2, /*horizon=*/0, 100 * sim::kMillisecond,
                            400 * sim::kMillisecond);
    faults->AddRandomLinkFlaps(2, 600 * sim::kMillisecond, 20 * sim::kMillisecond,
                               80 * sim::kMillisecond);
    faults->AddNackCohort(*w.fleet, 0.1, 500 * sim::kMillisecond);
  }

  round.deploy_block = block();
  auto [deploy, deploy_s] =
      RunCampaign(w, server::CampaignKind::kDeploy, policy, spans, round, report);
  sample();
  round.deploy_s = deploy_s;
  round.status_bytes = w.status_log.bytes().size() - status0;
  round.journal_bytes = w.journal_log.bytes().size() - journal0;
  round.wal_frames = wal_appends.Count() - appends0 + JournalFrames(w.journal_log, journal0);
  if (!deploy.valid()) return round;
  CheckCampaign(w, deploy, server::CampaignKind::kDeploy, kApp, w.order, report);
  if (rss_converged != nullptr) *rss_converged = RssBytes();
  if (auto snapshot = w.engine.Snapshot(deploy); snapshot.ok()) {
    round.deploy_pushes = snapshot->total_pushes;
    round.waves = snapshot->waves_pushed;
  }
  if (auto times = w.engine.TimesToDone(deploy); times.ok()) {
    std::vector<double> ms(times->begin(), times->end());
    for (double& t : ms) t /= static_cast<double>(sim::kMillisecond);
    round.time_to_installed_p99_ms = Quantile(std::move(ms), 0.99);
  }
  round.deploy_fingerprint = w.engine.Fingerprint(deploy);

  sample();
  round.rollback_block = block();
  auto [rollback, rollback_s] =
      RunCampaign(w, server::CampaignKind::kRollback, policy, spans, round, report);
  sample();
  round.rollback_s = rollback_s;
  if (!rollback.valid()) return round;
  CheckCampaign(w, rollback, server::CampaignKind::kRollback, kApp, w.order, report);
  round.rollback_fingerprint = w.engine.Fingerprint(rollback);
  faults.reset();

  const server::ServerStats stats1 = w.server.stats();
  round.stats.packages_pushed = stats1.packages_pushed - stats0.packages_pushed;
  round.stats.acks_received = stats1.acks_received - stats0.acks_received;
  round.stats.nacks_received = stats1.nacks_received - stats0.nacks_received;
  round.stats.repushes = stats1.repushes - stats0.repushes;
  round.stats.rollback_pushes = stats1.rollback_pushes - stats0.rollback_pushes;
  round.ack_flush_s = static_cast<double>(w.server.ack_flush_nanos() - flush0) / 1e9;
  round.drain_passes = drain_passes.Value() - drains0;
  round.messages = w.network.messages_delivered() - messages0;
  round.batches = w.fleet->batches_received() +
                  w.fleet->uninstall_batches_received() - batches0;
  round.fleet_nacks = w.fleet->nacks_sent() - nacks0;
  round.reconnects = w.fleet->reconnects() - reconnects0;

  spans.BeginOp();
  {
    Spans::Scope span(spans, "compact", "bench");
    const std::uint64_t t0 = NowNs();
    support::Status compacted;
    {
      Spans::Scope call(spans, "TrustedServer::Compact", "wal");
      compacted = w.server.Compact();
    }
    support::Status journal;
    {
      Spans::Scope call(spans, "CampaignEngine::CompactJournal", "wal");
      journal = w.engine.CompactJournal();
    }
    round.compact_ms = static_cast<double>(NowNs() - t0) / 1e6;
    report.Tally(1, compacted.ok() ? 0 : 1, "Compact: " + compacted.ToString());
    report.Tally(1, journal.ok() ? 0 : 1, "CompactJournal: " + journal.ToString());
  }
  if (w.mixed) {
    sample();
    round.recovery_block = block();
    RecoverCold(w, spans, round, report);
    sample();
  }
  (void)w.engine.Forget(deploy);
  (void)w.engine.Forget(rollback);
  return round;
}

/// Canonical text of a vehicle's model and occupied-id layout — the key
/// the package cache tells batch variants apart by.
std::string LayoutKey(const server::Vehicle& vehicle) {
  std::vector<std::pair<std::uint32_t, std::array<std::uint64_t, 4>>> ecus;
  for (const auto& [ecu, ids] : vehicle.port_ids) {
    if (ids.size() != 0) ecus.emplace_back(ecu, ids.words());
  }
  std::sort(ecus.begin(), ecus.end());
  std::string key = vehicle.model;
  for (const auto& [ecu, words] : ecus) {
    key += "|" + std::to_string(ecu);
    for (std::uint64_t word : words) key += ":" + std::to_string(word);
  }
  return key;
}

}  // namespace

void RunFleet(const Options& options, bool mixed, Spans& spans, Report& report) {
  const std::uint64_t rss0 = RssBytes();
  std::uint64_t rss_setup = 0;
  std::uint64_t rss_converged = 0;
  std::vector<double> setup_s;
  std::string setup_digest;
  std::unique_ptr<FleetWorld> world;
  Calibration calibration;
  calibration.Sample();
  for (std::size_t s = 0; s < kSetups; ++s) {
    world.reset();  // tear the previous set-up down outside the timing
    // Set-up is calibrated in two stretches: the build, and the warm-up.
    const std::size_t build_block = calibration.next();
    std::uint64_t t0 = NowNs();
    world = std::make_unique<FleetWorld>(mixed, options.seed);
    const support::Status built = world->Build(options.fleet);
    if (!built.ok()) {
      report.Fail("fleet set-up: " + built.ToString());
      return;
    }
    const double build_s = static_cast<double>(NowNs() - t0) / 1e9;
    if (s == 0) rss_setup = RssBytes() - std::min(rss0, RssBytes());
    calibration.Sample();
    // Warm-up: the first round after set-up pays one-off costs (first
    // batch generation, allocator growth).  It counts under setup_s and
    // stays out of the timed medians.
    const std::size_t warm_block = calibration.next();
    t0 = NowNs();
    const Round warm =
        RunRound(*world, spans, report, s == 0 ? &rss_converged : nullptr, nullptr);
    const double warm_s = static_cast<double>(NowNs() - t0) / 1e9;
    calibration.Sample();
    setup_s.push_back(build_s * calibration.Factor(build_block) +
                      warm_s * calibration.Factor(warm_block));
    if (s == 0) {
      setup_digest = warm.Digest(true);
      const double fleet = static_cast<double>(options.fleet);
      report.digest["time_to_installed_p99_sim_ms"] = warm.time_to_installed_p99_ms;
      report.digest["pushes_per_vehicle"] = static_cast<double>(warm.deploy_pushes) / fleet;
      report.digest["wal_bytes_per_vehicle"] =
          static_cast<double>(warm.status_bytes + warm.journal_bytes) / fleet;
      report.digest["sim.events"] = static_cast<double>(warm.events);
      report.digest_text = setup_digest;
    } else {
      report.Tally(1, warm.Digest(true) == setup_digest ? 0 : 1,
                   "set-up " + std::to_string(s) + " diverged from set-up 0: " +
                       warm.Digest(true) + " vs " + setup_digest);
    }
  }
  FleetWorld& w = *world;
  const std::string digest = setup_digest.substr(0, setup_digest.find(" deploy="));
  const auto fleet = static_cast<double>(w.order.size());

  // Cache-miss share: distinct (model, id-layout) variants over vehicles
  // pushed.  Probed from the server's own view of each vehicle.
  std::vector<std::pair<std::string, std::string>> variants;  // key, sample VIN
  {
    std::vector<std::pair<std::string, std::string>> keys;
    keys.reserve(w.order.size());
    for (const std::string& vin : w.order) {
      if (auto vehicle = w.server.FindVehicle(vin)) keys.emplace_back(LayoutKey(*vehicle), vin);
    }
    std::sort(keys.begin(), keys.end());
    for (const auto& key : keys) {
      if (variants.empty() || variants.back().first != key.first) variants.push_back(key);
    }
  }
  const double miss_share = static_cast<double>(variants.size()) / fleet;
  report.digest["server.cache_miss_share"] = miss_share;

  if (options.inject_failure) {
    // An app whose only SW conf names a model nobody uploaded: every
    // vehicle must reject it, and the gate must count that.
    server::App unhostable = MakeApp("unhostable", 2, 1, 1, 0, {"no-such-model"});
    (void)w.server.UploadApp(unhostable);
    const std::vector<std::string> vins(w.order.begin(),
                                        w.order.begin() + std::min<std::size_t>(8, w.order.size()));
    auto id = w.engine.StartDeploy(w.user, "unhostable", vins);
    w.simulator.Run();
    if (!id.ok()) {
      report.Fail("deploy of an unhostable app: " + id.status().ToString());
    } else {
      CheckCampaign(w, *id, server::CampaignKind::kDeploy, "unhostable", vins, report);
    }
  }

  support::Histogram& ack_flush = support::Metrics::Instance().GetHistogram("dacm_ack_flush_nanos");
  ack_flush.Reset();
  std::vector<Round> rounds;
  std::vector<double> plain_s, traced_s;
  const std::uint64_t deadline = NowNs() + static_cast<std::uint64_t>(options.seconds * 1e9);
  while (rounds.size() < kMinRounds || NowNs() < deadline) {
    // Traced runs alternate untraced and traced rounds; the ratio of their
    // medians is the tracing overhead.
    const bool traced = options.trace && rounds.size() % 2 == 1;
    spans.set_enabled(traced);
    const bool recorded = spans.enabled();
    calibration.Sample();
    Round round = RunRound(w, spans, report, nullptr, &calibration);
    spans.set_enabled(false);
    report.Tally(1, round.Digest(false) == digest ? 0 : 1,
                 "round diverged from the warm-up round: " + round.Digest(false) + " vs " + digest);
    (recorded ? traced_s : plain_s).push_back(round.deploy_s + round.rollback_s);
    rounds.push_back(round);
  }
  report.rounds = rounds.size();

  // Host timings are reported calibrated (see Calibration).
  report.E2e("deploys_per_s", MedianOf(rounds, [&](const Round& r) {
               return fleet / (r.deploy_s * calibration.Factor(r.deploy_block));
             }), "1/s");
  report.E2e("rollbacks_per_s", MedianOf(rounds, [&](const Round& r) {
               return fleet / (r.rollback_s * calibration.Factor(r.rollback_block));
             }), "1/s");
  report.E2e("time_to_installed_p99_sim_ms",
             MedianOf(rounds, [](const Round& r) { return r.time_to_installed_p99_ms; }), "sim_ms");
  report.E2e("pushes_per_vehicle",
             MedianOf(rounds, [&](const Round& r) { return static_cast<double>(r.deploy_pushes) / fleet; }),
             "count");
  report.E2e("wal_bytes_per_vehicle",
             MedianOf(rounds, [&](const Round& r) {
               return static_cast<double>(r.status_bytes + r.journal_bytes) / fleet;
             }),
             "B");
  report.E2e("rss_bytes_per_vehicle",
             static_cast<double>(rss_converged - std::min(rss0, rss_converged)) / fleet, "B");
  if (mixed) {
    report.E2e("recovery_s", MedianOf(rounds, [&](const Round& r) {
                 return r.recovery_s * calibration.Factor(r.recovery_block);
               }), "s");
  }
  report.E2e("host_reference_ms", calibration.MedianSeconds() * 1e3, "ms");
  report.E2e("setup_s", Median(setup_s), "s");
  if (!options.trace) return;

  // --- per-layer ledger (traced run) ---------------------------------------
  report.Layer("sim.events", MedianOf(rounds, [](const Round& r) { return r.events; }), "count");
  report.Layer("sim.run_s", MedianOf(rounds, [](const Round& r) { return r.sim_run_s; }), "s");
  report.Layer("sim.ns_per_event", MedianOf(rounds, [](const Round& r) {
                 return (r.sim_run_s - r.ack_flush_s) * 1e9 / static_cast<double>(std::max<std::uint64_t>(r.events, 1));
               }), "ns");
  report.Layer("sim.drain_passes", MedianOf(rounds, [](const Round& r) { return r.drain_passes; }), "count");
  report.Layer("net.messages_per_vehicle",
               MedianOf(rounds, [&](const Round& r) { return static_cast<double>(r.messages) / fleet; }),
               "count");
  report.Layer("server.ack_flush_s", MedianOf(rounds, [](const Round& r) { return r.ack_flush_s; }), "s");
  report.Layer("server.ack_flush_p99_us", ack_flush.Quantile(0.99) / 1e3, "us");
  report.Layer("server.cache_miss_share", miss_share, "ratio");
  {
    // GeneratePackages on each variant's inputs, timed from outside; at
    // least 64 calls, so a one-variant fleet is not a single cold sample.
    std::vector<double> generate_us;
    for (std::size_t call = 0; call < std::max<std::size_t>(64, variants.size()); ++call) {
      const std::string& vin = variants[call % variants.size()].second;
      auto vehicle = w.server.FindVehicle(vin);
      const auto model = std::find_if(w.models.begin(), w.models.end(), [&](const auto& m) {
        return m.model == vehicle->model;
      });
      const auto conf = std::find_if(w.app.confs.begin(), w.app.confs.end(), [&](const auto& c) {
        return c.vehicle_model == vehicle->model;
      });
      server::UsedIdMap used = vehicle->port_ids;
      const std::uint64_t t0 = NowNs();
      auto generated = server::GeneratePackages(w.app, *conf, model->sw, used);
      generate_us.push_back(static_cast<double>(NowNs() - t0) / 1e3);
      report.Tally(1, generated.ok() ? 0 : 1, "GeneratePackages on a variant's inputs");
    }
    report.Layer("server.generate_us", Median(generate_us), "us");
  }
  report.Layer("server.packages_pushed", MedianOf(rounds, [](const Round& r) { return r.stats.packages_pushed; }), "count");
  report.Layer("server.acks", MedianOf(rounds, [](const Round& r) { return r.stats.acks_received; }), "count");
  report.Layer("server.nacks", MedianOf(rounds, [](const Round& r) { return r.stats.nacks_received; }), "count");
  report.Layer("server.repushes", MedianOf(rounds, [](const Round& r) { return r.stats.repushes; }), "count");
  report.Layer("server.rollback_pushes", MedianOf(rounds, [](const Round& r) { return r.stats.rollback_pushes; }), "count");
  report.Layer("campaign.waves", MedianOf(rounds, [](const Round& r) { return r.waves; }), "count");
  report.Layer("campaign.start_us", MedianOf(rounds, [](const Round& r) { return r.start_us; }), "us");
  report.Layer("wal.status_bytes_per_vehicle",
               MedianOf(rounds, [&](const Round& r) { return static_cast<double>(r.status_bytes) / fleet; }), "B");
  report.Layer("wal.journal_bytes_per_vehicle",
               MedianOf(rounds, [&](const Round& r) { return static_cast<double>(r.journal_bytes) / fleet; }), "B");
  report.Layer("wal.frames_per_vehicle",
               MedianOf(rounds, [&](const Round& r) { return static_cast<double>(r.wal_frames) / fleet; }), "count");
  report.Layer("wal.compact_ms", MedianOf(rounds, [](const Round& r) { return r.compact_ms; }), "ms");
  if (mixed) {
    report.Layer("recovery.status_replay_ms", MedianOf(rounds, [](const Round& r) { return r.status_replay_ms; }), "ms");
    report.Layer("recovery.journal_replay_ms", MedianOf(rounds, [](const Round& r) { return r.journal_replay_ms; }), "ms");
    report.Layer("recovery.replay_bytes", MedianOf(rounds, [](const Round& r) { return r.replay_bytes; }), "B");
  }
  report.Layer("fleet.batches_per_vehicle",
               MedianOf(rounds, [&](const Round& r) { return static_cast<double>(r.batches) / fleet; }), "count");
  report.Layer("fleet.nacks_sent", MedianOf(rounds, [](const Round& r) { return r.fleet_nacks; }), "count");
  report.Layer("fleet.reconnects", MedianOf(rounds, [](const Round& r) { return r.reconnects; }), "count");
  report.Layer("mem.rss_setup_bytes", static_cast<double>(rss_setup), "B");
  report.Layer("mem.rss_peak_bytes", static_cast<double>(PeakRssBytes()), "B");
  report.Layer("trace.overhead_pct", (Median(traced_s) / Median(plain_s) - 1) * 100, "%");
}

}  // namespace dacm::perfbench
