// vehicle-fig3: the paper's Figure 3 federation (Figure3Testbed), driven
// one command at a time in a closed loop.
//
//   install phase  repeated user-triggered Deploy of RemoteCar through
//                  server -> ECM -> CAN -> PIRTE2, each run until the
//                  server records kInstalled, with an uninstall between
//                  deploys;
//   command phase  a seeded stream of in-range Wheels/Speed phone commands
//                  through COM -> Type II/CAN -> OP -> guard -> motor
//                  control, each run until the motor control observes it.
//
// The two phases split --seconds evenly.  This is the only workload that
// reaches the vehicle-side layers (PIRTE, ECM, VM, BSW/CAN, RTE, OS).
#include <algorithm>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "fes/testbed.hpp"
#include "perfbench.hpp"
#include "pirte/ecm.hpp"
#include "server/context_gen.hpp"
#include "sim/rng.hpp"
#include "support/metrics.hpp"

namespace dacm::perfbench {
namespace {

constexpr char kApp[] = "remote-car";
constexpr sim::SimTime kTimeout = 5 * sim::kSecond;
constexpr std::size_t kWarmupCommands = 16;
// Independent set-ups per run: setup_s is their median (a set-up takes well
// under a millisecond, hence many), and every one must produce the same
// determinism digest.
constexpr std::size_t kSetups = 41;
constexpr std::size_t kMinInstalls = 16;
constexpr std::size_t kMinCommands = 256;
// Operations per phase that keep their full counters (and may be traced).
constexpr std::size_t kDetailedOps = 2048;
// Host time between two calibration samples.
constexpr std::uint64_t kCalibrationBlockNs = 200'000'000;

struct Command {
  bool wheels = true;
  std::int32_t value = 0;
};

/// Seeded in-range commands: wheel angles in [-45, 45], speeds in
/// [0, 100], so the OEM guards pass every one unchanged.
std::vector<Command> MakeCommands(std::uint64_t seed, std::size_t count) {
  sim::Rng rng(seed);
  std::vector<Command> commands(count);
  for (Command& command : commands) {
    command.wheels = rng.NextBelow(2) == 0;
    command.value = command.wheels
                        ? static_cast<std::int32_t>(rng.NextInRange(0, 90)) - 45
                        : static_cast<std::int32_t>(rng.NextInRange(0, 100));
  }
  return commands;
}

/// Cumulative counters of every layer the federation exposes.
struct Counters {
  std::uint64_t events = 0;
  std::uint64_t drain_passes = 0;
  std::uint64_t messages = 0;
  std::uint64_t ack_flush_ns = 0;
  std::uint64_t can_frames = 0;
  std::uint64_t can_dropped = 0;
  std::uint64_t pirte_installs = 0;
  std::uint64_t vm_activations = 0;
  std::uint64_t type2_rx = 0;
  std::uint64_t type3_rx = 0;
  std::uint64_t guard_drops = 0;
  std::uint64_t vm_faults = 0;
  std::uint64_t packages_routed = 0;
  std::uint64_t packages_local = 0;
  std::uint64_t external_in = 0;
  server::ServerStats server;

  /// Field-wise `this - before`.
  Counters Since(const Counters& before) const;
};

Counters Counters::Since(const Counters& b) const {
  Counters d;
  d.events = events - b.events;
  d.drain_passes = drain_passes - b.drain_passes;
  d.messages = messages - b.messages;
  d.ack_flush_ns = ack_flush_ns - b.ack_flush_ns;
  d.can_frames = can_frames - b.can_frames;
  d.can_dropped = can_dropped - b.can_dropped;
  d.pirte_installs = pirte_installs - b.pirte_installs;
  d.vm_activations = vm_activations - b.vm_activations;
  d.type2_rx = type2_rx - b.type2_rx;
  d.type3_rx = type3_rx - b.type3_rx;
  d.guard_drops = guard_drops - b.guard_drops;
  d.vm_faults = vm_faults - b.vm_faults;
  d.packages_routed = packages_routed - b.packages_routed;
  d.packages_local = packages_local - b.packages_local;
  d.external_in = external_in - b.external_in;
  d.server.packages_pushed = server.packages_pushed - b.server.packages_pushed;
  d.server.acks_received = server.acks_received - b.server.acks_received;
  d.server.nacks_received = server.nacks_received - b.server.nacks_received;
  d.server.repushes = server.repushes - b.server.repushes;
  d.server.rollback_pushes = server.rollback_pushes - b.server.rollback_pushes;
  return d;
}

struct Figure3World {
  std::unique_ptr<fes::Figure3Testbed> bed;
  std::vector<pirte::Pirte*> pirtes;

  Counters Read() const {
    auto& metrics = support::Metrics::Instance();
    Counters c;
    c.events = metrics.GetCounter("dacm_sim_events_total").Value();
    c.drain_passes = metrics.GetCounter("dacm_sim_drain_passes_total").Value();
    c.messages = bed->network().messages_delivered();
    c.ack_flush_ns = bed->server().ack_flush_nanos();
    c.can_frames = bed->vehicle().bus().frames_transmitted();
    c.can_dropped = bed->vehicle().bus().frames_dropped();
    for (const pirte::Pirte* pirte : pirtes) {
      const pirte::PirteStats& s = pirte->stats();
      c.pirte_installs += s.installs;
      c.vm_activations += s.vm_activations;
      c.type2_rx += s.type2_rx;
      c.type3_rx += s.type3_rx;
      c.guard_drops += s.guard_drops;
      c.vm_faults += s.vm_faults;
    }
    const pirte::EcmStats& ecm = bed->vehicle().ecm()->ecm_stats();
    c.packages_routed = ecm.packages_routed;
    c.packages_local = ecm.packages_local;
    c.external_in = ecm.external_in;
    c.server = bed->server().stats();
    return c;
  }
};

support::Result<Figure3World> Build(std::uint64_t seed) {
  fes::Figure3Options options;
  options.vin = "VIN-" + std::to_string(seed % 100000);
  Figure3World world;
  DACM_ASSIGN_OR_RETURN(world.bed, fes::Figure3Testbed::Create(options));
  DACM_RETURN_IF_ERROR(world.bed->SetUp());
  for (const char* name : {"PIRTE1", "PIRTE2"}) {
    pirte::Pirte* pirte = world.bed->vehicle().FindPirte(name);
    if (pirte == nullptr) return support::NotFound(std::string("no ") + name);
    world.pirtes.push_back(pirte);
  }
  return world;
}

/// One install or uninstall, measured.
struct Change {
  double host_us = 0;
  double call_us = 0;  // the synchronous server call alone
  double run_us = 0;   // the simulator run that follows it
  double sim_ms = 0;
  Counters delta;
};

/// What every operation keeps: 12 bytes, so a 20 s run of millions of
/// commands stays small.
struct Timing {
  float host_us = 0;
  float sim_ms = 0;
  std::uint32_t block = 0;  // calibration block (see Calibration)
};

/// One phone command, measured.
struct Sent {
  double host_us = 0;
  double run_us = 0;
  double sim_ms = 0;
  Counters delta;
};

/// User-triggered deploy (or uninstall) of `app`, run until the server
/// records kInstalled (or no longer lists the app).  Gate: the server
/// state, and for RemoteCar the two plug-ins the PIRTEs actually host.
Change ChangeApp(Figure3World& w, bool install, const std::string& app,
                 Spans& spans, Report& report) {
  fes::Figure3Testbed& bed = *w.bed;
  server::TrustedServer& server = bed.server();
  const std::string& vin = bed.options().vin;
  const auto done = [&]() {
    auto state = server.AppState(vin, app);
    return install ? state.ok() && *state == server::InstallState::kInstalled
                   : !state.ok() && state.status().code() == support::ErrorCode::kNotFound;
  };
  Change change;
  const Counters before = w.Read();
  const sim::SimTime sim0 = bed.simulator().Now();
  spans.BeginOp();
  const std::uint64_t t0 = NowNs();
  support::Status called;
  bool finished = false;
  {
    Spans::Scope op(spans, install ? "install" : "uninstall", "bench");
    {
      Spans::Scope span(spans, install ? "TrustedServer::Deploy" : "TrustedServer::UninstallApp",
                        "server");
      called = install ? server.Deploy(bed.user(), vin, app)
                       : server.UninstallApp(bed.user(), vin, app);
    }
    change.call_us = static_cast<double>(NowNs() - t0) / 1e3;
    if (called.ok()) {
      Spans::Scope span(spans, "Figure3Testbed::RunUntil", "sim");
      finished = bed.RunUntil(done, kTimeout);
    }
  }
  change.host_us = static_cast<double>(NowNs() - t0) / 1e3;
  change.run_us = change.host_us - change.call_us;
  change.sim_ms = static_cast<double>(bed.simulator().Now() - sim0) / sim::kMillisecond;
  change.delta = w.Read().Since(before);
  const char* verb = install ? "deploy of " : "uninstall of ";
  if (!called.ok()) {
    report.Fail(verb + app + ": " + called.ToString());
  } else if (!finished) {
    report.Fail(verb + app + " did not finish within 5 s of sim time");
  } else {
    report.Pass();
  }
  if (install && app == kApp) {
    if (change.delta.pirte_installs == 2) {
      report.Pass();
    } else {
      report.Fail("PIRTEs installed " + std::to_string(change.delta.pirte_installs) +
                  " plug-ins for RemoteCar (COM + OP expected)");
    }
  }
  return change;
}

/// One phone command, run until the motor control observes it.  Gate: the
/// motor saw exactly one more command of that kind, with the sent value.
Sent SendCommand(Figure3World& w, const Command& command, Spans& spans, Report& report) {
  fes::Figure3Testbed& bed = *w.bed;
  const auto count = [&]() {
    return command.wheels ? bed.wheels_commands() : bed.speed_commands();
  };
  const std::uint64_t before_count = count();
  Sent sent;
  const Counters before = w.Read();
  const sim::SimTime sim0 = bed.simulator().Now();
  spans.BeginOp();
  const std::uint64_t t0 = NowNs();
  support::Status status;
  bool arrived = false;
  std::uint64_t t1 = t0;
  {
    Spans::Scope op(spans, "command", "bench");
    {
      Spans::Scope span(spans, "ExternalDevice::Send", "phone");
      status = bed.phone().Send(command.wheels ? "Wheels" : "Speed",
                                fes::EncodeControl(command.value));
    }
    t1 = NowNs();
    if (status.ok()) {
      Spans::Scope span(spans, "Figure3Testbed::RunUntil", "sim");
      arrived = bed.RunUntil([&]() { return count() > before_count; }, 2 * sim::kSecond);
    }
  }
  const std::uint64_t t2 = NowNs();
  sent.host_us = static_cast<double>(t2 - t0) / 1e3;
  sent.run_us = static_cast<double>(t2 - t1) / 1e3;
  sent.sim_ms = static_cast<double>(bed.simulator().Now() - sim0) / sim::kMillisecond;
  sent.delta = w.Read().Since(before);
  const std::int32_t seen = command.wheels ? bed.last_wheels() : bed.last_speed();
  const bool ok = status.ok() && arrived && count() == before_count + 1 &&
                  seen == command.value;
  if (ok) {
    report.Pass();
  } else {
    report.Fail(std::string(command.wheels ? "Wheels " : "Speed ") +
                std::to_string(command.value) + " reached the motor as " +
                std::to_string(seen) + " (" + status.ToString() + ")");
  }
  return sent;
}

/// The sim-time and count values of a sequence of changes and commands.
std::string DigestOf(const std::vector<Change>& changes, const std::vector<Sent>& sent) {
  std::string text;
  char item[96];
  for (const Change& c : changes) {
    std::snprintf(item, sizeof(item), "c%.6f/%llu/%llu ", c.sim_ms,
                  static_cast<unsigned long long>(c.delta.events),
                  static_cast<unsigned long long>(c.delta.can_frames));
    text += item;
  }
  for (const Sent& s : sent) {
    std::snprintf(item, sizeof(item), "m%.6f/%llu ", s.sim_ms,
                  static_cast<unsigned long long>(s.delta.events));
    text += item;
  }
  return text;
}

}  // namespace

void RunFigure3(const Options& options, Spans& spans, Report& report) {
  const std::vector<Command> commands = MakeCommands(options.seed, 4096);
  const std::uint64_t rss0 = RssBytes();
  std::uint64_t rss_setup = 0;
  std::vector<double> setup_s;
  std::string digest;
  std::unique_ptr<Figure3World> world;
  Calibration calibration;
  calibration.Sample();
  for (std::size_t s = 0; s < kSetups; ++s) {
    world.reset();  // tear the previous set-up down outside the timing
    const std::size_t block = calibration.next();
    const std::uint64_t t0 = NowNs();
    auto built = Build(options.seed);
    if (!built.ok()) {
      report.Fail("testbed bring-up: " + built.status().ToString());
      return;
    }
    world = std::make_unique<Figure3World>(std::move(*built));
    if (s == 0) rss_setup = RssBytes() - std::min(rss0, RssBytes());
    // Warm-up: one install, a few commands and the uninstall.  Counted
    // under setup_s, kept out of the timed medians.
    std::vector<Change> changes;
    std::vector<Sent> sent;
    changes.push_back(ChangeApp(*world, true, kApp, spans, report));
    for (std::size_t i = 0; i < kWarmupCommands; ++i) {
      sent.push_back(SendCommand(*world, commands[i], spans, report));
    }
    changes.push_back(ChangeApp(*world, false, kApp, spans, report));
    const double host_s = static_cast<double>(NowNs() - t0) / 1e9;
    calibration.Sample();
    setup_s.push_back(host_s * calibration.Factor(block));
    const std::string warm = DigestOf(changes, sent);
    if (s == 0) {
      digest = warm;
    } else {
      report.Tally(1, warm == digest ? 0 : 1,
                   "set-up " + std::to_string(s) + " diverged from set-up 0");
    }
  }
  Figure3World& w = *world;

  if (options.inject_failure) {
    // An app whose only SW conf names a model nobody uploaded: the server
    // must reject the deploy, and the gate must count that.
    server::App unhostable = fes::MakeRemoteCarApp(w.bed->options().phone_address);
    unhostable.name = "unhostable";
    unhostable.confs.front().vehicle_model = "no-such-model";
    (void)w.bed->server().UploadApp(std::move(unhostable));
    (void)ChangeApp(w, true, "unhostable", spans, report);
  }

  support::Histogram& ack_flush =
      support::Metrics::Instance().GetHistogram("dacm_ack_flush_nanos");
  ack_flush.Reset();
  const std::uint64_t start = NowNs();
  const auto half = static_cast<std::uint64_t>(options.seconds * 0.5e9);
  // Samples the reference between operations once per block of host time.
  std::uint64_t block_end = 0;
  const auto next_block = [&]() {
    if (NowNs() >= block_end) {
      calibration.Sample();
      block_end = NowNs() + kCalibrationBlockNs;
    }
    return static_cast<std::uint32_t>(calibration.next());
  };

  // Install phase: deploy + uninstall cycles.  Every operation keeps its
  // timing; the first kDetailedOps keep their full counters too, for the
  // per-layer ledger and the digest.  Traced runs alternate untraced and
  // traced operations among those; the ratio of their medians is the
  // tracing overhead.
  std::vector<Timing> install_times, uninstall_times, command_times;
  std::vector<Change> installs, uninstalls;
  std::vector<double> plain_install, traced_install;
  while (install_times.size() < kMinInstalls || NowNs() < start + half) {
    const bool detailed = install_times.size() < kDetailedOps;
    const std::uint32_t block = next_block();
    spans.set_enabled(options.trace && detailed && install_times.size() % 2 == 1);
    const bool recorded = spans.enabled();
    Change install = ChangeApp(w, true, kApp, spans, report);
    Change uninstall = ChangeApp(w, false, kApp, spans, report);
    spans.set_enabled(false);
    install_times.push_back({static_cast<float>(install.host_us), static_cast<float>(install.sim_ms), block});
    uninstall_times.push_back({static_cast<float>(uninstall.host_us), static_cast<float>(uninstall.sim_ms), block});
    if (!detailed) continue;
    (recorded ? traced_install : plain_install).push_back(install.host_us);
    installs.push_back(std::move(install));
    uninstalls.push_back(std::move(uninstall));
  }

  // Command phase, on a freshly installed RemoteCar.  It starts on a whole
  // sim second: how many install cycles fit into --seconds varies, and the
  // testbed's periodic tasks (20 ms VM steps, 100 ms speed measurement)
  // must meet the commands at the same phase in every run of a seed.
  sim::Simulator& simulator = w.bed->simulator();
  simulator.RunUntil((simulator.Now() / sim::kSecond + 1) * sim::kSecond);
  (void)ChangeApp(w, true, kApp, spans, report);
  const std::uint64_t command_start = NowNs();
  std::vector<Sent> sent;
  std::vector<double> plain_command, traced_command;
  while (command_times.size() < kMinCommands || NowNs() < command_start + half) {
    const bool detailed = command_times.size() < kDetailedOps;
    const std::uint32_t block = next_block();
    spans.set_enabled(options.trace && detailed && command_times.size() % 2 == 1);
    const bool recorded = spans.enabled();
    Sent one = SendCommand(w, commands[command_times.size() % commands.size()], spans, report);
    spans.set_enabled(false);
    command_times.push_back({static_cast<float>(one.host_us), static_cast<float>(one.sim_ms), block});
    if (!detailed) continue;
    (recorded ? traced_command : plain_command).push_back(one.host_us);
    sent.push_back(std::move(one));
  }
  calibration.Sample();
  (void)ChangeApp(w, false, kApp, spans, report);
  report.rounds = install_times.size() + command_times.size();

  // Host timings are reported calibrated (see Calibration).
  const auto host_us = [&](const Timing& t) { return t.host_us * calibration.Factor(t.block); };
  const auto sim_ms = [](const auto& x) { return x.sim_ms; };
  const double install_us = MedianOf(install_times, host_us);
  report.E2e("deploys_per_s", 1e6 / install_us, "1/s");
  report.E2e("rollbacks_per_s", 1e6 / MedianOf(uninstall_times, host_us), "1/s");
  report.E2e("install_host_us", install_us, "us");
  report.E2e("install_host_p99_us", QuantileOf(install_times, 0.99, host_us), "us");
  report.E2e("install_n", static_cast<double>(install_times.size()), "count");
  report.E2e("install_sim_ms", MedianOf(install_times, sim_ms), "sim_ms");
  report.E2e("commands_per_s", 1e6 / MedianOf(command_times, host_us), "1/s");
  report.E2e("command_p99_sim_ms", QuantileOf(command_times, 0.99, sim_ms), "sim_ms");
  report.E2e("setup_s", Median(setup_s), "s");
  report.E2e("host_reference_ms", calibration.MedianSeconds() * 1e3, "ms");
  // Digest fields come from the fixed-size prefix every run executes, so
  // they do not depend on how many operations fit into --seconds.
  const std::vector<Change> first_installs(installs.begin(), installs.begin() + kMinInstalls);
  const std::vector<Sent> first_sent(sent.begin(), sent.begin() + kMinCommands);
  report.digest["install_sim_ms"] = MedianOf(first_installs, sim_ms);
  report.digest["command_p99_sim_ms"] = QuantileOf(first_sent, 0.99, sim_ms);
  report.digest["sim.events_per_install"] =
      MedianOf(first_installs, [](const Change& c) { return c.delta.events; });
  report.digest_text = digest + DigestOf(first_installs, first_sent);
  if (!options.trace) return;

  // --- per-layer ledger (traced run) ---------------------------------------
  const auto per_install = [&](auto field) { return MedianOf(installs, field); };
  const auto per_command = [&](auto field) { return MedianOf(sent, field); };
  report.Layer("sim.events", MedianOf(installs, [&](const Change& c) {
                 return c.delta.events;
               }) + MedianOf(uninstalls, [](const Change& c) { return c.delta.events; }),
               "count");
  report.Layer("sim.run_s", (MedianOf(installs, [](const Change& c) { return c.run_us; }) +
                             MedianOf(uninstalls, [](const Change& c) { return c.run_us; })) /
                                1e6,
               "s");
  report.Layer("sim.ns_per_event", per_install([](const Change& c) {
                 const double run_ns = c.run_us * 1e3 - static_cast<double>(c.delta.ack_flush_ns);
                 return run_ns / static_cast<double>(std::max<std::uint64_t>(c.delta.events, 1));
               }),
               "ns");
  report.Layer("sim.drain_passes", per_install([](const Change& c) { return c.delta.drain_passes; }), "count");
  report.Layer("net.messages_per_vehicle", per_install([](const Change& c) { return c.delta.messages; }), "count");
  report.Layer("net.messages_per_command", per_command([](const Sent& s) { return s.delta.messages; }), "count");
  report.Layer("server.ack_flush_s",
               per_install([](const Change& c) { return static_cast<double>(c.delta.ack_flush_ns) / 1e9; }), "s");
  report.Layer("server.ack_flush_p99_us", ack_flush.Quantile(0.99) / 1e3, "us");
  {
    // GeneratePackages on the RemoteCar inputs, timed from outside.
    const server::App app = fes::MakeRemoteCarApp(w.bed->options().phone_address);
    const server::VehicleModelConf model = fes::MakeRpiTestbedConf();
    std::vector<double> generate_us;
    for (int i = 0; i < 64; ++i) {
      server::UsedIdMap used;
      const std::uint64_t t0 = NowNs();
      auto generated = server::GeneratePackages(app, app.confs.front(), model.sw, used);
      generate_us.push_back(static_cast<double>(NowNs() - t0) / 1e3);
      report.Tally(1, generated.ok() ? 0 : 1, "GeneratePackages on the RemoteCar inputs");
    }
    report.Layer("server.generate_us", Median(generate_us), "us");
  }
  report.Layer("server.deploy_call_us", per_install([](const Change& c) { return c.call_us; }), "us");
  report.Layer("server.packages_pushed", per_install([](const Change& c) { return c.delta.server.packages_pushed; }), "count");
  report.Layer("server.acks", per_install([](const Change& c) { return c.delta.server.acks_received; }), "count");
  report.Layer("server.nacks", per_install([](const Change& c) { return c.delta.server.nacks_received; }), "count");
  report.Layer("server.repushes", per_install([](const Change& c) { return c.delta.server.repushes; }), "count");
  report.Layer("server.rollback_pushes",
               MedianOf(uninstalls, [](const Change& c) { return c.delta.server.rollback_pushes; }), "count");
  report.Layer("vehicle.install_run_us", per_install([](const Change& c) { return c.run_us; }), "us");
  report.Layer("vehicle.command_run_us", per_command([](const Sent& s) { return s.run_us; }), "us");
  report.Layer("sim.events_per_install", per_install([](const Change& c) { return c.delta.events; }), "count");
  report.Layer("sim.events_per_command", per_command([](const Sent& s) { return s.delta.events; }), "count");
  report.Layer("pirte.installs", per_install([](const Change& c) { return c.delta.pirte_installs; }), "count");
  report.Layer("pirte.vm_activations_per_command", per_command([](const Sent& s) { return s.delta.vm_activations; }), "count");
  report.Layer("pirte.type2_rx", per_command([](const Sent& s) { return s.delta.type2_rx; }), "count");
  report.Layer("pirte.type3_rx", per_command([](const Sent& s) { return s.delta.type3_rx; }), "count");
  const Counters total = w.Read();
  report.Layer("pirte.guard_drops", static_cast<double>(total.guard_drops), "count");
  report.Layer("pirte.vm_faults", static_cast<double>(total.vm_faults), "count");
  report.Layer("ecm.packages_routed", per_install([](const Change& c) { return c.delta.packages_routed; }), "count");
  report.Layer("ecm.packages_local", per_install([](const Change& c) { return c.delta.packages_local; }), "count");
  report.Layer("ecm.external_in_per_command", per_command([](const Sent& s) { return s.delta.external_in; }), "count");
  report.Layer("can.frames_per_install", per_install([](const Change& c) { return c.delta.can_frames; }), "count");
  report.Layer("can.frames_per_command", per_command([](const Sent& s) { return s.delta.can_frames; }), "count");
  report.Layer("can.frames_dropped", static_cast<double>(total.can_dropped), "count");
  report.Layer("mem.rss_setup_bytes", static_cast<double>(rss_setup), "B");
  report.Layer("mem.rss_peak_bytes", static_cast<double>(PeakRssBytes()), "B");
  const double overhead = (Median(traced_install) / Median(plain_install) +
                           Median(traced_command) / Median(plain_command)) / 2 - 1;
  report.Layer("trace.overhead_pct", overhead * 100, "%");
}

}  // namespace dacm::perfbench
