// Systematic crash-point injection sweep.
//
// The kill-and-restart tests in test_recovery.cpp crash at a handful of
// hand-picked times.  This harness removes the hand-picking: a recording
// pass runs a campaign to convergence over a CrashPointSink that counts
// every durability op (status-log and journal Append / Sync / Rotate
// share ONE CrashClock, so op numbers order the interleaved stream) and
// timestamps each op with the simulator clock.  Then, for every
// reachable op number N, a fresh world replays the identical schedule
// armed to die at op N — the N-th write fails (optionally leaking a torn
// prefix), every later write fails too, and the process is killed one
// nanosecond after the recorded time of op N and rebuilt from nothing
// but the durable logs.
//
// The acceptance bar for every N: the campaign still converges and the
// final fleet image is BYTE-IDENTICAL to the uninterrupted run's —
// DescribeFleet() text and FleetFingerprint() both equal.  Identical
// describe output is also the no-duplicate-install proof: a doubled row
// or re-claimed port id would change the paragraph text.  No catalog
// re-upload happens by construction — recovery replays the logs alone.
//
// Determinism notes (why the recorded op times are valid for the armed
// run): the whole stack runs on the simulation thread, the fault
// scenario is seeded, and the armed run is
// bit-identical to the recording until op N fails — so op N occurs at
// exactly the recorded T_N, and a kill at T_N + 1 lands strictly between
// the crash point and the next simulator event that could diverge.
//
// Labelled `recovery` (ctest): the ASan/UBSan and TSan CI jobs run it.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "fes/appgen.hpp"
#include "fes/fleet.hpp"
#include "fes/testbed.hpp"
#include "server/campaign.hpp"
#include "server/journal.hpp"
#include "server/server.hpp"
#include "sim/fault.hpp"
#include "sim/network.hpp"
#include "sim/simulator.hpp"
#include "support/storage.hpp"

namespace dacm {
namespace {

using server::CampaignStatus;
using support::CrashClock;
using support::CrashPointSink;
using support::MemorySink;
using support::ReplayRecords;

/// Sweep knobs, overridable for deeper soak runs:
///   DACM_SWEEP_FLEET  — fleet size for the exhaustive sweep (default 12)
///   DACM_SWEEP_STRIDE — op stride for the 1k-vehicle sweep (default 199)
std::uint64_t EnvKnob(const char* name, std::uint64_t fallback) {
  const char* value = std::getenv(name);
  if (value == nullptr || *value == '\0') return fallback;
  return std::strtoull(value, nullptr, 10);
}

server::RetryPolicy SweepPolicy() {
  server::RetryPolicy policy;
  policy.max_waves = 10;
  policy.settle_delay = 50 * sim::kMillisecond;
  policy.initial_backoff = 200 * sim::kMillisecond;
  policy.backoff_multiplier = 2.0;
  policy.max_backoff = 2 * sim::kSecond;
  return policy;
}

/// A campaign world writing both durable logs through CrashPointSinks
/// that share one clock.  Kill() destroys the server-side objects;
/// Recover() rebuilds them from the raw logs alone — no re-uploads, and
/// the fresh process writes the raw sinks directly (a new process has a
/// new disk handle, not the dead one).
struct CrashRig {
  sim::Simulator simulator;
  sim::Network network{simulator, sim::kMillisecond};
  MemorySink status_raw;
  MemorySink journal_raw;
  CrashClock clock;
  CrashPointSink status_crash{status_raw, clock};
  CrashPointSink journal_crash{journal_raw, clock};
  std::unique_ptr<server::CampaignJournal> journal;
  std::unique_ptr<server::TrustedServer> server;
  std::unique_ptr<server::CampaignEngine> engine;
  server::UserId user = server::UserId::Invalid();
  std::unique_ptr<fes::ScriptedFleet> fleet;
  std::uint64_t compact_bytes;
  std::uint64_t journal_compact_bytes;

  CrashRig(std::size_t vehicles, std::uint64_t compact_after_bytes,
           std::uint64_t journal_watermark)
      : compact_bytes(compact_after_bytes),
        journal_compact_bytes(journal_watermark) {
    clock.SetNowFn([this] { return simulator.Now(); });
    MakeServer(&status_crash);
    EXPECT_TRUE(server->UploadVehicleModel(fes::MakeRpiTestbedConf()).ok());
    user = *server->CreateUser("ops");
    fes::SyntheticAppParams params;
    params.name = "sweep-app";
    params.vehicle_model = "rpi-testbed";
    params.plugin_count = 2;
    params.target_ecu = 1;
    EXPECT_TRUE(server->UploadApp(fes::MakeSyntheticApp(params)).ok());
    fes::ScriptedFleetOptions options;
    options.vehicle_count = vehicles;
    fleet = std::make_unique<fes::ScriptedFleet>(simulator, network, *server,
                                                 options);
    EXPECT_TRUE(fleet->BindAndConnect(user).ok());
    journal = std::make_unique<server::CampaignJournal>(journal_crash);
    NewEngine();
  }

  void MakeServer(support::RecordSink* sink) {
    server::ServerOptions options;
    options.status_sink = sink;
    options.compact_after_bytes = compact_bytes;
    server =
        std::make_unique<server::TrustedServer>(network, "srv:443", options);
    EXPECT_TRUE(server->Start().ok());
  }

  void NewEngine() {
    engine = std::make_unique<server::CampaignEngine>(simulator, *server);
    engine->AttachJournal(journal.get());
    engine->SetJournalCompactionWatermark(journal_compact_bytes);
  }

  void Kill() {
    engine.reset();
    server.reset();
    journal.reset();
  }

  static void TruncateToDurable(MemorySink& sink) {
    auto stats = ReplayRecords(sink.bytes(),
                               [](std::span<const std::uint8_t>) {
                                 return support::OkStatus();
                               });
    ASSERT_TRUE(stats.ok()) << stats.status().ToString();
    sink.TruncateTo(stats->valid_bytes);
  }

  void Recover() {
    TruncateToDurable(status_raw);
    TruncateToDurable(journal_raw);
    MakeServer(&status_raw);
    const support::Status recovered =
        server->RecoverInstallDb(status_raw.bytes());
    EXPECT_TRUE(recovered.ok()) << recovered.ToString();
    fleet->RetargetServer(*server);
    fleet->RedialDead();
    journal = std::make_unique<server::CampaignJournal>(journal_raw);
    NewEngine();
    const support::Status resumed = engine->Recover(journal_raw.bytes());
    EXPECT_TRUE(resumed.ok()) << resumed.ToString();
  }
};

struct SweepOutcome {
  bool converged = false;
  bool reissued = false;  // campaign lost before a durable kStart
  std::string fleet_describe;
  std::uint64_t fingerprint = 0;
  std::uint64_t compactions = 0;         // status-log rotations that landed
  std::uint64_t setup_ops = 0;           // recording pass only
  std::uint64_t total_ops = 0;           // recording pass only
  std::vector<std::uint64_t> op_times;   // recording pass only
};

/// One full campaign.  `crash_at` == 0 is the
/// recording pass; otherwise the world dies at durability op `crash_at`
/// (leaking `tear_bytes` of the armed append) at recorded time
/// `kill_time` + 1 and recovers from the logs.  If the crash predates
/// the journal's kStart the campaign never existed durably — the
/// operator re-issues it, the one legitimate client-side retry in the
/// model.
SweepOutcome RunSweepCampaign(std::size_t vehicles, bool churn,
                              std::uint64_t compact_after_bytes,
                              std::uint64_t journal_watermark,
                              std::uint64_t crash_at, std::size_t tear_bytes,
                              std::uint64_t kill_time) {
  CrashRig rig(vehicles, compact_after_bytes, journal_watermark);
  SweepOutcome out;
  out.setup_ops = rig.clock.ops();

  sim::FaultScenario faults(rig.simulator, rig.network, /*seed=*/1914);
  if (churn) {
    faults.AddOfflineChurn(*rig.fleet, /*fraction=*/0.20,
                           /*horizon=*/10 * sim::kMillisecond,
                           /*min_offline=*/100 * sim::kMillisecond,
                           /*max_offline=*/400 * sim::kMillisecond);
  }
  if (crash_at != 0) {
    rig.clock.Arm(crash_at, tear_bytes);
    faults.KillAndRestartServer(
        kill_time + 1 - rig.simulator.Now(), [&rig] { rig.Kill(); },
        [&rig] { rig.Recover(); });
  }

  auto id = rig.engine->StartDeploy(rig.user, "sweep-app", rig.fleet->vins(),
                                    SweepPolicy());
  EXPECT_TRUE(id.ok()) << id.status().ToString();
  if (!id.ok()) return out;
  rig.simulator.Run();

  if (!rig.engine->Snapshot(*id).ok()) {
    out.reissued = true;
    id = rig.engine->StartDeploy(rig.user, "sweep-app", rig.fleet->vins(),
                                 SweepPolicy());
    EXPECT_TRUE(id.ok()) << id.status().ToString();
    if (!id.ok()) return out;
    rig.simulator.Run();
  }

  auto snapshot = rig.engine->Snapshot(*id);
  EXPECT_TRUE(snapshot.ok());
  out.converged =
      snapshot.ok() && snapshot->status == CampaignStatus::kConverged;
  out.fleet_describe = rig.server->DescribeFleet();
  out.fingerprint = rig.server->FleetFingerprint();
  out.compactions = rig.server->stats().compactions;
  out.total_ops = rig.clock.ops();
  out.op_times = rig.clock.op_times();
  return out;
}

// Every reachable crash point in a small campaign, with compaction
// watermarks low enough that status-log AND journal rotations are among
// the swept ops.  Tear lengths cycle pseudo-randomly so torn-prefix
// recovery is exercised at many boundaries, not just budget-shaped ones.
TEST(CrashPointSweepTest, EveryDurabilityOpRecoversByteIdentically) {
  const std::size_t vehicles =
      static_cast<std::size_t>(EnvKnob("DACM_SWEEP_FLEET", 12));
  constexpr std::uint64_t kCompactBytes = 2 * 1024;
  constexpr std::uint64_t kJournalBytes = 1024;

  const SweepOutcome base = RunSweepCampaign(
      vehicles, /*churn=*/false, kCompactBytes, kJournalBytes,
      /*crash_at=*/0, /*tear_bytes=*/0, /*kill_time=*/0);
  ASSERT_TRUE(base.converged);
  ASSERT_EQ(base.op_times.size(), base.total_ops);
  ASSERT_GT(base.total_ops, base.setup_ops);
  // The low watermarks must make checkpoint rotation one of the swept op
  // kinds — a sweep that never crosses a Rotate proves nothing about it.
  ASSERT_GE(base.compactions, 1u);
  std::cout << "[sweep] " << (base.total_ops - base.setup_ops)
            << " crash points (ops " << base.setup_ops + 1 << ".."
            << base.total_ops << "), " << base.compactions
            << " compaction(s) in the recording pass\n";

  for (std::uint64_t n = base.setup_ops + 1; n <= base.total_ops; ++n) {
    const std::size_t tear = static_cast<std::size_t>((n * 7919) % 23);
    const SweepOutcome crashed = RunSweepCampaign(
        vehicles, /*churn=*/false, kCompactBytes, kJournalBytes,
        /*crash_at=*/n, tear, /*kill_time=*/base.op_times[n - 1]);
    ASSERT_TRUE(crashed.converged) << "crash point " << n;
    EXPECT_EQ(crashed.fleet_describe, base.fleet_describe)
        << "crash point " << n << " (tear " << tear << ")";
    EXPECT_EQ(crashed.fingerprint, base.fingerprint) << "crash point " << n;
  }
}

// The fleet-scale flavor: 1000 vehicles with 20% offline churn, crash
// points sampled on a prime stride (so the samples drift across record
// kinds instead of aliasing onto one).  DACM_SWEEP_STRIDE=1 turns this
// into the exhaustive soak.
TEST(CrashPointSweepTest, StridedSweepAtFleetScaleUnderChurn) {
  constexpr std::size_t kVehicles = 1000;
  constexpr std::uint64_t kCompactBytes = 64 * 1024;
  constexpr std::uint64_t kJournalBytes = 32 * 1024;

  const SweepOutcome base = RunSweepCampaign(
      kVehicles, /*churn=*/true, kCompactBytes, kJournalBytes,
      /*crash_at=*/0, /*tear_bytes=*/0, /*kill_time=*/0);
  ASSERT_TRUE(base.converged);
  ASSERT_GT(base.total_ops, base.setup_ops);
  ASSERT_GE(base.compactions, 1u);

  const std::uint64_t stride = EnvKnob("DACM_SWEEP_STRIDE", 199);
  std::size_t points = 0;
  for (std::uint64_t n = base.setup_ops + 1; n <= base.total_ops;
       n += stride) {
    const std::size_t tear = static_cast<std::size_t>((n * 7919) % 23);
    const SweepOutcome crashed = RunSweepCampaign(
        kVehicles, /*churn=*/true, kCompactBytes, kJournalBytes,
        /*crash_at=*/n, tear, /*kill_time=*/base.op_times[n - 1]);
    ASSERT_TRUE(crashed.converged) << "crash point " << n;
    EXPECT_EQ(crashed.fleet_describe, base.fleet_describe)
        << "crash point " << n;
    EXPECT_EQ(crashed.fingerprint, base.fingerprint) << "crash point " << n;
    ++points;
  }
  EXPECT_GE(points, 10u);
}

}  // namespace
}  // namespace dacm
