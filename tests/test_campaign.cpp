// Campaign orchestration under induced faults: multi-wave retry
// convergence over offline churn, link flaps and nack cohorts; abort
// thresholds on pathological (all-nack) fleets; rollback campaigns
// restoring the pre-deploy install set; and the seeded determinism of the
// whole machine — two identically seeded faulted runs must produce
// byte-identical campaign fingerprints.
//
// Labelled `faults` in ctest; the TSan CI job runs this suite to keep the
// wave pushes and ack-inbox flushes race-clean against the process-wide
// telemetry.
#include <gtest/gtest.h>

#include "fes/appgen.hpp"
#include "fes/fleet.hpp"
#include "fes/testbed.hpp"
#include "fes/vehicle.hpp"
#include "pirte/protocol.hpp"
#include "server/campaign.hpp"
#include "sim/fault.hpp"

namespace dacm {
namespace {

using server::CampaignRowState;
using server::CampaignStatus;
using server::InstallState;

/// Quick cadence for tests: sim-time is free, wall time is not.
server::RetryPolicy FastPolicy(std::size_t max_waves = 6) {
  server::RetryPolicy policy;
  policy.max_waves = max_waves;
  policy.settle_delay = 50 * sim::kMillisecond;
  policy.initial_backoff = 200 * sim::kMillisecond;
  policy.backoff_multiplier = 2.0;
  policy.max_backoff = 2 * sim::kSecond;
  return policy;
}

struct ScriptedCampaign {
  sim::Simulator simulator;
  sim::Network network{simulator, sim::kMillisecond};
  server::TrustedServer server;
  server::CampaignEngine engine{simulator, server};
  server::UserId user = server::UserId::Invalid();
  std::unique_ptr<fes::ScriptedFleet> fleet;

  explicit ScriptedCampaign(std::size_t vehicles, std::size_t nack_every = 0)
      : server(network, "srv:443") {
    EXPECT_TRUE(server.Start().ok());
    EXPECT_TRUE(server.UploadVehicleModel(fes::MakeRpiTestbedConf()).ok());
    user = *server.CreateUser("ops");
    fes::ScriptedFleetOptions options;
    options.vehicle_count = vehicles;
    options.nack_every = nack_every;
    fleet = std::make_unique<fes::ScriptedFleet>(simulator, network, server,
                                                 options);
    EXPECT_TRUE(fleet->BindAndConnect(user).ok());
  }

  void UploadApp(const std::string& name, std::uint32_t plugins = 2) {
    fes::SyntheticAppParams params;
    params.name = name;
    params.vehicle_model = "rpi-testbed";
    params.plugin_count = plugins;
    params.target_ecu = 1;
    EXPECT_TRUE(server.UploadApp(fes::MakeSyntheticApp(params)).ok());
  }
};

TEST(CampaignEngineTest, RetryWaveConvergesAnOfflineCohort) {
  ScriptedCampaign rig(/*vehicles=*/32);
  rig.UploadApp("maps");

  // A quarter of the fleet is dark when the campaign starts and dials
  // back in before the second wave.
  sim::FaultScenario faults(rig.simulator, rig.network, /*seed=*/7);
  for (std::size_t i = 0; i < 8; ++i) {
    faults.ChurnAfter(*rig.fleet, i, /*after=*/0, /*offline_for=*/150 * sim::kMillisecond);
  }
  auto id = rig.engine.StartDeploy(rig.user, "maps", rig.fleet->vins(), FastPolicy());
  ASSERT_TRUE(id.ok()) << id.status().ToString();
  rig.simulator.Run();

  ASSERT_TRUE(rig.engine.Finished(*id));
  auto snapshot = *rig.engine.Snapshot(*id);
  EXPECT_EQ(snapshot.status, CampaignStatus::kConverged);
  EXPECT_EQ(snapshot.done, 32u);
  EXPECT_EQ(snapshot.waves_pushed, 2u);
  EXPECT_EQ(snapshot.total_pushes, 40u);  // 32 first wave + 8 retries
  for (const std::string& vin : rig.fleet->vins()) {
    EXPECT_EQ(*rig.server.AppState(vin, "maps"), InstallState::kInstalled) << vin;
  }
  const auto* churned = rig.engine.FindRow(*id, rig.fleet->vins()[0]);
  ASSERT_NE(churned, nullptr);
  EXPECT_EQ(churned->attempts, 2u);
  const auto* steady = rig.engine.FindRow(*id, rig.fleet->vins()[31]);
  ASSERT_NE(steady, nullptr);
  EXPECT_EQ(steady->attempts, 1u);
}

TEST(CampaignEngineTest, AllNackCampaignAbortsAtTheConfiguredThreshold) {
  ScriptedCampaign rig(/*vehicles=*/12, /*nack_every=*/1);
  rig.UploadApp("bad-app");

  auto policy = FastPolicy(/*max_waves=*/5);
  policy.abort_nack_fraction = 0.5;
  auto id = rig.engine.StartDeploy(rig.user, "bad-app", rig.fleet->vins(), policy);
  ASSERT_TRUE(id.ok());
  rig.simulator.Run();

  ASSERT_TRUE(rig.engine.Finished(*id));
  auto snapshot = *rig.engine.Snapshot(*id);
  EXPECT_EQ(snapshot.status, CampaignStatus::kAborted);
  // The abort fires at the first evaluation — no retry waves wasted on a
  // fleet that is systematically rejecting.
  EXPECT_EQ(snapshot.waves_pushed, 1u);
  EXPECT_EQ(snapshot.total_pushes, 12u);
  EXPECT_EQ(snapshot.failed, 12u);
  for (const std::string& vin : rig.fleet->vins()) {
    EXPECT_EQ(*rig.server.AppState(vin, "bad-app"), InstallState::kFailed) << vin;
    const auto* row = rig.engine.FindRow(*id, vin);
    ASSERT_NE(row, nullptr);
    EXPECT_EQ(row->state, CampaignRowState::kFailed);
  }
  EXPECT_EQ(rig.server.stats().nacks_received, 24u);  // 12 vehicles x 2 plug-ins
}

TEST(CampaignEngineTest, MidCampaignLinkFlapLeavesNoRowStrandedPending) {
  ScriptedCampaign rig(/*vehicles=*/16);
  rig.UploadApp("maps");

  // The flap covers the acknowledgement send (install deliveries land at
  // +1 ms, the link is dark from +0.5 ms to +1.5 ms): every push lands,
  // every ack is lost, and the server's rows are stranded kPending — the
  // exact state only a re-push of the recorded batch can resolve.
  sim::FaultScenario faults(rig.simulator, rig.network, /*seed=*/3);
  faults.LinkFlapAfter(500 * sim::kMicrosecond, sim::kMillisecond);

  auto id = rig.engine.StartDeploy(rig.user, "maps", rig.fleet->vins(), FastPolicy());
  ASSERT_TRUE(id.ok());
  rig.simulator.Run();

  ASSERT_TRUE(rig.engine.Finished(*id));
  auto snapshot = *rig.engine.Snapshot(*id);
  EXPECT_EQ(snapshot.status, CampaignStatus::kConverged);
  EXPECT_EQ(snapshot.done, 16u);
  EXPECT_EQ(snapshot.pending + snapshot.pushed, 0u);
  EXPECT_EQ(snapshot.waves_pushed, 2u);
  // The retry wave re-pushed the recorded batches instead of regenerating.
  EXPECT_EQ(rig.server.stats().repushes, 16u);
  for (const std::string& vin : rig.fleet->vins()) {
    EXPECT_EQ(*rig.server.AppState(vin, "maps"), InstallState::kInstalled) << vin;
  }
}

TEST(CampaignEngineTest, PermanentlyOfflineVehicleExhaustsTheWaveBudget) {
  ScriptedCampaign rig(/*vehicles=*/2);
  rig.UploadApp("maps");
  ASSERT_TRUE(rig.fleet->TakeOffline(1).ok());

  auto id = rig.engine.StartDeploy(rig.user, "maps", rig.fleet->vins(),
                                   FastPolicy(/*max_waves=*/3));
  ASSERT_TRUE(id.ok());
  rig.simulator.Run();

  auto snapshot = *rig.engine.Snapshot(*id);
  EXPECT_EQ(snapshot.status, CampaignStatus::kExhausted);
  EXPECT_EQ(snapshot.done, 1u);
  EXPECT_EQ(snapshot.failed, 1u);
  EXPECT_EQ(snapshot.waves_pushed, 3u);
  const auto* row = rig.engine.FindRow(*id, rig.fleet->vins()[1]);
  ASSERT_NE(row, nullptr);
  EXPECT_EQ(row->state, CampaignRowState::kFailed);
  EXPECT_EQ(row->attempts, 3u);
  EXPECT_EQ(row->error, support::ErrorCode::kUnavailable);
}

TEST(CampaignEngineTest, NackCohortHealsAndTheCampaignConverges) {
  ScriptedCampaign rig(/*vehicles=*/20);
  rig.UploadApp("maps");

  // A third of the fleet nacks every push for up to 300 ms, then heals —
  // a transient (ECU busy flashing, low battery) rather than a rejection.
  sim::FaultScenario faults(rig.simulator, rig.network, /*seed=*/11);
  faults.AddNackCohort(*rig.fleet, /*fraction=*/0.3, 300 * sim::kMillisecond);
  EXPECT_EQ(faults.nacked_vehicles(), 6u);

  auto id = rig.engine.StartDeploy(rig.user, "maps", rig.fleet->vins(), FastPolicy());
  ASSERT_TRUE(id.ok());
  rig.simulator.Run();

  auto snapshot = *rig.engine.Snapshot(*id);
  EXPECT_EQ(snapshot.status, CampaignStatus::kConverged);
  EXPECT_EQ(snapshot.done, 20u);
  EXPECT_GT(snapshot.total_pushes, 20u);  // the cohort needed retries
  EXPECT_GE(rig.fleet->nacks_sent(), 6u);
}

/// Install payloads the package cache has built so far: new variants
/// plus expired payloads revived.
std::uint64_t PayloadBuilds(const server::TrustedServer& server) {
  const auto& stats = server.package_cache().stats();
  return stats.variants + stats.regenerations;
}

TEST(CampaignEngineTest, RetryWavesReuseTheCampaignsPayloads) {
  ScriptedCampaign rig(/*vehicles=*/16);
  rig.UploadApp("background", /*plugins=*/1);
  rig.UploadApp("maps");
  // Two id layouts: vehicles 0-7 already run a background app whose
  // port ids the maps batch must allocate around; 8-15 run nothing.
  for (std::size_t i = 0; i < 8; ++i) {
    ASSERT_TRUE(
        rig.server.Deploy(rig.user, rig.fleet->vins()[i], "background").ok());
  }
  rig.simulator.Run();
  ASSERT_EQ(rig.server.package_cache().live_payloads(), 0u);
  const std::uint64_t builds_before = PayloadBuilds(rig.server);

  // In each layout, one vehicle is dark for wave 1 and dials back in
  // before wave 2, and one nacks wave 1 and heals before wave 2.  Every
  // other row converges inside wave 1, so by wave 2 no row holds either
  // layout's payload: only the campaign does.
  sim::FaultScenario faults(rig.simulator, rig.network, /*seed=*/5);
  for (std::size_t i : {0u, 8u}) {
    faults.ChurnAfter(*rig.fleet, i, /*after=*/0,
                      /*offline_for=*/150 * sim::kMillisecond);
    faults.TransientNacks(*rig.fleet, i + 1, 100 * sim::kMillisecond);
  }
  auto id = rig.engine.StartDeploy(rig.user, "maps", rig.fleet->vins(),
                                   FastPolicy());
  ASSERT_TRUE(id.ok());
  rig.simulator.Run();

  auto snapshot = *rig.engine.Snapshot(*id);
  EXPECT_EQ(snapshot.status, CampaignStatus::kConverged);
  EXPECT_EQ(snapshot.done, 16u);
  EXPECT_EQ(snapshot.waves_pushed, 2u);
  EXPECT_GE(rig.fleet->nacks_sent(), 2u);
  // Each layout was built once, in wave 1; wave 2 re-pushed those bytes.
  EXPECT_EQ(PayloadBuilds(rig.server) - builds_before, 2u);
  // Finish released the pins and every row converged.
  EXPECT_EQ(rig.server.package_cache().live_payloads(), 0u);
  for (const std::string& vin : rig.fleet->vins()) {
    EXPECT_EQ(*rig.server.AppState(vin, "maps"), InstallState::kInstalled) << vin;
  }
}

TEST(CampaignEngineTest, ExhaustedCampaignReleasesItsPayloads) {
  ScriptedCampaign rig(/*vehicles=*/2);
  rig.UploadApp("maps");
  ASSERT_TRUE(rig.fleet->TakeOffline(1).ok());

  auto id = rig.engine.StartDeploy(rig.user, "maps", rig.fleet->vins(),
                                   FastPolicy(/*max_waves=*/3));
  ASSERT_TRUE(id.ok());
  // Past wave 1's round trip: vehicle 0 converged, yet the campaign still
  // holds the payload for the retry waves.
  rig.simulator.RunFor(10 * sim::kMillisecond);
  EXPECT_EQ(*rig.server.AppState(rig.fleet->vins()[0], "maps"),
            InstallState::kInstalled);
  EXPECT_EQ(rig.server.package_cache().live_payloads(), 1u);
  rig.simulator.Run();

  EXPECT_EQ(rig.engine.Snapshot(*id)->status, CampaignStatus::kExhausted);
  EXPECT_EQ(rig.server.package_cache().live_payloads(), 0u);
}

TEST(CampaignEngineTest, AbortedCampaignReleasesItsPayloads) {
  ScriptedCampaign rig(/*vehicles=*/12, /*nack_every=*/1);
  rig.UploadApp("bad-app");
  auto policy = FastPolicy(/*max_waves=*/5);
  policy.abort_nack_fraction = 0.5;
  auto id = rig.engine.StartDeploy(rig.user, "bad-app", rig.fleet->vins(), policy);
  ASSERT_TRUE(id.ok());
  // Every row nacked (and dropped its payload) before the settle tick:
  // only the campaign holds it.
  rig.simulator.RunFor(10 * sim::kMillisecond);
  EXPECT_EQ(*rig.server.AppState(rig.fleet->vins()[0], "bad-app"),
            InstallState::kFailed);
  EXPECT_EQ(rig.server.package_cache().live_payloads(), 1u);
  rig.simulator.Run();

  EXPECT_EQ(rig.engine.Snapshot(*id)->status, CampaignStatus::kAborted);
  EXPECT_EQ(rig.server.package_cache().live_payloads(), 0u);
}

TEST(CampaignEngineTest, RollbackRetriesNackedUninstallsUntilTheCohortHeals) {
  ScriptedCampaign rig(/*vehicles=*/4);
  rig.UploadApp("maps");
  auto deploy = rig.engine.StartDeploy(rig.user, "maps", rig.fleet->vins(),
                                       FastPolicy());
  ASSERT_TRUE(deploy.ok());
  rig.simulator.Run();
  ASSERT_EQ(rig.engine.Snapshot(*deploy)->status, CampaignStatus::kConverged);

  // Vehicle 0 refuses uninstalls for 300 ms.  A nacked uninstall must NOT
  // erase the server row (that would be a false convergence while the
  // vehicle still runs the app): the row re-arms and a later wave retries.
  rig.fleet->SetTransientNack(0, rig.simulator.Now() + 300 * sim::kMillisecond);
  auto rollback = rig.engine.StartRollback(rig.user, "maps", rig.fleet->vins(),
                                           FastPolicy());
  ASSERT_TRUE(rollback.ok());
  rig.simulator.Run();

  auto snapshot = *rig.engine.Snapshot(*rollback);
  EXPECT_EQ(snapshot.status, CampaignStatus::kConverged);
  EXPECT_GE(snapshot.waves_pushed, 2u);  // the nacked vehicle needed a retry
  for (const std::string& vin : rig.fleet->vins()) {
    EXPECT_FALSE(rig.server.AppState(vin, "maps").ok()) << vin;
  }
  EXPECT_GE(rig.fleet->nacks_sent(), 1u);
}

TEST(CampaignEngineTest, FinishedCampaignsCanBeForgottenRunningOnesCannot) {
  ScriptedCampaign rig(/*vehicles=*/4);
  rig.UploadApp("maps");
  auto id = rig.engine.StartDeploy(rig.user, "maps", rig.fleet->vins(),
                                   FastPolicy());
  ASSERT_TRUE(id.ok());
  EXPECT_EQ(rig.engine.Forget(*id).code(),
            support::ErrorCode::kFailedPrecondition);  // still running
  rig.simulator.Run();
  ASSERT_TRUE(rig.engine.Finished(*id));
  EXPECT_TRUE(rig.engine.Forget(*id).ok());
  EXPECT_FALSE(rig.engine.Snapshot(*id).ok());  // row table released
  EXPECT_EQ(rig.engine.Forget(*id).code(), support::ErrorCode::kNotFound);
  // Ids are never reused: a later campaign gets a fresh slot.
  auto next = rig.engine.StartRollback(rig.user, "maps", rig.fleet->vins(),
                                       FastPolicy());
  ASSERT_TRUE(next.ok());
  EXPECT_NE(next->value(), id->value());
  rig.simulator.Run();
  EXPECT_TRUE(rig.engine.Finished(*next));
}

/// Opens a raw connection that says Hello as `vin` — so the server holds
/// a handle for it — without ever binding the VIN to a user.
std::shared_ptr<sim::NetPeer> HelloWithoutBinding(ScriptedCampaign& rig,
                                                  const std::string& vin) {
  auto peer = rig.network.Connect("srv:443");
  EXPECT_TRUE(peer.ok());
  pirte::Envelope hello;
  hello.kind = pirte::Envelope::Kind::kHello;
  hello.vin = vin;
  EXPECT_TRUE((*peer)->Send(hello.Serialize()).ok());
  rig.simulator.Run();
  EXPECT_TRUE(rig.server.VehicleOnline(vin));
  EXPECT_FALSE(rig.server.HasVehicle(vin));
  return *peer;
}

TEST(CampaignEngineTest, RollbackOverUnknownVinsFailsInsteadOfConverging) {
  ScriptedCampaign rig(/*vehicles=*/2);
  rig.UploadApp("maps");
  // VIN-GHOST was never seen; VIN-UNBOUND said Hello (the server has a
  // handle for it, which the engine caches) but was never bound.
  const auto unbound = HelloWithoutBinding(rig, "VIN-UNBOUND");
  std::vector<std::string> vins = {rig.fleet->vins()[0], "VIN-GHOST",
                                   "VIN-UNBOUND"};
  auto expect_unknown_rows_failed = [&](server::CampaignId id) {
    for (const char* vin : {"VIN-GHOST", "VIN-UNBOUND"}) {
      const auto* row = rig.engine.FindRow(id, vin);
      ASSERT_NE(row, nullptr) << vin;
      EXPECT_EQ(row->state, CampaignRowState::kFailed) << vin;
      EXPECT_EQ(row->error, support::ErrorCode::kNotFound) << vin;
      EXPECT_EQ(row->attempts, 0u) << vin;
    }
  };

  auto rollback = rig.engine.StartRollback(rig.user, "maps", vins, FastPolicy());
  ASSERT_TRUE(rollback.ok());
  rig.simulator.Run();
  auto snapshot = *rig.engine.Snapshot(*rollback);
  EXPECT_EQ(snapshot.status, CampaignStatus::kExhausted);
  EXPECT_EQ(snapshot.waves_pushed, 1u);
  EXPECT_EQ(snapshot.total_pushes, 0u);
  EXPECT_EQ(snapshot.done, 1u);    // the known VIN never had the app
  EXPECT_EQ(snapshot.failed, 2u);  // neither unknown VIN reads as converged
  expect_unknown_rows_failed(*rollback);

  // A deploy over the same fleet: only the bound VIN installs.
  auto deploy = rig.engine.StartDeploy(rig.user, "maps", vins, FastPolicy());
  ASSERT_TRUE(deploy.ok());
  rig.simulator.Run();
  snapshot = *rig.engine.Snapshot(*deploy);
  EXPECT_EQ(snapshot.status, CampaignStatus::kExhausted);
  EXPECT_EQ(snapshot.waves_pushed, 1u);
  EXPECT_EQ(snapshot.total_pushes, 1u);
  EXPECT_EQ(snapshot.done, 1u);
  EXPECT_EQ(snapshot.failed, 2u);
  expect_unknown_rows_failed(*deploy);
  EXPECT_EQ(*rig.server.AppState(vins[0], "maps"), InstallState::kInstalled);

  // And the rollback of that deploy: the bound VIN converges by a real
  // uninstall, the unknown ones still fail.
  rollback = rig.engine.StartRollback(rig.user, "maps", vins, FastPolicy());
  ASSERT_TRUE(rollback.ok());
  rig.simulator.Run();
  snapshot = *rig.engine.Snapshot(*rollback);
  EXPECT_EQ(snapshot.status, CampaignStatus::kExhausted);
  EXPECT_EQ(snapshot.total_pushes, 1u);
  EXPECT_EQ(snapshot.done, 1u);
  EXPECT_EQ(snapshot.failed, 2u);
  expect_unknown_rows_failed(*rollback);
  EXPECT_FALSE(rig.server.AppState(vins[0], "maps").ok());
  EXPECT_FALSE(rig.server.HasVehicle("VIN-UNBOUND"));
}

// --- recovery-edge-case regressions ------------------------------------------

TEST(CampaignEngineTest, EngineDestroyedWithSettleTimerPendingLeavesInertEvents) {
  // Regression: the settle-delay tick captures the engine.  Destroying
  // the engine (the kill half of a crash-recovery cycle) while that
  // timer is still scheduled used to leave a dangling callback; the
  // alive-token guard must turn it into a no-op.
  sim::Simulator simulator;
  sim::Network network{simulator, sim::kMillisecond};
  server::TrustedServer server(network, "srv:443");
  ASSERT_TRUE(server.Start().ok());
  ASSERT_TRUE(server.UploadVehicleModel(fes::MakeRpiTestbedConf()).ok());
  auto user = *server.CreateUser("ops");
  fes::ScriptedFleetOptions options;
  options.vehicle_count = 4;
  fes::ScriptedFleet fleet(simulator, network, server, options);
  ASSERT_TRUE(fleet.BindAndConnect(user).ok());
  fes::SyntheticAppParams params;
  params.name = "maps";
  params.vehicle_model = "rpi-testbed";
  params.plugin_count = 2;
  params.target_ecu = 1;
  ASSERT_TRUE(server.UploadApp(fes::MakeSyntheticApp(params)).ok());

  {
    server::CampaignEngine engine(simulator, server);
    auto id = engine.StartDeploy(user, "maps", fleet.vins(), FastPolicy());
    ASSERT_TRUE(id.ok());
    // Run just past the wave push: acks have landed, but the 50 ms
    // settle tick is still scheduled when the engine dies.
    simulator.RunFor(10 * sim::kMillisecond);
    EXPECT_FALSE(engine.Finished(*id));
    // The running campaign still holds the payload its wave built.
    EXPECT_EQ(server.package_cache().live_payloads(), 1u);
  }
  EXPECT_GT(simulator.PendingEvents(), 0u);  // the orphaned tick
  simulator.Run();  // must be absorbed, not crash
  // The pins died with the engine.
  EXPECT_EQ(server.package_cache().live_payloads(), 0u);

  // The server outlived the engine and already applied the in-flight
  // acks; orchestration died, the install table did not.
  for (const std::string& vin : fleet.vins()) {
    EXPECT_EQ(*server.AppState(vin, "maps"), InstallState::kInstalled) << vin;
  }
}

TEST(CampaignEngineTest, DuplicateAckBatchAfterConvergenceLeavesRowsUntouched) {
  // Regression: once a row converges its recorded batch envelope is
  // dropped.  A duplicate kAckBatch arriving after that (redelivered by
  // a flaky vehicle, or replayed across a server restart) must neither
  // corrupt the row nor resurrect an empty push.
  ScriptedCampaign rig(/*vehicles=*/4);
  rig.UploadApp("maps");
  auto id = rig.engine.StartDeploy(rig.user, "maps", rig.fleet->vins(),
                                   FastPolicy());
  ASSERT_TRUE(id.ok());
  rig.simulator.Run();
  ASSERT_EQ(rig.engine.Snapshot(*id)->status, CampaignStatus::kConverged);
  const auto pushed_before = rig.server.stats().packages_pushed;
  const auto acks_before = rig.server.stats().acks_received;

  // Forge the duplicate on a fresh connection that Hellos for vehicle 0.
  auto peer = rig.network.Connect(rig.server.address());
  ASSERT_TRUE(peer.ok());
  pirte::Envelope hello;
  hello.kind = pirte::Envelope::Kind::kHello;
  hello.vin = rig.fleet->vins()[0];
  ASSERT_TRUE((*peer)->Send(hello.Serialize()).ok());
  rig.simulator.Run();
  std::vector<pirte::BatchAckEntryView> verdicts = {
      {"maps.p0", true, {}}, {"maps.p1", true, {}}};
  ASSERT_TRUE(
      (*peer)
          ->Send(pirte::SerializeEnvelopedAckBatch(rig.fleet->vins()[0], verdicts))
          .ok());
  rig.simulator.Run();

  // The duplicate was received and counted, but the converged row did
  // not move.
  EXPECT_GT(rig.server.stats().acks_received, acks_before);
  EXPECT_EQ(*rig.server.AppState(rig.fleet->vins()[0], "maps"),
            InstallState::kInstalled);

  // A follow-up campaign over the same app reads every row as already
  // done: zero pushes, zero repushes — in particular no push of an
  // empty envelope where the recorded batch used to be.
  auto again = rig.engine.StartDeploy(rig.user, "maps", rig.fleet->vins(),
                                      FastPolicy());
  ASSERT_TRUE(again.ok());
  rig.simulator.Run();
  auto snapshot = *rig.engine.Snapshot(*again);
  EXPECT_EQ(snapshot.status, CampaignStatus::kConverged);
  EXPECT_EQ(snapshot.total_pushes, 0u);
  EXPECT_EQ(rig.server.stats().repushes, 0u);
  EXPECT_EQ(rig.server.stats().packages_pushed, pushed_before);
}

// --- the acceptance scenario -------------------------------------------------
//
// A seeded 1k-vehicle campaign with a 20% offline-churn cohort plus
// mid-campaign link flaps must converge to 100% installed within the
// configured waves, byte-identical across two identically seeded runs;
// the rollback campaign then restores the pre-deploy install set on the
// same faulted fleet.

std::string RunSeededFaultedCampaign(std::uint64_t seed) {
  ScriptedCampaign rig(/*vehicles=*/1000);
  rig.UploadApp("base", /*plugins=*/1);
  rig.UploadApp("maps", /*plugins=*/2);

  // Pre-deploy install set: `base` on every vehicle, no faults.
  auto base = rig.engine.StartDeploy(rig.user, "base", rig.fleet->vins(),
                                     FastPolicy());
  EXPECT_TRUE(base.ok());
  rig.simulator.Run();
  EXPECT_EQ(rig.engine.Snapshot(*base)->status, CampaignStatus::kConverged);

  // The faulted deploy: 20% of the fleet is churning dark as wave 1
  // pushes (trickling back over 100-400 ms) while the WAN flaps three
  // times mid-campaign, all drawn from `seed`.
  sim::FaultScenario deploy_faults(rig.simulator, rig.network, seed);
  deploy_faults.AddOfflineChurn(*rig.fleet, /*fraction=*/0.20,
                                /*horizon=*/10 * sim::kMillisecond,
                                /*min_offline=*/100 * sim::kMillisecond,
                                /*max_offline=*/400 * sim::kMillisecond);
  deploy_faults.AddRandomLinkFlaps(/*count=*/3, /*horizon=*/600 * sim::kMillisecond,
                                   /*min_duration=*/20 * sim::kMillisecond,
                                   /*max_duration=*/80 * sim::kMillisecond);
  EXPECT_EQ(deploy_faults.churn_events(), 200u);

  auto deploy = rig.engine.StartDeploy(rig.user, "maps", rig.fleet->vins(),
                                       FastPolicy(/*max_waves=*/10));
  EXPECT_TRUE(deploy.ok());
  rig.simulator.Run();

  auto snapshot = *rig.engine.Snapshot(*deploy);
  EXPECT_EQ(snapshot.status, CampaignStatus::kConverged);
  EXPECT_EQ(snapshot.done, 1000u);
  EXPECT_LE(snapshot.waves_pushed, 10u);
  // The fault matrix really engaged: the offline cohort forced retry waves.
  EXPECT_GE(snapshot.waves_pushed, 2u);
  EXPECT_GT(snapshot.total_pushes, 1000u);
  for (const std::string& vin : rig.fleet->vins()) {
    EXPECT_EQ(*rig.server.AppState(vin, "maps"), InstallState::kInstalled) << vin;
  }

  // Rollback on the same fleet, under a fresh seeded fault round: the
  // batched uninstalls must erase every `maps` row and leave `base`.
  sim::FaultScenario rollback_faults(rig.simulator, rig.network, seed + 1);
  rollback_faults.AddOfflineChurn(*rig.fleet, /*fraction=*/0.20,
                                  /*horizon=*/10 * sim::kMillisecond,
                                  /*min_offline=*/100 * sim::kMillisecond,
                                  /*max_offline=*/400 * sim::kMillisecond);
  rollback_faults.AddRandomLinkFlaps(/*count=*/2,
                                     /*horizon=*/600 * sim::kMillisecond,
                                     /*min_duration=*/20 * sim::kMillisecond,
                                     /*max_duration=*/80 * sim::kMillisecond);
  auto rollback = rig.engine.StartRollback(rig.user, "maps", rig.fleet->vins(),
                                           FastPolicy(/*max_waves=*/10));
  EXPECT_TRUE(rollback.ok());
  rig.simulator.Run();

  EXPECT_EQ(rig.engine.Snapshot(*rollback)->status, CampaignStatus::kConverged);
  for (const std::string& vin : rig.fleet->vins()) {
    EXPECT_FALSE(rig.server.AppState(vin, "maps").ok()) << vin;
    EXPECT_EQ(rig.server.InstalledApps(vin), std::vector<std::string>{"base"})
        << vin;
  }
  EXPECT_GT(rig.server.stats().rollback_pushes, 0u);

  // The determinism fingerprint: full row tables of both campaigns plus
  // the protocol-level counters.
  const auto stats = rig.server.stats();
  return rig.engine.Describe(*deploy) + rig.engine.Describe(*rollback) +
         "pushed=" + std::to_string(stats.packages_pushed) +
         " acks=" + std::to_string(stats.acks_received) +
         " repushes=" + std::to_string(stats.repushes) +
         " rollbacks=" + std::to_string(stats.rollback_pushes) +
         " reaped=" + std::to_string(stats.connections_reaped) +
         " delivered=" + std::to_string(rig.network.messages_delivered()) +
         " now=" + std::to_string(rig.simulator.Now());
}

TEST(CampaignEngineTest, Seeded1kChurnAndFlapCampaignIsByteIdenticalAcrossRuns) {
  const std::string first = RunSeededFaultedCampaign(0xDACDAC);
  const std::string second = RunSeededFaultedCampaign(0xDACDAC);
  EXPECT_EQ(first, second);
  // The fingerprint proves convergence too: every row reads state=done.
  EXPECT_EQ(first.find("state=failed"), std::string::npos);
  EXPECT_NE(first.find("status=converged"), std::string::npos);
}

namespace {

std::uint64_t Fnv1a(std::string_view text) {
  std::uint64_t hash = 1469598103934665603ull;
  for (char c : text) {
    hash ^= static_cast<std::uint8_t>(c);
    hash *= 1099511628211ull;
  }
  return hash;
}

}  // namespace

TEST(CampaignEngineTest, FingerprintHashesExactlyTheDescribeBytes) {
  // Fingerprint() must be FNV-1a over Describe()'s exact output — the
  // streaming formatter behind both may never drift, or the cheap
  // fleet-scale comparison stops proving what the string proves.  Use a
  // campaign with failed rows so the conditional error= column (the
  // subtle branch) is covered, plus a converged rollback.
  ScriptedCampaign rig(/*vehicles=*/16, /*nack_every=*/4);
  rig.UploadApp("maps");
  auto deploy =
      rig.engine.StartDeploy(rig.user, "maps", rig.fleet->vins(), FastPolicy());
  ASSERT_TRUE(deploy.ok());
  rig.simulator.Run();
  ASSERT_TRUE(rig.engine.Finished(*deploy));
  ASSERT_GT(rig.engine.Snapshot(*deploy)->failed, 0u);

  const std::string described = rig.engine.Describe(*deploy);
  EXPECT_NE(described.find(" error="), std::string::npos);
  EXPECT_EQ(rig.engine.Fingerprint(*deploy), Fnv1a(described));

  // The unknown-campaign sentinel hashes identically too.
  const server::CampaignId ghost(999);
  EXPECT_EQ(rig.engine.Fingerprint(ghost), Fnv1a(rig.engine.Describe(ghost)));
}

// --- rollback against real ECMs ----------------------------------------------

TEST(CampaignEngineTest, RollbackBatchUnpacksOnRealEcmsAndRestoresState) {
  sim::Simulator simulator;
  sim::Network network(simulator, 10 * sim::kMillisecond);
  server::TrustedServer server(network, "fleet-server:443");
  ASSERT_TRUE(server.Start().ok());
  ASSERT_TRUE(server.UploadVehicleModel(fes::MakeRpiTestbedConf()).ok());

  auto build_vehicle = [&](const std::string& vin) {
    auto vehicle = std::make_unique<fes::Vehicle>(
        simulator, network, fes::VehicleParams{vin, "rpi-testbed", 500'000});
    fes::Ecu& ecu1 = vehicle->AddEcu(1, vin + ".ECU1");
    auto p1 = vehicle->AddPluginSwc(ecu1, "PIRTE1");
    EXPECT_TRUE(p1.ok());
    EXPECT_TRUE(vehicle->DesignateEcm(**p1, "fleet-server:443").ok());
    EXPECT_TRUE(vehicle->Finalize().ok());
    return vehicle;
  };
  std::vector<std::unique_ptr<fes::Vehicle>> cars;
  std::vector<std::string> vins = {"VIN-RA", "VIN-RB", "VIN-RC"};
  for (const std::string& vin : vins) cars.push_back(build_vehicle(vin));
  simulator.RunFor(2 * sim::kSecond);

  auto user = server.CreateUser("ops");
  ASSERT_TRUE(user.ok());
  for (const std::string& vin : vins) {
    ASSERT_TRUE(server.BindVehicle(*user, vin, "rpi-testbed").ok());
    ASSERT_TRUE(server.VehicleOnline(vin));
  }
  fes::SyntheticAppParams params;
  params.name = "maps";
  params.vehicle_model = "rpi-testbed";
  params.plugin_count = 2;
  params.target_ecu = 1;
  ASSERT_TRUE(server.UploadApp(fes::MakeSyntheticApp(params)).ok());

  server::CampaignEngine engine(simulator, server);
  auto run_until_finished = [&](server::CampaignId id) {
    const sim::SimTime deadline = simulator.Now() + 30 * sim::kSecond;
    while (!engine.Finished(id) && simulator.Now() < deadline) {
      simulator.RunFor(100 * sim::kMillisecond);
    }
    return engine.Finished(id);
  };

  auto deploy = engine.StartDeploy(*user, "maps", vins, FastPolicy());
  ASSERT_TRUE(deploy.ok());
  ASSERT_TRUE(run_until_finished(*deploy));
  EXPECT_EQ(engine.Snapshot(*deploy)->status, CampaignStatus::kConverged);
  for (std::size_t i = 0; i < vins.size(); ++i) {
    EXPECT_NE(cars[i]->ecm()->FindPlugin("maps.p0"), nullptr) << vins[i];
    EXPECT_NE(cars[i]->ecm()->FindPlugin("maps.p1"), nullptr) << vins[i];
  }

  // One kUninstallBatch per vehicle; the ECM unpacks it into per-plug-in
  // uninstalls and the forwarded acks erase the rows.
  auto rollback = engine.StartRollback(*user, "maps", vins, FastPolicy());
  ASSERT_TRUE(rollback.ok());
  ASSERT_TRUE(run_until_finished(*rollback));
  EXPECT_EQ(engine.Snapshot(*rollback)->status, CampaignStatus::kConverged);
  EXPECT_EQ(server.stats().rollback_pushes, 3u);
  for (std::size_t i = 0; i < vins.size(); ++i) {
    EXPECT_FALSE(server.AppState(vins[i], "maps").ok()) << vins[i];
    EXPECT_EQ(cars[i]->ecm()->FindPlugin("maps.p0"), nullptr) << vins[i];
    EXPECT_EQ(cars[i]->ecm()->FindPlugin("maps.p1"), nullptr) << vins[i];
  }
}

// --- stats snapshot -----------------------------------------------------------

TEST(CampaignEngineTest, StatsSnapshotCountsFaults) {
  ScriptedCampaign rig(/*vehicles=*/16, /*nack_every=*/4);
  rig.UploadApp("maps", /*plugins=*/2);

  auto report = rig.server.DeployCampaign(rig.user, "maps", rig.fleet->vins());
  ASSERT_TRUE(report.ok());
  rig.simulator.Run();

  const auto total = rig.server.stats();
  EXPECT_EQ(total.packages_pushed, 16u);
  EXPECT_EQ(total.acks_received, 32u);           // per-plug-in verdicts
  EXPECT_EQ(total.nacks_received, 8u);           // 4 nacking vehicles x 2
  EXPECT_EQ(total.deploys_ok, 16u);

  // Churning a vehicle off and back on reaps its dead predecessor at the
  // Hello adoption.
  ASSERT_TRUE(rig.fleet->TakeOffline(0).ok());
  ASSERT_TRUE(rig.fleet->BringOnline(0).ok());
  rig.simulator.Run();
  EXPECT_GE(rig.server.stats().connections_reaped, 1u);
  EXPECT_EQ(rig.fleet->reconnects(), 1u);
}

}  // namespace
}  // namespace dacm
