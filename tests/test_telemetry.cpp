// Telemetry core: the metrics registry (counters, gauges, log2
// histograms, Prometheus/JSON exports) and the sim-time tracer (bounded
// per-lane rings, Chrome trace-event export).
//
// The two integration bars from the observability PR:
//   * two identically seeded 1k-vehicle faulted campaigns (offline churn
//     + link flaps) must export byte-identical Chrome traces — the trace
//     stream carries sim-time only, never wall clock;
//   * a recovery run's trace holds exactly one `recovery.replay` span
//     whose record counts match the replayed log.
#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "fes/appgen.hpp"
#include "fes/fleet.hpp"
#include "fes/testbed.hpp"
#include "server/campaign.hpp"
#include "sim/fault.hpp"
#include "sim/simulator.hpp"
#include "support/metrics.hpp"
#include "support/storage.hpp"
#include "support/trace.hpp"

namespace dacm {
namespace {

using support::Counter;
using support::Histogram;
using support::Metrics;
using support::Tracer;

std::size_t CountOccurrences(const std::string& text, const std::string& what) {
  std::size_t count = 0;
  for (std::size_t at = text.find(what); at != std::string::npos;
       at = text.find(what, at + what.size())) {
    ++count;
  }
  return count;
}

// --- metrics ---------------------------------------------------------------------

TEST(MetricsTest, RegistryInternsByNameAndKeepsReferencesStable) {
  auto& registry = Metrics::Instance();
  support::Counter& a = registry.GetCounter("telemetry_test_interned_total");
  support::Counter& b = registry.GetCounter("telemetry_test_interned_total");
  EXPECT_EQ(&a, &b);
  a.Reset();
  a.Inc();
  a.Inc(41);
  EXPECT_EQ(b.Value(), 42u);

  support::Gauge& gauge = registry.GetGauge("telemetry_test_gauge");
  gauge.Set(-7);
  gauge.Add(3);
  EXPECT_EQ(gauge.Value(), -4);
}

TEST(MetricsTest, HistogramLog2BucketsHoldExactRanges) {
  Histogram h;
  h.Observe(0);    // bucket 0: exactly the value 0
  h.Observe(1);    // bucket 1: [1, 1]
  h.Observe(2);    // bucket 2: [2, 3]
  h.Observe(3);
  h.Observe(1024); // bucket 11: [1024, 2047]
  EXPECT_EQ(h.Count(), 5u);
  EXPECT_EQ(h.Sum(), 1030u);
  EXPECT_EQ(h.Max(), 1024u);
  EXPECT_EQ(h.BucketCount(0), 1u);
  EXPECT_EQ(h.BucketCount(1), 1u);
  EXPECT_EQ(h.BucketCount(2), 2u);
  EXPECT_EQ(h.BucketCount(11), 1u);
  EXPECT_EQ(Histogram::BucketUpperBound(0), 0u);
  EXPECT_EQ(Histogram::BucketUpperBound(1), 1u);
  EXPECT_EQ(Histogram::BucketUpperBound(11), 2047u);
  EXPECT_EQ(Histogram::BucketUpperBound(64), ~std::uint64_t{0});
}

TEST(MetricsTest, QuantilesInterpolateAndClampToObservedMax) {
  Histogram h;
  for (int i = 0; i < 99; ++i) h.Observe(10);
  h.Observe(1000);
  // p50 lands in the [8, 15] bucket holding the 99 tens.
  EXPECT_GE(h.Quantile(0.5), 8.0);
  EXPECT_LE(h.Quantile(0.5), 15.0);
  // The top rank lands in [512, 1023] but is clamped to the exact max.
  EXPECT_LE(h.Quantile(1.0), 1000.0);
  EXPECT_GT(h.Quantile(1.0), 512.0);
  // Quantiles are monotone in q.
  EXPECT_LE(h.Quantile(0.5), h.Quantile(0.95));
  EXPECT_LE(h.Quantile(0.95), h.Quantile(0.99));
  h.Reset();
  EXPECT_EQ(h.Count(), 0u);
  EXPECT_EQ(h.Quantile(0.99), 0.0);
}

TEST(MetricsTest, ExpositionAndJsonCarryEveryFamily) {
  auto& registry = Metrics::Instance();
  registry.GetCounter("telemetry_test_expo_total").Reset();
  registry.GetCounter("telemetry_test_expo_total").Inc(3);
  registry.GetGauge("telemetry_test_expo_gauge").Set(-2);
  Histogram& h = registry.GetHistogram("telemetry_test_expo_us");
  h.Reset();
  h.Observe(5);
  h.Observe(6);

  const std::string text = registry.TextExposition();
  EXPECT_NE(text.find("# TYPE telemetry_test_expo_total counter"),
            std::string::npos);
  EXPECT_NE(text.find("telemetry_test_expo_total 3"), std::string::npos);
  EXPECT_NE(text.find("telemetry_test_expo_gauge -2"), std::string::npos);
  // Both observations live in the [4, 7] bucket; the cumulative +Inf
  // bucket and the _count line must agree.
  EXPECT_NE(text.find("telemetry_test_expo_us_bucket{le=\"7\"} 2"),
            std::string::npos);
  EXPECT_NE(text.find("telemetry_test_expo_us_bucket{le=\"+Inf\"} 2"),
            std::string::npos);
  EXPECT_NE(text.find("telemetry_test_expo_us_count 2"), std::string::npos);
  EXPECT_NE(text.find("telemetry_test_expo_us_sum 11"), std::string::npos);

  const std::string json = registry.Json();
  EXPECT_NE(json.find("\"telemetry_test_expo_total\":3"), std::string::npos);
  EXPECT_NE(json.find("\"telemetry_test_expo_gauge\":-2"), std::string::npos);
  EXPECT_NE(json.find("\"telemetry_test_expo_us\":{\"count\":2"),
            std::string::npos);
  EXPECT_NE(json.find("\"p99\":"), std::string::npos);
}

// --- tracer ----------------------------------------------------------------------

TEST(TracerTest, ExportIsStableAndCarriesArgs) {
  auto& tracer = Tracer::Instance();
  tracer.Enable(/*events_per_lane=*/64);
  tracer.Span(0, "unit.span", "test", /*ts_us=*/100, /*dur_us=*/50,
              {"events", 7});
  tracer.Instant(1, "unit.instant", "test", /*ts_us=*/120, {"acks", 3}, {},
                 {}, "vin", "VIN-1");
  const std::string a = tracer.ChromeJson();
  const std::string b = tracer.ChromeJson();
  tracer.Disable();
  EXPECT_EQ(a, b);  // export is a pure read
  EXPECT_NE(a.find("\"name\":\"unit.span\""), std::string::npos);
  EXPECT_NE(a.find("\"ph\":\"X\",\"ts\":100,\"dur\":50"), std::string::npos);
  EXPECT_NE(a.find("\"events\":7"), std::string::npos);
  EXPECT_NE(a.find("\"ph\":\"i\",\"ts\":120,\"s\":\"t\""), std::string::npos);
  EXPECT_NE(a.find("\"vin\":\"VIN-1\""), std::string::npos);
  // Lane metadata names the sim lane and the fleet lane.
  EXPECT_NE(a.find("\"args\":{\"name\":\"sim\"}"), std::string::npos);
  EXPECT_NE(a.find("\"args\":{\"name\":\"fleet\"}"), std::string::npos);
}

TEST(TracerTest, RingWrapKeepsNewestEventsAndCountsDrops) {
  auto& tracer = Tracer::Instance();
  tracer.Enable(/*events_per_lane=*/4);
  for (std::uint64_t i = 0; i < 10; ++i) {
    tracer.Instant(0, "wrap", "test", /*ts_us=*/i);
  }
  EXPECT_EQ(tracer.size(), 4u);
  EXPECT_EQ(tracer.dropped(), 6u);
  const std::string json = tracer.ChromeJson();
  tracer.Disable();
  EXPECT_EQ(json.find("\"ts\":5,"), std::string::npos);  // oldest overwritten
  EXPECT_NE(json.find("\"ts\":6,"), std::string::npos);  // newest four kept
  EXPECT_NE(json.find("\"ts\":9,"), std::string::npos);
}

TEST(TracerTest, DisabledTracerEmitsNothing) {
  auto& tracer = Tracer::Instance();
  tracer.Enable(/*events_per_lane=*/8);
  tracer.Disable();
  tracer.Span(0, "dead.span", "test", 1, 1);
  tracer.Instant(0, "dead.instant", "test", 2);
  EXPECT_EQ(tracer.size(), 0u);
}

// --- integration ------------------------------------------------------------------

/// A campaign world mirroring the bench fixture: server, scripted
/// fleet, retrying engine.  1 µs links keep the 1k-vehicle runs cheap.
struct TelemetryRig {
  sim::Simulator simulator;
  sim::Network network{simulator, sim::kMicrosecond};
  server::TrustedServer server;
  server::CampaignEngine engine{simulator, server};
  server::UserId user = server::UserId::Invalid();
  std::unique_ptr<fes::ScriptedFleet> fleet;

  explicit TelemetryRig(std::size_t vehicles,
                        support::RecordSink* status_sink = nullptr)
      : server(network, "srv:443", server::ServerOptions{status_sink}) {
    EXPECT_TRUE(server.Start().ok());
    EXPECT_TRUE(server.UploadVehicleModel(fes::MakeRpiTestbedConf()).ok());
    user = *server.CreateUser("ops");
    fes::ScriptedFleetOptions options;
    options.vehicle_count = vehicles;
    fleet = std::make_unique<fes::ScriptedFleet>(simulator, network, server,
                                                 options);
    EXPECT_TRUE(fleet->BindAndConnect(user).ok());
  }

  void UploadApp(const std::string& name) {
    fes::SyntheticAppParams params;
    params.name = name;
    params.vehicle_model = "rpi-testbed";
    params.plugin_count = 2;
    params.target_ecu = 1;
    EXPECT_TRUE(server.UploadApp(fes::MakeSyntheticApp(params)).ok());
  }
};

server::RetryPolicy RetryFast() {
  server::RetryPolicy policy;
  policy.max_waves = 8;
  policy.settle_delay = 50 * sim::kMillisecond;
  policy.initial_backoff = 200 * sim::kMillisecond;
  policy.max_backoff = 2 * sim::kSecond;
  return policy;
}

struct FaultedCampaignResult {
  std::string trace;           // Chrome trace export
  std::uint64_t fingerprint;   // terminal server-side fleet state
};

/// One seeded 1k-vehicle faulted campaign (20% offline churn + two link
/// flaps) run under an enabled tracer.
FaultedCampaignResult SeededFaultedCampaignTrace() {
  auto& tracer = Tracer::Instance();
  tracer.Enable(/*events_per_lane=*/1u << 15);
  FaultedCampaignResult result;
  {
    TelemetryRig rig(/*vehicles=*/1000);
    rig.UploadApp("maps");
    rig.fleet->MarkCampaignEpoch();
    sim::FaultScenario faults(rig.simulator, rig.network, /*seed=*/0x7E1E);
    faults.AddOfflineChurn(*rig.fleet, 0.2, /*horizon=*/0,
                           100 * sim::kMillisecond, 400 * sim::kMillisecond);
    faults.AddRandomLinkFlaps(2, 600 * sim::kMillisecond,
                              20 * sim::kMillisecond, 80 * sim::kMillisecond);
    auto id = rig.engine.StartDeploy(rig.user, "maps", rig.fleet->vins(),
                                     RetryFast());
    EXPECT_TRUE(id.ok());
    rig.simulator.Run();
    EXPECT_TRUE(rig.engine.Finished(*id));
    EXPECT_EQ(rig.engine.Snapshot(*id)->status,
              server::CampaignStatus::kConverged);
    EXPECT_EQ(tracer.dropped(), 0u);
    result.trace = tracer.ChromeJson();
    result.fingerprint = rig.server.FleetFingerprint();
  }
  tracer.Disable();
  return result;
}

TEST(TelemetryIntegrationTest, SeededFaultedCampaignTracesAreByteIdentical) {
  const FaultedCampaignResult first = SeededFaultedCampaignTrace();
  const FaultedCampaignResult second = SeededFaultedCampaignTrace();
  ASSERT_FALSE(first.trace.empty());
  // The flight recorder covers every layer: the campaign track, the wave
  // instants, per-vehicle round trips on the fleet lane, ack flushes and
  // the sim run span.
  EXPECT_NE(first.trace.find("\"name\":\"campaign.run\""), std::string::npos);
  EXPECT_NE(first.trace.find("\"name\":\"campaign.wave\""), std::string::npos);
  EXPECT_NE(first.trace.find("\"name\":\"deploy.roundtrip\""),
            std::string::npos);
  EXPECT_NE(first.trace.find("\"name\":\"ack.flush\""), std::string::npos);
  EXPECT_NE(first.trace.find("\"name\":\"sim.run\""), std::string::npos);
  // The determinism contract: sim-time-only payloads make two identically
  // seeded runs export byte-identical traces.
  EXPECT_EQ(first.trace, second.trace);
  EXPECT_EQ(first.fingerprint, second.fingerprint);
  // Converged vehicle-side deliveries feed the time-to-install histogram.
  EXPECT_GE(Metrics::Instance()
                .GetHistogram("dacm_fleet_time_to_install_us")
                .Count(),
            1000u);
}

TEST(TelemetryIntegrationTest, RecoveryTraceHasExactlyOneReplaySpan) {
  support::MemorySink status_log;
  {
    TelemetryRig rig(/*vehicles=*/64, &status_log);
    rig.UploadApp("maps");
    auto report = rig.server.DeployCampaign(rig.user, "maps",
                                            rig.fleet->vins());
    ASSERT_TRUE(report.ok());
    rig.simulator.Run();
    ASSERT_EQ(*rig.server.AppState(rig.fleet->vins().back(), "maps"),
              server::InstallState::kInstalled);
  }  // the crash: the server dies, the log survives

  auto& tracer = Tracer::Instance();
  tracer.Enable(/*events_per_lane=*/1u << 12);
  sim::Simulator simulator;
  sim::Network network{simulator, sim::kMicrosecond};
  server::TrustedServer fresh(network, "srv-recovered:1");
  ASSERT_TRUE(fresh.RecoverInstallDb(status_log.bytes()).ok());
  const std::string json = tracer.ChromeJson();
  tracer.Disable();

  EXPECT_EQ(CountOccurrences(json, "\"name\":\"recovery.replay\""), 1u);
  // One live paragraph, one rebuilt row and one catalog binding per
  // vehicle.
  EXPECT_NE(json.find("\"paragraphs\":64"), std::string::npos);
  EXPECT_NE(json.find("\"rows\":64"), std::string::npos);
  EXPECT_NE(json.find("\"catalog_bindings\":64"), std::string::npos);
}

TEST(TelemetryIntegrationTest, ServerCountersFoldIntoRegistry) {
  auto& registry = Metrics::Instance();
  Counter& deploys_ok = registry.GetCounter("dacm_server_deploys_ok_total");
  Counter& acks = registry.GetCounter("dacm_server_acks_received_total");
  const std::uint64_t deploys_before = deploys_ok.Value();
  const std::uint64_t acks_before = acks.Value();
  TelemetryRig rig(/*vehicles=*/16);
  rig.UploadApp("maps");
  auto report = rig.server.DeployCampaign(rig.user, "maps",
                                          rig.fleet->vins());
  ASSERT_TRUE(report.ok());
  rig.simulator.Run();

  // The ack flush folded the server's counters into the registry: the
  // exported counters rose by exactly the accessor snapshot.
  const auto stats = rig.server.stats();
  EXPECT_EQ(deploys_ok.Value() - deploys_before, stats.deploys_ok);
  EXPECT_EQ(acks.Value() - acks_before, stats.acks_received);
  EXPECT_EQ(stats.deploys_ok, 16u);
  EXPECT_GE(registry.GetHistogram("dacm_deploy_roundtrip_us").Count(), 16u);
  const std::string text = registry.TextExposition();
  EXPECT_NE(text.find("dacm_server_deploys_ok_total"), std::string::npos);
  EXPECT_NE(text.find("dacm_sim_events_total"), std::string::npos);
}

TEST(TelemetryIntegrationTest, ServersInOneProcessAddUpTheirCounters) {
  Counter& deploys_ok =
      Metrics::Instance().GetCounter("dacm_server_deploys_ok_total");
  const std::uint64_t before = deploys_ok.Value();
  TelemetryRig first(/*vehicles=*/4);
  TelemetryRig second(/*vehicles=*/6);
  auto deploy = [](TelemetryRig& rig, const std::string& app) {
    rig.UploadApp(app);
    ASSERT_TRUE(rig.server.DeployCampaign(rig.user, app, rig.fleet->vins())
                    .ok());
    rig.simulator.Run();
  };
  deploy(first, "maps");
  deploy(second, "maps");
  // A later fold of the first server adds only what it did since its
  // previous fold; it neither drops the second server's deploys nor
  // counts its own twice.
  deploy(first, "nav");
  ASSERT_EQ(first.server.stats().deploys_ok, 8u);
  ASSERT_EQ(second.server.stats().deploys_ok, 6u);
  EXPECT_EQ(deploys_ok.Value() - before, 14u);
}

}  // namespace
}  // namespace dacm
