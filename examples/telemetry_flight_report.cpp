// Campaign flight report — the observability stack end to end.
//
// Runs one seeded faulted OTA campaign (200 vehicles, 25% offline churn,
// a couple of WAN flaps) with the sim-time tracer and the metrics
// registry armed, then reconstructs the "flight" from the recorded
// telemetry alone:
//
//   * the wave timeline (campaign.wave instants: when each retry wave
//     fired and what it pushed / skipped),
//   * row-state transitions per wave (pushed / offline / rejected /
//     already-done), plus a per-vehicle sample,
//   * per-wave push->ack round-trip quantiles (deploy.roundtrip spans
//     bucketed by wave window through a log2 histogram),
//   * the Prometheus exposition of the fleet metric families.
//
// The full Chrome trace is written to flight_report_trace.json — open it
// at https://ui.perfetto.dev to see the sim lane and the fleet lane as
// named tracks.
//
// Run: ./build/examples/example_telemetry_flight_report
#include <cstdio>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "fes/appgen.hpp"
#include "fes/fleet.hpp"
#include "fes/testbed.hpp"
#include "server/campaign.hpp"
#include "sim/fault.hpp"
#include "support/metrics.hpp"
#include "support/storage.hpp"
#include "support/trace.hpp"

using namespace dacm;

namespace {

/// Minimal scanner over the tracer's own export format (fixed key order,
/// no whitespace): pulls one u64 field out of an event window.
std::uint64_t FieldU64(const std::string& window, const std::string& key) {
  const std::string needle = "\"" + key + "\":";
  const std::size_t at = window.find(needle);
  if (at == std::string::npos) return 0;
  return std::strtoull(window.c_str() + at + needle.size(), nullptr, 10);
}

struct ParsedEvent {
  std::uint64_t ts = 0;
  std::uint64_t dur = 0;
  std::string window;  // the event's JSON slice, for extra args
};

/// Every exported event named `name`, in trace order.
std::vector<ParsedEvent> EventsNamed(const std::string& json,
                                     const std::string& name) {
  std::vector<ParsedEvent> events;
  const std::string needle = "{\"name\":\"" + name + "\"";
  for (std::size_t at = json.find(needle); at != std::string::npos;
       at = json.find(needle, at + 1)) {
    // Our own events all carry args, so the window closes at the first
    // "}}" (args object + event object).
    const std::size_t end = json.find("}}", at);
    ParsedEvent event;
    event.window =
        json.substr(at, end == std::string::npos ? end : end + 2 - at);
    event.ts = FieldU64(event.window, "ts");
    event.dur = FieldU64(event.window, "dur");
    events.push_back(std::move(event));
  }
  return events;
}

double Ms(std::uint64_t us) { return static_cast<double>(us) / 1000.0; }

}  // namespace

int main() {
  std::printf("=== campaign flight report ===\n\n");

  // Arm the flight recorder before anything moves.
  auto& tracer = support::Tracer::Instance();
  auto& metrics = support::Metrics::Instance();
  tracer.Enable(/*events_per_lane=*/1u << 14);

  sim::Simulator simulator;
  sim::Network network(simulator, sim::kMillisecond);
  // Durable status DB, synced every 16 paragraphs: the WAL append
  // instants land on the fleet lane and the fsync histogram gets
  // samples, so the report covers the persistence layer too.
  support::MemorySink status_log;
  server::TrustedServer server(
      network, "fleet-server:443",
      server::ServerOptions{&status_log, /*status_sync_every_n_frames=*/16});
  if (!server.Start().ok()) return 1;
  if (!server.UploadVehicleModel(fes::MakeRpiTestbedConf()).ok()) return 1;
  const server::UserId user = *server.CreateUser("ops");

  fes::ScriptedFleetOptions options;
  options.vehicle_count = 200;
  fes::ScriptedFleet fleet(simulator, network, server, options);
  if (!fleet.BindAndConnect(user).ok()) return 1;

  fes::SyntheticAppParams params;
  params.name = "nav-stack";
  params.vehicle_model = "rpi-testbed";
  params.plugin_count = 3;
  params.target_ecu = 1;
  if (!server.UploadApp(fes::MakeSyntheticApp(params)).ok()) return 1;

  // A quarter of the fleet is dark at push time; two WAN flaps land
  // during the retry window.  Seeded, so this report is reproducible.
  sim::FaultScenario faults(simulator, network, /*seed=*/0xF11617);
  faults.AddOfflineChurn(fleet, 0.25, /*horizon=*/0,
                         200 * sim::kMillisecond, 900 * sim::kMillisecond);
  faults.AddRandomLinkFlaps(2, 800 * sim::kMillisecond,
                            30 * sim::kMillisecond, 90 * sim::kMillisecond);

  server::CampaignEngine engine(simulator, server);
  server::RetryPolicy policy;
  policy.max_waves = 8;
  policy.settle_delay = 50 * sim::kMillisecond;
  policy.initial_backoff = 250 * sim::kMillisecond;
  policy.max_backoff = 2 * sim::kSecond;

  fleet.MarkCampaignEpoch();
  auto id = engine.StartDeploy(user, "nav-stack", fleet.vins(), policy);
  if (!id.ok()) return 1;
  simulator.Run();

  const auto snapshot = *engine.Snapshot(*id);
  const char* verdict =
      snapshot.status == server::CampaignStatus::kConverged ? "CONVERGED"
                                                            : "NOT CONVERGED";
  std::printf("campaign %s: %s after %llu wave(s), %llu push(es)\n\n",
              "nav-stack", verdict,
              static_cast<unsigned long long>(snapshot.waves_pushed),
              static_cast<unsigned long long>(snapshot.total_pushes));

  const std::string trace = tracer.ChromeJson();
  tracer.Disable();

  // --- act 1: the wave timeline ---------------------------------------------
  std::printf("--- wave timeline -------------------------------------------\n");
  const auto waves = EventsNamed(trace, "campaign.wave");
  const auto skips = EventsNamed(trace, "campaign.wave.skips");
  for (const ParsedEvent& wave : waves) {
    const std::uint64_t index = FieldU64(wave.window, "wave");
    std::printf("  wave %llu at t=%8.1f ms: pushed=%3llu offline=%3llu",
                static_cast<unsigned long long>(index), Ms(wave.ts),
                static_cast<unsigned long long>(FieldU64(wave.window, "pushed")),
                static_cast<unsigned long long>(
                    FieldU64(wave.window, "offline")));
    for (const ParsedEvent& skip : skips) {
      if (FieldU64(skip.window, "wave") != index) continue;
      std::printf(" rejected=%llu already_done=%llu",
                  static_cast<unsigned long long>(
                      FieldU64(skip.window, "rejected")),
                  static_cast<unsigned long long>(
                      FieldU64(skip.window, "already_done")));
    }
    std::printf("\n");
  }

  // --- act 2: row-state transitions -----------------------------------------
  std::printf("\n--- row states ----------------------------------------------\n");
  std::printf("  done=%llu failed=%llu (fleet of %zu)\n",
              static_cast<unsigned long long>(snapshot.done),
              static_cast<unsigned long long>(snapshot.failed),
              fleet.vins().size());
  for (const std::string& vin : {fleet.vins().front(), fleet.vins().back()}) {
    const auto* row = engine.FindRow(*id, vin);
    if (row == nullptr) continue;
    std::printf("  %s: %llu attempt(s)\n", vin.c_str(),
                static_cast<unsigned long long>(row->attempts));
  }

  // --- act 3: per-wave push->ack round-trip quantiles -----------------------
  std::printf("\n--- push->ack round trips, bucketed by wave ----------------\n");
  const auto roundtrips = EventsNamed(trace, "deploy.roundtrip");
  for (std::size_t w = 0; w < waves.size(); ++w) {
    const std::uint64_t begin = waves[w].ts;
    const std::uint64_t end =
        w + 1 < waves.size() ? waves[w + 1].ts : ~std::uint64_t{0};
    support::Histogram histogram;
    for (const ParsedEvent& trip : roundtrips) {
      if (trip.ts >= begin && trip.ts < end) histogram.Observe(trip.dur);
    }
    if (histogram.Count() == 0) continue;
    std::printf(
        "  wave %zu: %4llu acks  p50=%7.1f ms  p95=%7.1f ms  p99=%7.1f ms  "
        "max=%7.1f ms\n",
        w + 1, static_cast<unsigned long long>(histogram.Count()),
        histogram.Quantile(0.50) / 1000.0, histogram.Quantile(0.95) / 1000.0,
        histogram.Quantile(0.99) / 1000.0,
        static_cast<double>(histogram.Max()) / 1000.0);
  }

  // --- act 4: the metric families -------------------------------------------
  std::printf("\n--- metrics exposition (Prometheus text format) -------------\n");
  const std::string exposition = metrics.TextExposition();
  std::fwrite(exposition.data(), 1, exposition.size(), stdout);

  std::FILE* out = std::fopen("flight_report_trace.json", "wb");
  if (out != nullptr) {
    std::fwrite(trace.data(), 1, trace.size(), out);
    std::fclose(out);
    std::printf(
        "\nwrote %zu trace events to flight_report_trace.json "
        "(open at https://ui.perfetto.dev)\n",
        static_cast<std::size_t>(tracer.size()));
  }
  return snapshot.status == server::CampaignStatus::kConverged ? 0 : 1;
}
