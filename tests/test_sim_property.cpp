// Property tests for the timer-wheel event kernel.
//
// The timer-wheel EventQueue promises *exact* replay equivalence with
// the std::priority_queue core it replaced: strictly increasing
// (timestamp, schedule-sequence) firing order, FIFO for equal timestamps,
// monotone Now(), identical RunUntil clock semantics.  Two angles:
//
//  * a differential fuzz drives a Simulator and a flat reference model
//    (sorted by the exact ordering key) through random ScheduleAt /
//    Run(limit) / RunUntil interleavings — same-timestamp storms,
//    wheel-window boundary times, callback-nested scheduling, far events
//    beyond the wheel horizon — and requires identical fired sequences
//    and clocks after every operation;
//
//  * a determinism re-run deploys a campaign twice and requires
//    fingerprint-identical outcomes.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "fes/appgen.hpp"
#include "fes/fleet.hpp"
#include "fes/testbed.hpp"
#include "server/server.hpp"
#include "sim/network.hpp"
#include "sim/simulator.hpp"
#include "support/crc.hpp"
#include "test_util.hpp"

namespace dacm::sim {
namespace {

// --- differential model ------------------------------------------------------------

/// The behavioral spec of the kernel: a flat list popped in (timestamp,
/// sequence) order — the ordering the old priority_queue core
/// implemented.
class ReferenceKernel {
 public:
  SimTime Now() const { return now_; }

  /// Schedule from outside an event: clamps like the engine — never
  /// before the clock.
  void ScheduleAt(SimTime at, int id) {
    if (at < now_) at = now_;
    Push(at, id);
  }

  /// Schedule issued from inside a fired event (the firing code computes
  /// `at` from the clock, so no clamp can bite).
  void ScheduleFromEvent(SimTime at, int id) { Push(at, id); }

  /// Pops the next due event (at <= limit), if any.
  bool PopDue(SimTime limit, SimTime* at, int* id) {
    std::size_t best = pending_.size();
    for (std::size_t i = 0; i < pending_.size(); ++i) {
      if (best == pending_.size() || Earlier(pending_[i], pending_[best])) {
        best = i;
      }
    }
    if (best == pending_.size() || pending_[best].at > limit) return false;
    *at = pending_[best].at;
    *id = pending_[best].id;
    now_ = pending_[best].at;
    pending_.erase(pending_.begin() + static_cast<std::ptrdiff_t>(best));
    return true;
  }

  void SetNow(SimTime now) {
    if (now > now_) now_ = now;
  }
  std::size_t Pending() const { return pending_.size(); }

 private:
  struct Event {
    SimTime at;
    std::uint64_t seq;
    int id;
  };
  static bool Earlier(const Event& a, const Event& b) {
    if (a.at != b.at) return a.at < b.at;
    return a.seq < b.seq;
  }

  void Push(SimTime at, int id) {
    pending_.push_back(Event{at, next_seq_++, id});
  }

  SimTime now_ = 0;
  std::uint64_t next_seq_ = 0;
  std::vector<Event> pending_;
};

/// Drives the real Simulator and the reference kernel through one shared
/// randomized plan.  Every parent id has pre-drawn follow-up decisions
/// (a relative child delay, an absolute child offset, or none) and child
/// ids are pure functions of the parent id, so callback-nested scheduling
/// stays identical on both sides.
class DifferentialHarness {
 public:
  /// Child ids: relative child = parent + kChildBias, absolute child =
  /// parent + 2 * kChildBias.  Parents stay below the bias, so children
  /// never nest.
  static constexpr int kChildBias = 1 << 20;

  explicit DifferentialHarness(Rng& rng) : rng_(rng) {}

  /// Delays biased at wheel stress points: same-timestamp storms (0),
  /// slot-window boundaries (64/4096 multiples), typical latencies, and
  /// far-future events beyond the 2^36 us overflow horizon.
  SimTime RandomDelay() {
    switch (rng_.NextBelow(8)) {
      case 0: return 0;
      case 1: return rng_.NextBelow(4);
      case 2: return 63 + rng_.NextBelow(3);
      case 3: return 4095 + rng_.NextBelow(3);
      case 4: return rng_.NextBelow(1000);
      case 5: return rng_.NextBelow(100000);
      case 6: return 20 * kMillisecond;
      default: {
        // Overflow-heap region, pinned to the horizon boundary: exactly
        // 2^36, one below (last wheel slot), one above, and a random
        // point beyond — the off-by-one band where a routing bug would
        // drop an event into slot 0 of the current window.
        const SimTime horizon = SimTime{1} << 36;
        switch (rng_.NextBelow(4)) {
          case 0: return horizon;
          case 1: return horizon - 1;
          case 2: return horizon + 1;
          default: return horizon + rng_.NextBelow(1 << 20);
        }
      }
    }
  }

  void ScheduleBoth(SimTime at) {
    const int id = next_id_++;
    ASSERT_LT(id, kChildBias);
    // ~1/3 of events schedule a relative follow-up (ScheduleAfter) from
    // inside their callback; ~1/4 schedule an absolute one (ScheduleAt).
    child_delay_.push_back(rng_.NextBelow(3) == 0
                               ? static_cast<std::int64_t>(RandomDelay())
                               : -1);
    abs_delay_.push_back(rng_.NextBelow(4) == 0
                             ? static_cast<std::int64_t>(RandomDelay())
                             : -1);
    model_.ScheduleAt(at, id);
    simulator_.ScheduleAt(at, [this, id] { OnFire(id); });
  }

  void RunBoth(std::size_t limit) {
    const std::size_t processed = simulator_.Run(limit);
    std::size_t model_processed = 0;
    SimTime at = 0;
    int id = 0;
    while (model_processed < limit &&
           model_.PopDue(EventQueue::kMaxTime, &at, &id)) {
      ModelFire(at, id);
      ++model_processed;
    }
    ASSERT_EQ(processed, model_processed);
    Compare();
  }

  void RunUntilBoth(SimTime until) {
    simulator_.RunUntil(until);
    SimTime at = 0;
    int id = 0;
    while (model_.PopDue(until, &at, &id)) ModelFire(at, id);
    model_.SetNow(until);
    Compare();
  }

  Simulator& simulator() { return simulator_; }

  void Compare() {
    ASSERT_EQ(simulator_.Now(), model_.Now());
    ASSERT_EQ(simulator_.PendingEvents(), model_.Pending());
    ASSERT_EQ(fired_.size(), fired_model_.size());
    for (std::size_t i = 0; i < fired_.size(); ++i) {
      ASSERT_EQ(fired_[i].at, fired_model_[i].at) << "event " << i;
      ASSERT_EQ(fired_[i].id, fired_model_[i].id) << "event " << i;
      if (i > 0) {
        ASSERT_LE(fired_[i - 1].at, fired_[i].at) << "clock ran backwards";
      }
    }
  }

 private:
  struct Fired {
    SimTime at;
    int id;
  };

  /// Records the firing and schedules the pre-drawn children.
  void OnFire(int id) {
    fired_.push_back(Fired{simulator_.Now(), id});
    if (id >= kChildBias) return;  // children do not nest further
    const auto index = static_cast<std::size_t>(id);
    if (child_delay_[index] >= 0) {
      const int child = id + kChildBias;
      simulator_.ScheduleAfter(static_cast<SimTime>(child_delay_[index]),
                               [this, child] { OnFire(child); });
    }
    if (abs_delay_[index] >= 0) {
      const int child = id + 2 * kChildBias;
      simulator_.ScheduleAt(
          simulator_.Now() + static_cast<SimTime>(abs_delay_[index]),
          [this, child] { OnFire(child); });
    }
  }

  void ModelFire(SimTime at, int id) {
    fired_model_.push_back(Fired{at, id});
    if (id >= kChildBias) return;
    const auto index = static_cast<std::size_t>(id);
    if (child_delay_[index] >= 0) {
      model_.ScheduleFromEvent(at + static_cast<SimTime>(child_delay_[index]),
                               id + kChildBias);
    }
    if (abs_delay_[index] >= 0) {
      model_.ScheduleFromEvent(at + static_cast<SimTime>(abs_delay_[index]),
                               id + 2 * kChildBias);
    }
  }

  Rng& rng_;
  Simulator simulator_;
  ReferenceKernel model_;
  int next_id_ = 0;
  std::vector<std::int64_t> child_delay_;
  std::vector<std::int64_t> abs_delay_;
  std::vector<Fired> fired_;
  std::vector<Fired> fired_model_;
};

TEST(EventQueueProperty, DifferentialFuzzAgainstPriorityQueueModel) {
  DACM_PROPERTY_RNG(rng);
  for (int round = 0; round < 24; ++round) {
    DifferentialHarness harness(rng);
    const int ops = 120;
    for (int op = 0; op < ops; ++op) {
      switch (rng.NextBelow(5)) {
        case 0:
        case 1: {
          // A burst of schedules, sometimes at one shared timestamp
          // (storm) to stress FIFO tie-breaking.
          const SimTime base =
              harness.simulator().Now() + harness.RandomDelay();
          const std::size_t burst = 1 + rng.NextBelow(8);
          const bool storm = rng.NextBelow(2) == 0;
          for (std::size_t i = 0; i < burst; ++i) {
            harness.ScheduleBoth(storm ? base
                                       : harness.simulator().Now() +
                                             harness.RandomDelay());
          }
          break;
        }
        case 2:
          harness.RunBoth(rng.NextBelow(6));
          break;
        case 3:
          harness.RunUntilBoth(harness.simulator().Now() +
                               harness.RandomDelay());
          break;
        default: {
          // Late scheduling must clamp identically on both sides.
          const SimTime now = harness.simulator().Now();
          const SimTime back = 1 + rng.NextBelow(100);
          harness.ScheduleBoth(now > back ? now - back : 0);
          break;
        }
      }
      if (HasFatalFailure()) return;
    }
    harness.RunBoth(SIZE_MAX);  // drain everything, including far events
    if (HasFatalFailure()) return;
  }
}

// --- determinism fingerprint on the new core ---------------------------------------

/// One campaign world; returns a fingerprint over everything the
/// determinism contract covers: delivery counts, server statistics and
/// per-vehicle terminal states.
std::uint32_t CampaignFingerprint() {
  Simulator simulator;
  Network network(simulator, kMillisecond);
  server::TrustedServer server(network, "srv:443");
  EXPECT_TRUE(server.Start().ok());
  EXPECT_TRUE(server.UploadVehicleModel(fes::MakeRpiTestbedConf()).ok());
  const server::UserId user = *server.CreateUser("prop");

  fes::ScriptedFleetOptions options;
  options.vehicle_count = 160;
  options.nack_every = 7;  // a healthy mix of acks and nacks
  fes::ScriptedFleet fleet(simulator, network, server, options);
  EXPECT_TRUE(fleet.BindAndConnect(user).ok());

  fes::SyntheticAppParams params;
  params.name = "prop-app";
  params.vehicle_model = "rpi-testbed";
  params.plugin_count = 3;
  params.ports_per_plugin = 4;
  params.target_ecu = 1;
  params.binary_padding = 512;
  EXPECT_TRUE(server.UploadApp(fes::MakeSyntheticApp(params)).ok());

  auto report = server.DeployCampaign(user, "prop-app", fleet.vins());
  EXPECT_TRUE(report.ok());
  simulator.Run();

  support::ByteWriter fp;
  fp.WriteU64(network.messages_delivered());
  fp.WriteU64(fleet.acks_sent());
  fp.WriteU64(fleet.nacks_sent());
  const server::ServerStats& stats = server.stats();
  fp.WriteU64(stats.packages_pushed);
  fp.WriteU64(stats.acks_received);
  fp.WriteU64(stats.nacks_received);
  fp.WriteU64(stats.deploys_ok);
  fp.WriteU64(stats.deploys_rejected);
  for (const std::string& vin : fleet.vins()) {
    auto state = server.AppState(vin, "prop-app");
    fp.WriteU8(state.ok() ? static_cast<std::uint8_t>(*state) : 0xff);
  }
  return support::Crc32(fp.bytes());
}

TEST(EventQueueProperty, ShardedCampaignFingerprintIsStableOnNewCore) {
  const std::uint32_t first = CampaignFingerprint();
  const std::uint32_t second = CampaignFingerprint();
  EXPECT_EQ(first, second);
  EXPECT_NE(first, 0u);  // a degenerate all-zero world would also "match"
}

}  // namespace
}  // namespace dacm::sim
