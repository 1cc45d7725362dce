// Unit tests for the simulation substrate: event kernel, CAN bus model,
// network channels, deterministic RNG.
#include <gtest/gtest.h>

#include <functional>
#include <memory>
#include <string>

#include "sim/can_bus.hpp"
#include "sim/network.hpp"
#include "sim/rng.hpp"
#include "sim/simulator.hpp"

namespace dacm::sim {
namespace {

// --- Simulator ------------------------------------------------------------------

TEST(SimulatorTest, RunsEventsInTimeOrder) {
  Simulator simulator;
  std::vector<int> order;
  simulator.ScheduleAt(30, [&]() { order.push_back(3); });
  simulator.ScheduleAt(10, [&]() { order.push_back(1); });
  simulator.ScheduleAt(20, [&]() { order.push_back(2); });
  simulator.Run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(simulator.Now(), 30u);
}

TEST(SimulatorTest, EqualTimestampsFireFifo) {
  Simulator simulator;
  std::vector<int> order;
  for (int i = 0; i < 5; ++i) {
    simulator.ScheduleAt(100, [&order, i]() { order.push_back(i); });
  }
  simulator.Run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(SimulatorTest, RunUntilStopsAtBoundaryInclusive) {
  Simulator simulator;
  int fired = 0;
  simulator.ScheduleAt(10, [&]() { ++fired; });
  simulator.ScheduleAt(20, [&]() { ++fired; });
  simulator.ScheduleAt(21, [&]() { ++fired; });
  simulator.RunUntil(20);
  EXPECT_EQ(fired, 2);
  EXPECT_EQ(simulator.Now(), 20u);
  simulator.Run();
  EXPECT_EQ(fired, 3);
}

TEST(SimulatorTest, RunUntilAdvancesTimeEvenWhenIdle) {
  Simulator simulator;
  simulator.RunUntil(500);
  EXPECT_EQ(simulator.Now(), 500u);
}

TEST(SimulatorTest, EventsScheduledDuringRunExecute) {
  Simulator simulator;
  int depth = 0;
  simulator.ScheduleAt(1, [&]() {
    ++depth;
    simulator.ScheduleAfter(1, [&]() { ++depth; });
  });
  simulator.Run();
  EXPECT_EQ(depth, 2);
  EXPECT_EQ(simulator.Now(), 2u);
}

TEST(SimulatorTest, LateSchedulingClampsToNow) {
  Simulator simulator;
  SimTime seen = 12345;
  simulator.ScheduleAt(100, [&]() {
    simulator.ScheduleAt(50, [&]() { seen = simulator.Now(); });  // in the past
  });
  simulator.Run();
  EXPECT_EQ(seen, 100u);
}

TEST(SimulatorTest, RunLimitBoundsEventCount) {
  Simulator simulator;
  int fired = 0;
  for (int i = 0; i < 10; ++i) simulator.ScheduleAt(i, [&]() { ++fired; });
  EXPECT_EQ(simulator.Run(4), 4u);
  EXPECT_EQ(fired, 4);
  EXPECT_EQ(simulator.PendingEvents(), 6u);
}

TEST(SimulatorTest, RunLimitMidStormKeepsFifoForLateSchedules) {
  // Stop inside a same-timestamp storm, append more events at that
  // timestamp, and verify the combined FIFO order survives.
  Simulator simulator;
  std::vector<int> order;
  for (int i = 0; i < 4; ++i) {
    simulator.ScheduleAt(100, [&order, i]() { order.push_back(i); });
  }
  EXPECT_EQ(simulator.Run(2), 2u);
  for (int i = 4; i < 6; ++i) {
    simulator.ScheduleAt(100, [&order, i]() { order.push_back(i); });
  }
  simulator.Run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4, 5}));
}

TEST(SimulatorTest, FarFutureEventsBeyondWheelHorizonFire) {
  // Past the timer wheel's 2^36 us horizon, events wait in the overflow
  // heap; ordering against near events must be unaffected.
  Simulator simulator;
  const SimTime far = (SimTime{1} << 40) + 123;  // ~13 days
  std::vector<int> order;
  simulator.ScheduleAt(far, [&]() { order.push_back(2); });
  simulator.ScheduleAt(far, [&]() { order.push_back(3); });  // FIFO at far
  simulator.ScheduleAt(10, [&]() { order.push_back(1); });
  EXPECT_EQ(simulator.Run(), 3u);
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(simulator.Now(), far);
}

TEST(SimulatorTest, HorizonBoundaryLandsInOverflowNotSlotZero) {
  // at = cursor + 2^36 is the first time the wheel cannot hold: the slot
  // index would wrap onto slot 0 of the *current* window and fire 2^36 us
  // early.  Both the exact horizon and horizon + 1 must be parked in the
  // overflow heap and fire at their true time, in order.
  Simulator simulator;
  const SimTime horizon = SimTime{1} << 36;
  std::vector<SimTime> fired;
  auto record = [&]() { fired.push_back(simulator.Now()); };
  // Anchor events defeat the single-event solo fast path, so the horizon
  // events actually exercise Place() routing.
  simulator.ScheduleAt(1, record);
  simulator.ScheduleAt(horizon - 1, record);  // last representable slot
  simulator.ScheduleAt(horizon, record);      // exactly at the boundary
  simulator.ScheduleAt(horizon + 1, record);
  EXPECT_EQ(simulator.OverflowEvents(), 2u);  // horizon and horizon + 1
  EXPECT_EQ(simulator.Run(), 4u);
  EXPECT_EQ(fired, (std::vector<SimTime>{1, horizon - 1, horizon, horizon + 1}));
  EXPECT_EQ(simulator.Now(), horizon + 1);

  // Same check from a nonzero cursor: the boundary is relative to Now().
  const SimTime base = simulator.Now();
  simulator.ScheduleAt(base + 5, record);
  simulator.ScheduleAt(base + horizon, record);
  EXPECT_EQ(simulator.OverflowEvents(), 1u);
  EXPECT_EQ(simulator.Run(), 2u);
  EXPECT_EQ(simulator.Now(), base + horizon);
}

TEST(SimulatorTest, RunUntilAcrossWheelWindowsInterleavesCorrectly) {
  // Events straddling several 64 us / 4096 us wheel windows, run in
  // bounded slices: every slice boundary must preserve global order.
  Simulator simulator;
  std::vector<SimTime> fired;
  const SimTime times[] = {1, 63, 64, 65, 127, 128, 4095, 4096, 4097, 40000};
  for (SimTime t : times) {
    simulator.ScheduleAt(t, [&fired, &simulator]() {
      fired.push_back(simulator.Now());
    });
  }
  for (SimTime until = 0; until <= 40000; until += 61) {
    simulator.RunUntil(until);
  }
  simulator.Run();
  EXPECT_EQ(fired, std::vector<SimTime>(std::begin(times), std::end(times)));
}

TEST(SimulatorTest, EventNodePoolStopsGrowingUnderChurn) {
  // Steady-state schedule/fire churn must recycle event nodes instead of
  // allocating: a ping-pong chain of 10k events fits one pool block.
  Simulator simulator;
  int remaining = 10000;
  std::function<void()> ping = [&]() {
    if (--remaining > 0) simulator.ScheduleAfter(7, ping);
  };
  simulator.ScheduleAfter(1, ping);
  simulator.Run();
  EXPECT_EQ(remaining, 0);
  // One event in flight at a time: a single 256-node pool block suffices.
  EXPECT_EQ(simulator.AllocatedEventNodes(), 256u);
}

TEST(SimulatorTest, ScheduleAfterRunUntilCascadeStaysOrdered) {
  // RunUntil(66) cascades the [64,127] wheel window (cursor -> 64) but
  // fires nothing; work scheduled afterwards, just behind the next due
  // event, must still fire in global time order.
  Simulator simulator;
  std::vector<SimTime> fired;
  auto record = [&]() { fired.push_back(simulator.Now()); };
  simulator.ScheduleAt(70, record);
  simulator.ScheduleAt(74, record);
  simulator.RunUntil(66);
  simulator.ScheduleAt(simulator.Now() + 1, record);
  simulator.Run();
  EXPECT_EQ(fired, (std::vector<SimTime>{67, 70, 74}));
}

// --- CAN bus -----------------------------------------------------------------------

struct BusFixture : ::testing::Test {
  Simulator simulator;
  CanBus bus{simulator, 500'000};
  std::vector<std::pair<CanNodeId, CanFrame>> received;

  CanNodeId Attach(const std::string& name) {
    const CanNodeId id = bus.AttachNode(
        name, [this, idx = next_idx_](const CanFrame& f) {
          received.emplace_back(idx, f);
        });
    ++next_idx_;
    return id;
  }

  static CanFrame Frame(std::uint32_t can_id, std::initializer_list<std::uint8_t> data) {
    CanFrame frame;
    frame.can_id = can_id;
    frame.dlc = static_cast<std::uint8_t>(data.size());
    std::size_t i = 0;
    for (std::uint8_t b : data) frame.data[i++] = b;
    return frame;
  }

 private:
  CanNodeId next_idx_ = 0;
};

TEST_F(BusFixture, BroadcastExcludesSender) {
  auto a = Attach("a");
  Attach("b");
  Attach("c");
  ASSERT_TRUE(bus.Send(a, Frame(0x100, {1, 2, 3})).ok());
  simulator.Run();
  ASSERT_EQ(received.size(), 2u);  // b and c, not a
  EXPECT_EQ(received[0].first, 1u);
  EXPECT_EQ(received[1].first, 2u);
  EXPECT_EQ(received[0].second.data[2], 3);
}

TEST_F(BusFixture, LowerIdWinsArbitration) {
  auto a = Attach("a");
  auto b = Attach("b");
  Attach("sink");
  // Queue both before running: the lower identifier must transmit first.
  ASSERT_TRUE(bus.Send(a, Frame(0x300, {1})).ok());
  ASSERT_TRUE(bus.Send(b, Frame(0x100, {2})).ok());
  simulator.Run(1);  // only the first transmission completes
  // Once the 0x300 frame grabbed the idle bus it finishes, but every send
  // after that point arbitrates: queue two more while busy.
  received.clear();
  ASSERT_TRUE(bus.Send(a, Frame(0x250, {3})).ok());
  ASSERT_TRUE(bus.Send(b, Frame(0x110, {4})).ok());
  simulator.Run();
  std::vector<std::uint32_t> sink_ids;
  for (const auto& [node, frame] : received) {
    if (node == 2) sink_ids.push_back(frame.can_id);
  }
  ASSERT_GE(sink_ids.size(), 2u);
  // 0x110 must beat 0x250.
  auto it_110 = std::find(sink_ids.begin(), sink_ids.end(), 0x110u);
  auto it_250 = std::find(sink_ids.begin(), sink_ids.end(), 0x250u);
  ASSERT_NE(it_110, sink_ids.end());
  ASSERT_NE(it_250, sink_ids.end());
  EXPECT_LT(it_110 - sink_ids.begin(), it_250 - sink_ids.begin());
}

TEST_F(BusFixture, RejectsMalformedFrames) {
  auto a = Attach("a");
  CanFrame too_long;
  too_long.can_id = 1;
  too_long.dlc = 9;
  EXPECT_FALSE(bus.Send(a, too_long).ok());
  CanFrame bad_id;
  bad_id.can_id = 0x800;  // 12 bits
  bad_id.dlc = 1;
  EXPECT_FALSE(bus.Send(a, bad_id).ok());
  EXPECT_FALSE(bus.Send(999, Frame(1, {})).ok());
}

TEST_F(BusFixture, FrameTimeScalesWithPayloadAndBitrate) {
  const SimTime t0 = bus.FrameTime(0);
  const SimTime t8 = bus.FrameTime(8);
  EXPECT_GT(t8, t0);
  // 8 data bytes at 500 kbit/s with stuffing: on the order of 200-300 us.
  EXPECT_GT(t8, 150u);
  EXPECT_LT(t8, 400u);
  CanBus slow_bus(simulator, 125'000);
  EXPECT_GT(slow_bus.FrameTime(8), t8);
}

TEST_F(BusFixture, DropRateLosesFrames) {
  auto a = Attach("a");
  Attach("b");
  bus.SetDropRate(1.0);
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(bus.Send(a, Frame(0x100, {static_cast<std::uint8_t>(i)})).ok());
  }
  simulator.Run();
  EXPECT_TRUE(received.empty());
  EXPECT_EQ(bus.frames_dropped(), 10u);
  EXPECT_EQ(bus.frames_transmitted(), 10u);
}

TEST_F(BusFixture, CorruptionFlipsOneBitAndFlagsFrame) {
  auto a = Attach("a");
  Attach("b");
  bus.SetCorruptRate(1.0);
  ASSERT_TRUE(bus.Send(a, Frame(0x100, {0x00, 0x00, 0x00, 0x00})).ok());
  simulator.Run();
  ASSERT_EQ(received.size(), 1u);
  EXPECT_TRUE(received[0].second.corrupted);
  int set_bits = 0;
  for (int i = 0; i < 4; ++i) {
    set_bits += __builtin_popcount(received[0].second.data[i]);
  }
  EXPECT_EQ(set_bits, 1);
}

TEST_F(BusFixture, BackToBackFramesSerializeOnTheBus) {
  auto a = Attach("a");
  Attach("b");
  ASSERT_TRUE(bus.Send(a, Frame(0x100, {1})).ok());
  ASSERT_TRUE(bus.Send(a, Frame(0x100, {2})).ok());
  simulator.Run(1);
  EXPECT_EQ(received.size(), 1u);  // second still in flight
  simulator.Run();
  EXPECT_EQ(received.size(), 2u);
  EXPECT_EQ(received[1].second.data[0], 2);
}

// --- Network ------------------------------------------------------------------------

TEST(NetworkTest, ConnectAcceptAndExchange) {
  Simulator simulator;
  Network network(simulator, 10 * kMillisecond);
  std::shared_ptr<NetPeer> server_side;
  ASSERT_TRUE(network
                  .Listen("srv:1", [&](std::shared_ptr<NetPeer> peer) {
                    server_side = std::move(peer);
                  })
                  .ok());
  auto client = network.Connect("srv:1");
  ASSERT_TRUE(client.ok());
  simulator.Run();
  ASSERT_NE(server_side, nullptr);

  std::string got;
  server_side->SetReceiveHandler(
      [&](const support::Bytes& data) { got = support::ToString(data); });
  ASSERT_TRUE((*client)->Send(support::ToBytes("ping")).ok());
  simulator.Run();
  EXPECT_EQ(got, "ping");
}

TEST(NetworkTest, LatencyIsApplied) {
  Simulator simulator;
  Network network(simulator, 25 * kMillisecond);
  std::shared_ptr<NetPeer> server_side;
  ASSERT_TRUE(network.Listen("srv:1", [&](auto peer) { server_side = peer; }).ok());
  auto client = network.Connect("srv:1");
  ASSERT_TRUE(client.ok());
  simulator.Run();
  SimTime arrival = 0;
  server_side->SetReceiveHandler([&](const support::Bytes&) { arrival = simulator.Now(); });
  const SimTime sent_at = simulator.Now();
  ASSERT_TRUE((*client)->Send(support::ToBytes("x")).ok());
  simulator.Run();
  EXPECT_EQ(arrival - sent_at, 25 * kMillisecond);
}

TEST(NetworkTest, ConnectToUnknownAddressFails) {
  Simulator simulator;
  Network network(simulator);
  EXPECT_EQ(network.Connect("nowhere").status().code(),
            support::ErrorCode::kNotFound);
}

TEST(NetworkTest, DuplicateListenerRejected) {
  Simulator simulator;
  Network network(simulator);
  ASSERT_TRUE(network.Listen("a", [](auto) {}).ok());
  EXPECT_EQ(network.Listen("a", [](auto) {}).code(),
            support::ErrorCode::kAlreadyExists);
}

TEST(NetworkTest, LinkDownDropsSendsAndBlocksConnects) {
  Simulator simulator;
  Network network(simulator);
  std::shared_ptr<NetPeer> server_side;
  ASSERT_TRUE(network.Listen("srv", [&](auto peer) { server_side = peer; }).ok());
  auto client = network.Connect("srv");
  ASSERT_TRUE(client.ok());
  simulator.Run();
  network.SetLinkUp(false);
  EXPECT_EQ((*client)->Send(support::ToBytes("x")).code(),
            support::ErrorCode::kUnavailable);
  EXPECT_FALSE(network.Connect("srv").ok());
  network.SetLinkUp(true);
  EXPECT_TRUE((*client)->Send(support::ToBytes("x")).ok());
}

TEST(NetworkTest, CloseMakesRemoteUnavailable) {
  Simulator simulator;
  Network network(simulator);
  std::shared_ptr<NetPeer> server_side;
  ASSERT_TRUE(network.Listen("srv", [&](auto peer) { server_side = peer; }).ok());
  auto client = network.Connect("srv");
  ASSERT_TRUE(client.ok());
  simulator.Run();
  server_side->Close();
  EXPECT_FALSE(server_side->connected());
  EXPECT_EQ((*client)->Send(support::ToBytes("x")).code(),
            support::ErrorCode::kUnavailable);
}

// --- Rng -----------------------------------------------------------------------------

TEST(RngTest, DeterministicForSameSeed) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.NextU64(), b.NextU64());
  }
}

TEST(RngTest, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int equal = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.NextU64() == b.NextU64()) ++equal;
  }
  EXPECT_LT(equal, 3);
}

TEST(RngTest, RangesRespected) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.NextBelow(10), 10u);
    const auto v = rng.NextInRange(5, 9);
    EXPECT_GE(v, 5u);
    EXPECT_LE(v, 9u);
    const double d = rng.NextDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(RngTest, BernoulliRoughlyCalibrated) {
  Rng rng(11);
  int hits = 0;
  for (int i = 0; i < 10000; ++i) {
    if (rng.NextBool(0.3)) ++hits;
  }
  EXPECT_GT(hits, 2600);
  EXPECT_LT(hits, 3400);
}

}  // namespace
}  // namespace dacm::sim
