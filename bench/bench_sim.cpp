// SIM — the discrete-event kernel itself.
//
// The Simulator's pending-event store is a hierarchical timer wheel with
// pooled nodes and inline callback storage (sim/event_queue.hpp).  These
// benchmarks put numbers on it:
//
//   * BM_Wheel* / BM_Legacy* pairs — identical deterministic schedules
//     driven through the production kernel and through the
//     std::priority_queue<Event> + std::function core it replaced
//     (reimplemented below as the baseline).  Three schedule shapes:
//       - NearMonotonic: mixed latencies/alarm periods, the fleet pattern;
//       - SameTimestampStorm: N events at one timestamp (ack storms);
//       - TimerChurn: a self-rescheduling alarm chain (OS tick pattern).
//
// The bar: >= 2x schedule+fire throughput for the wheel rows over their
// legacy twins on the CI-class runner.
#include <benchmark/benchmark.h>

#include <cstdint>
#include <functional>
#include <queue>
#include <vector>

#include "bench_common.hpp"
#include "sim/simulator.hpp"

namespace dacm::bench {
namespace {

// The replaced event core, verbatim: a binary-heap priority queue of
// std::function events with a FIFO sequence tie-break.  Kept here (not in
// src/) purely as the measurement baseline.
class LegacyKernel {
 public:
  using Callback = std::function<void()>;

  sim::SimTime Now() const { return now_; }

  void ScheduleAt(sim::SimTime at, Callback fn) {
    if (at < now_) at = now_;
    queue_.push(Event{at, next_seq_++, std::move(fn)});
  }
  void ScheduleAfter(sim::SimTime delay, Callback fn) {
    ScheduleAt(now_ + delay, std::move(fn));
  }

  std::size_t Run() {
    std::size_t processed = 0;
    while (!queue_.empty()) {
      Event ev = std::move(const_cast<Event&>(queue_.top()));
      queue_.pop();
      now_ = ev.at;
      ev.fn();
      ++processed;
    }
    return processed;
  }

 private:
  struct Event {
    sim::SimTime at;
    std::uint64_t seq;
    Callback fn;
  };
  struct Later {
    bool operator()(const Event& a, const Event& b) const {
      if (a.at != b.at) return a.at > b.at;
      return a.seq > b.seq;
    }
  };

  sim::SimTime now_ = 0;
  std::uint64_t next_seq_ = 0;
  std::priority_queue<Event, std::vector<Event>, Later> queue_;
};

/// Deterministic delay stream shared by both kernels: the near-monotonic
/// mixture the fleet pipeline produces (dominant short network latencies,
/// alarm periods, an occasional long backoff).
class DelayStream {
 public:
  sim::SimTime Next() {
    state_ = state_ * 6364136223846793005ull + 1442695040888963407ull;
    const std::uint64_t draw = state_ >> 33;
    switch (draw & 7) {
      case 0: return 0;                                  // same-timestamp
      case 1: return 1 + (draw % 64);                    // sub-slot jitter
      case 2: return sim::kMillisecond;                  // OS tick
      case 3: return 100 * sim::kMillisecond;            // alarm period
      case 4: return sim::kSecond + (draw % 1024);       // backoff
      default: return 20 * sim::kMillisecond + (draw % 512);  // WAN latency
    }
  }

 private:
  std::uint64_t state_ = 0x51D0C0DE;
};

template <typename Kernel>
void ScheduleFireNearMonotonic(benchmark::State& state) {
  const auto batch = static_cast<std::size_t>(state.range(0));
  Kernel kernel;
  DelayStream delays;
  std::uint64_t fired = 0;
  for (auto _ : state) {
    for (std::size_t i = 0; i < batch; ++i) {
      kernel.ScheduleAfter(delays.Next(), [&fired]() { ++fired; });
    }
    kernel.Run();
  }
  benchmark::DoNotOptimize(fired);
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(batch));
}

template <typename Kernel>
void SameTimestampStorm(benchmark::State& state) {
  const auto batch = static_cast<std::size_t>(state.range(0));
  Kernel kernel;
  std::uint64_t fired = 0;
  for (auto _ : state) {
    const sim::SimTime at = kernel.Now() + sim::kMillisecond;
    for (std::size_t i = 0; i < batch; ++i) {
      kernel.ScheduleAt(at, [&fired]() { ++fired; });
    }
    kernel.Run();
  }
  benchmark::DoNotOptimize(fired);
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(batch));
}

template <typename Kernel>
void TimerChurn(benchmark::State& state) {
  const auto chain = static_cast<std::size_t>(state.range(0));
  Kernel kernel;
  std::size_t remaining = 0;
  // A periodic alarm rescheduling itself: one live event at a time, the
  // depth-1 pattern the OS tick and watchdog produce.  The ticker is a
  // plain 16-byte callable, so each kernel erases it natively (the legacy
  // core *must* wrap it in std::function — that was the point of the
  // inline-callback rework).
  struct Ticker {
    Kernel* kernel;
    std::size_t* remaining;
    void operator()() const {
      if (--*remaining > 0) kernel->ScheduleAfter(sim::kMillisecond, *this);
    }
  };
  const Ticker tick{&kernel, &remaining};
  for (auto _ : state) {
    remaining = chain;
    kernel.ScheduleAfter(sim::kMillisecond, tick);
    kernel.Run();
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(chain));
}

void BM_WheelScheduleFire(benchmark::State& state) {
  ScheduleFireNearMonotonic<sim::Simulator>(state);
}
void BM_LegacyScheduleFire(benchmark::State& state) {
  ScheduleFireNearMonotonic<LegacyKernel>(state);
}
void BM_WheelStorm(benchmark::State& state) {
  SameTimestampStorm<sim::Simulator>(state);
}
void BM_LegacyStorm(benchmark::State& state) {
  SameTimestampStorm<LegacyKernel>(state);
}
void BM_WheelTimerChurn(benchmark::State& state) {
  TimerChurn<sim::Simulator>(state);
}
void BM_LegacyTimerChurn(benchmark::State& state) {
  TimerChurn<LegacyKernel>(state);
}

BENCHMARK(BM_WheelScheduleFire)->Arg(1024)->Arg(16384);
BENCHMARK(BM_LegacyScheduleFire)->Arg(1024)->Arg(16384);
BENCHMARK(BM_WheelStorm)->Arg(4096);
BENCHMARK(BM_LegacyStorm)->Arg(4096);
BENCHMARK(BM_WheelTimerChurn)->Arg(8192);
BENCHMARK(BM_LegacyTimerChurn)->Arg(8192);

}  // namespace
}  // namespace dacm::bench

DACM_BENCH_MAIN();
