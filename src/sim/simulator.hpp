// Deterministic discrete-event simulation kernel.
//
// Everything time-dependent in the repo (OS tick, CAN frame timing,
// server<->vehicle network latency) is driven by one Simulator instance, so
// whole-system runs are reproducible down to the event ordering.  Events
// scheduled for the same timestamp fire in scheduling order (FIFO), which
// keeps test expectations stable.
//
// The pending set lives in a hierarchical timer wheel with pooled event
// nodes and inline callback storage (sim/event_queue.hpp): steady-state
// scheduling and firing allocates nothing and performs no comparisons, yet
// replays byte-identically against the classic priority-queue core (the
// property suite checks exactly that).
//
// The kernel is single-threaded: every event fires on the thread that
// calls Run/RunUntil, and every component it drives schedules from that
// thread (README "Threading model" gives the measurement behind that).
#pragma once

#include <cstdint>

#include "sim/event_queue.hpp"

namespace dacm::sim {

/// Single-threaded event-queue simulator.
class Simulator {
 public:
  /// Inline up to 48 bytes of captures; larger callables heap-allocate
  /// once (see support/inplace_function.hpp).  Move-only.
  using Callback = EventQueue::Callback;

  Simulator() = default;
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  /// Current simulated time.
  SimTime Now() const { return now_; }

  /// Schedules `fn` to run at absolute time `at`; a time before Now()
  /// clamps to Now() ("immediately", after everything already due).
  void ScheduleAt(SimTime at, Callback fn);

  /// Schedules `fn` to run `delay` after Now().
  void ScheduleAfter(SimTime delay, Callback fn) {
    ScheduleAt(now_ + delay, std::move(fn));
  }

  /// Runs events until the queue is empty or `limit` events have fired.
  /// Returns the number of events processed.
  std::size_t Run(std::size_t limit = SIZE_MAX);

  /// Runs events with timestamp <= `until` (inclusive); advances Now() to
  /// `until` even if the queue drains earlier.  Returns events processed.
  std::size_t RunUntil(SimTime until);

  /// Runs for `duration` of simulated time from Now().
  std::size_t RunFor(SimTime duration) { return RunUntil(now_ + duration); }

  bool Empty() const { return queue_.Empty(); }
  std::size_t PendingEvents() const { return queue_.size(); }
  /// Event-node pool footprint (tests assert steady-state churn stops
  /// growing it; see EventQueue::allocated_nodes).
  std::size_t AllocatedEventNodes() const { return queue_.allocated_nodes(); }
  /// Events beyond the wheel horizon (see EventQueue::overflow_size).
  std::size_t OverflowEvents() const { return queue_.overflow_size(); }

 private:
  /// Folds locally-counted events into the process metrics registry —
  /// called once per Run/RunUntil return so the event loop itself never
  /// touches an atomic per event.
  void FoldMetrics(std::size_t processed);

  SimTime now_ = 0;
  EventQueue queue_;
};

}  // namespace dacm::sim
