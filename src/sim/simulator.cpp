// Serial event loop plus the parallel lane engine.
//
// Lane protocol (ConfigureLanes(N > 1)) — conservative time windows with
// deterministic merge barriers:
//
//   1. All queues quiescent?  Drain staged sends; find t0 = min over
//      lanes of the next pending timestamp.  The window is
//      [t0, b = min(until, t0 + lookahead - 1)].
//   2. Phase 1: lane 0 (control plane) fires its due events on the
//      control thread.  Phase 2: worker lanes with events <= b fire
//      concurrently on the kernel pool.  The phase split means control
//      mutations (link flaps, peer teardown, fleet columns) are ordered
//      before every worker read in the same window — the pool's
//      dispatch/join handshake provides the happens-before both ways, so
//      shared state needs no extra locks and the outcome is
//      thread-timing independent.
//   3. During lane execution, a schedule stays in-lane only if it
//      targets the executing lane at a timestamp <= b; *everything else*
//      — cross-lane, or in-lane beyond the window — is buffered as a
//      CrossRequest stamped with the parent event's timestamp.
//   4. Merge barrier: each lane's buffer is already nondecreasing in
//      parent timestamp, so a k-way merge over the lanes (lower parent
//      timestamp first, ties to the lower lane) yields exactly the order
//      in which a serial merged-order run would have issued them; each
//      request is pushed as it is merged (the target queue assigns the
//      lane-local seq).  Lookahead
//      guarantees every committed timestamp is > b, so a committed
//      request can never tie on (at) with a window-direct push — which
//      is why per-lane seq assignment order only has to match the
//      serial reference among the committed set and among the direct
//      set, never across them.
//
// The replay contract generalizes to firing in (at, lane, lane-local
// seq) order; the differential property suite checks it against a flat
// reference kernel at lanes {1, 2, 4, 8}.  Bounded Run(limit) cannot use
// windows (a window fires an unpredictable number of events), so it
// falls back to an exact serialized engine that pops the globally
// minimal (at, lane) event and commits its requests immediately.
#include "sim/simulator.hpp"

#include <algorithm>
#include <cassert>
#include <chrono>
#include <thread>

#include "support/metrics.hpp"
#include "support/thread_pool.hpp"
#include "support/trace.hpp"

namespace dacm::sim {
namespace {

// Bound once; the event loop folds locally-counted events in with one
// relaxed add per Run/RunUntil return, never per event.
support::Counter& EventsCounter() {
  static support::Counter& counter =
      support::Metrics::Instance().GetCounter("dacm_sim_events_total");
  return counter;
}

support::Counter& DrainPassCounter() {
  static support::Counter& counter =
      support::Metrics::Instance().GetCounter("dacm_sim_drain_passes_total");
  return counter;
}

// Events fired by the lane engine, folded once per merge barrier.
support::Counter& LaneEventsCounter() {
  static support::Counter& counter =
      support::Metrics::Instance().GetCounter("dacm_sim_lane_events_total");
  return counter;
}

// Wall-clock nanoseconds each participating worker lane spent waiting at
// the merge barrier for the window's slowest lane (wall wait, not sim
// time — the one deliberately nondeterministic sim metric).
support::Histogram& BarrierStallHistogram() {
  static support::Histogram& histogram =
      support::Metrics::Instance().GetHistogram("dacm_sim_barrier_stall_nanos");
  return histogram;
}

// One coarse span per kernel entry: [Now() at entry, Now() at return],
// args = events fired.  Every value is sim-derived, so seeded runs trace
// byte-identically.
void TraceRun(const char* name, SimTime start, SimTime end,
              std::size_t events) {
  auto& tracer = support::Tracer::Instance();
  if (!tracer.enabled() || events == 0) return;
  tracer.Span(0, name, "sim", start, end - start,
              {"events", static_cast<std::uint64_t>(events)});
}

// Tracer lanes [kSimTraceLaneBase, kSimTraceLaneBase + lanes) carry the
// per-sim-lane sim.window spans; the server shard lanes (shard + 1) stay
// below this block.  All window/barrier events are emitted from the
// control thread between phases, preserving the one-writer-per-lane ring
// contract.
constexpr std::uint32_t kSimTraceLaneBase = 32;

std::uint64_t ElapsedNanos(std::chrono::steady_clock::time_point since) {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - since)
          .count());
}

// Which lane (if any) the current thread is executing an event for.
// Thread-local rather than a member: phase-2 windows run lanes on pool
// threads, and a raw member would need synchronization the hot serial
// path should not pay for.
struct LaneContext {
  Simulator* sim = nullptr;
  std::uint32_t lane = 0;
  SimTime window_end = 0;
};
thread_local LaneContext tls_lane;

}  // namespace

Simulator::Simulator() = default;
Simulator::~Simulator() = default;  // joins the lane pool, if any

void Simulator::ConfigureLanes(LaneOptions options) {
  assert(!multi_ && now_ == 0 && queue_.Empty() &&
         "ConfigureLanes must run before any scheduling");
  if (options.lanes <= 1) return;
  const std::size_t lanes = std::min(options.lanes, kMaxSimLanes);
  ClampLookahead(options.lookahead);
  lanes_.reserve(lanes);
  for (std::size_t i = 0; i < lanes; ++i) {
    lanes_.push_back(std::make_unique<LaneState>());
  }
  std::size_t threads = options.threads;
  if (threads == SIZE_MAX) {
    // One worker per non-control lane, capped at the cores left after
    // the control thread: oversubscribing only buys context-switch
    // thrash at every window barrier.  On a single-core host the cap is
    // zero and ParallelFor degrades to an inline loop — same windows,
    // same commit order, no handshake — because the window outcome is
    // pool-size independent (composition and commit order are pure
    // functions of sim state).  Tests that exist to race-check the
    // engine pass an explicit thread count instead of relying on this
    // default.
    const auto hw =
        static_cast<std::size_t>(std::thread::hardware_concurrency());
    threads = std::min(lanes - 1, hw > 1 ? hw - 1 : 0);
  }
  pool_ = std::make_unique<support::ThreadPool>(threads);
  multi_ = true;
}

void Simulator::ClampLookahead(SimTime notice) {
  if (notice < 1) notice = 1;
  if (notice < lookahead_) lookahead_ = notice;
}

SimTime Simulator::LaneLocalNow() const {
  if (tls_lane.sim == this) return lanes_[tls_lane.lane]->now;
  return now_;
}

bool Simulator::OnControlPlane() const {
  return !multi_ || tls_lane.sim != this || tls_lane.lane == 0;
}

std::size_t Simulator::MultiPending() const {
  std::size_t total = 0;
  for (const auto& lane : lanes_) total += lane->queue.size();
  return total;
}

std::size_t Simulator::AllocatedEventNodes() const {
  if (!multi_) return queue_.allocated_nodes();
  std::size_t total = 0;
  for (const auto& lane : lanes_) total += lane->queue.allocated_nodes();
  return total;
}

std::size_t Simulator::OverflowEvents() const {
  if (!multi_) return queue_.overflow_size();
  std::size_t total = 0;
  for (const auto& lane : lanes_) total += lane->queue.overflow_size();
  return total;
}

std::size_t Simulator::OverflowEvents(std::uint32_t lane) const {
  if (!multi_) return lane == 0 ? queue_.overflow_size() : 0;
  assert(lane < lanes_.size());
  return lanes_[lane]->queue.overflow_size();
}

void Simulator::ScheduleAt(SimTime at, Callback fn) {
  assert(fn);
  if (!multi_) {
    if (at < now_) at = now_;  // late scheduling clamps to "immediately"
    queue_.Push(at, std::move(fn));
    return;
  }
  const std::uint32_t lane =
      tls_lane.sim == this ? tls_lane.lane : std::uint32_t{0};
  ScheduleAtLane(lane, at, std::move(fn));
}

void Simulator::ScheduleAtLane(std::uint32_t lane_index, SimTime at,
                               Callback fn) {
  assert(fn);
  if (!multi_) {
    if (at < now_) at = now_;
    queue_.Push(at, std::move(fn));
    return;
  }
  assert(lane_index < lanes_.size());
  if (tls_lane.sim == this) {
    // Executing a lane event.  Direct push only for in-lane targets
    // inside the window; everything else waits for the merge barrier so
    // per-lane seq assignment matches the serial merged order (see file
    // comment, step 3/4).
    LaneState& self = *lanes_[tls_lane.lane];
    if (lane_index == tls_lane.lane && at <= tls_lane.window_end) {
      if (at < self.now) at = self.now;
      self.queue.Push(at, std::move(fn));
    } else {
      self.staged.push_back(
          CrossRequest{self.now, lane_index, at, std::move(fn)});
    }
    return;
  }
  // Control thread between windows (setup, drain hooks at a barrier):
  // push directly, clamped so the target lane's clock never runs back.
  if (at < now_) at = now_;
  LaneState& target = *lanes_[lane_index];
  if (at < target.now) at = target.now;
  target.queue.Push(at, std::move(fn));
}

std::uint64_t Simulator::AddDrainHook(Callback hook) {
  assert(hook);
  const std::uint64_t handle = next_drain_handle_++;
  if (draining_) {
    // Adding from inside a hook must not reallocate drain_hooks_ under
    // the running pass (that would relocate the executing closure's
    // inline captures); the hook joins from the next pass on.
    pending_hooks_.push_back(DrainHook{handle, std::move(hook), false});
    return handle;
  }
  drain_hook_index_.emplace(handle, drain_hooks_.size());
  drain_hooks_.push_back(DrainHook{handle, std::move(hook), false});
  return handle;
}

void Simulator::RemoveDrainHook(std::uint64_t handle) {
  auto it = drain_hook_index_.find(handle);
  if (it == drain_hook_index_.end()) {
    // Possibly added and removed within one drain pass (teardown from a
    // hook): still waiting in pending_hooks_.
    std::erase_if(pending_hooks_, [handle](const DrainHook& hook) {
      return hook.handle == handle;
    });
    return;
  }
  const std::size_t index = it->second;
  drain_hook_index_.erase(it);
  if (draining_) {
    // Mid-pass removal (a component tearing down from inside a hook):
    // swapping would disturb the iteration, and destroying the callback
    // here would tear down a possibly-executing closure, so only mark it
    // and compact when the pass finishes.
    drain_hooks_[index].removed = true;
    drain_hooks_tombstoned_ = true;
    return;
  }
  if (index != drain_hooks_.size() - 1) {
    drain_hooks_[index] = std::move(drain_hooks_.back());
    drain_hook_index_[drain_hooks_[index].handle] = index;
  }
  drain_hooks_.pop_back();
}

void Simulator::DrainStaged() {
  const bool outermost = !draining_;
  draining_ = true;
  drain_passes_since_fold_ += outermost ? 1 : 0;
  // drain_hooks_ cannot grow or shrink during the pass (additions are
  // deferred, removals tombstoned), so the closures stay put while they
  // execute.
  for (std::size_t i = 0; i < drain_hooks_.size(); ++i) {
    if (!drain_hooks_[i].removed) drain_hooks_[i].fn();
  }
  if (!outermost) return;
  draining_ = false;
  if (drain_hooks_tombstoned_) {
    drain_hooks_tombstoned_ = false;
    std::size_t kept = 0;
    for (std::size_t i = 0; i < drain_hooks_.size(); ++i) {
      if (drain_hooks_[i].removed) continue;
      if (kept != i) drain_hooks_[kept] = std::move(drain_hooks_[i]);
      drain_hook_index_[drain_hooks_[kept].handle] = kept;
      ++kept;
    }
    drain_hooks_.resize(kept);
  }
  for (DrainHook& pending : pending_hooks_) {
    drain_hook_index_.emplace(pending.handle, drain_hooks_.size());
    drain_hooks_.push_back(std::move(pending));
  }
  pending_hooks_.clear();
}

std::size_t Simulator::Run(std::size_t limit) {
  if (multi_) {
    return limit == SIZE_MAX ? RunLanes(EventQueue::kMaxTime, false)
                             : RunLanesSerialized(limit);
  }
  std::size_t processed = 0;
  const SimTime started_at = now_;
  DrainStaged();
  SimTime at = 0;
  Callback fn;
  while (processed < limit) {
    if (!queue_.PopDue(EventQueue::kMaxTime, &at, &fn)) {
      // Handlers fired above may have staged follow-ups (e.g. a vehicle
      // acking a push); fold them in before declaring quiescence.
      DrainStaged();
      if (!queue_.PopDue(EventQueue::kMaxTime, &at, &fn)) break;
    }
    now_ = at;
    fn();
    fn = Callback();  // release captures before the next event fires
    ++processed;
  }
  FoldMetrics(processed);
  TraceRun("sim.run", started_at, now_, processed);
  return processed;
}

void Simulator::FoldMetrics(std::size_t processed) {
  if (processed != 0) EventsCounter().Inc(processed);
  if (drain_passes_since_fold_ != 0) {
    DrainPassCounter().Inc(drain_passes_since_fold_);
    drain_passes_since_fold_ = 0;
  }
  // Touch the lane families so even a lanes=1 process exposes them (the
  // CI metrics smoke requires the families to exist, not to be nonzero).
  (void)LaneEventsCounter();
  (void)BarrierStallHistogram();
}

std::size_t Simulator::RunUntil(SimTime until) {
  if (multi_) return RunLanes(until, true);
  std::size_t processed = 0;
  const SimTime started_at = now_;
  DrainStaged();
  SimTime at = 0;
  Callback fn;
  for (;;) {
    if (!queue_.PopDue(until, &at, &fn)) {
      DrainStaged();
      if (!queue_.PopDue(until, &at, &fn)) break;
    }
    now_ = at;
    fn();
    fn = Callback();
    ++processed;
  }
  if (now_ < until) now_ = until;
  // Nothing remains at or before `until` (checked just above), so the
  // wheel cursor can follow Now().
  queue_.SyncCursor(until);
  FoldMetrics(processed);
  TraceRun("sim.run", started_at, now_, processed);
  return processed;
}

void Simulator::RunLaneWindow(std::uint32_t lane_index, SimTime window_end) {
  LaneState& lane = *lanes_[lane_index];
  const auto wall0 = std::chrono::steady_clock::now();
  LaneContext saved = tls_lane;
  tls_lane = LaneContext{this, lane_index, window_end};
  SimTime at = 0;
  Callback fn;
  std::uint64_t fired = 0;
  while (lane.queue.PopDue(window_end, &at, &fn)) {
    if (at > lane.now) lane.now = at;
    fn();
    fn = Callback();
    ++fired;
  }
  // Nothing in this lane remains at or before the window end, so its
  // cursor can follow the barrier (later commits land beyond it).
  lane.queue.SyncCursor(window_end);
  tls_lane = saved;
  lane.window_fired = fired;
  lane.busy_ns = ElapsedNanos(wall0);
}

std::size_t Simulator::CommitWindow() {
  // Global commit order is (parent_at, parent lane, program order): the
  // order a serial merged-order run would have issued these schedules in.
  // Each lane's staged buffer is already nondecreasing in parent_at
  // (events fire in nondecreasing time within a window), so a k-way merge
  // — strictly-lower parent_at wins, ties go to the lowest lane —
  // reproduces that order while moving each callback exactly once,
  // straight from the staged buffer into the target queue.
  std::size_t cursor[kMaxSimLanes] = {};
  std::size_t committed = 0;
  for (;;) {
    CrossRequest* best = nullptr;
    std::size_t best_lane = 0;
    for (std::size_t i = 0; i < lanes_.size(); ++i) {
      auto& staged = lanes_[i]->staged;
      if (cursor[i] == staged.size()) continue;
      CrossRequest& front = staged[cursor[i]];
      if (best == nullptr || front.parent_at < best->parent_at) {
        best = &front;
        best_lane = i;
      }
    }
    if (best == nullptr) break;
    ++cursor[best_lane];
    LaneState& target = *lanes_[best->target];
    SimTime at = best->at;
    if (at < target.now) at = target.now;
    target.queue.Push(at, std::move(best->fn));
    ++committed;
  }
  for (auto& lane : lanes_) lane->staged.clear();
  return committed;
}

void Simulator::CommitLane(LaneState& lane) {
  for (CrossRequest& request : lane.staged) {
    LaneState& target = *lanes_[request.target];
    SimTime at = request.at;
    if (at < target.now) at = target.now;
    target.queue.Push(at, std::move(request.fn));
  }
  lane.staged.clear();
}

std::size_t Simulator::RunLanes(SimTime until, bool pin_until) {
  std::size_t processed = 0;
  const SimTime started_at = now_;
  auto& tracer = support::Tracer::Instance();
  for (;;) {
    DrainStaged();
    SimTime t0 = EventQueue::kMaxTime;
    for (auto& lane : lanes_) {
      lane->next = lane->queue.NextEventTime();
      lane->window_fired = 0;
      if (lane->next < t0) t0 = lane->next;
    }
    if (t0 == EventQueue::kMaxTime || t0 > until) break;

    SimTime window_end = t0 + (lookahead_ - 1);
    if (window_end < t0) window_end = EventQueue::kMaxTime;  // saturate
    if (window_end > until) window_end = until;

    // Phase 1: control plane, on this thread.
    RunLaneWindow(0, window_end);

    // Phase 2: worker lanes with due events, concurrently.  Lanes with
    // nothing due are skipped entirely (their cursors catch up when they
    // next participate); a window that is control-only costs no pool
    // round-trip — the common case for campaign bookkeeping bursts.
    active_lanes_.clear();
    for (std::uint32_t i = 1; i < lanes_.size(); ++i) {
      if (lanes_[i]->next <= window_end) active_lanes_.push_back(i);
    }
    std::uint64_t window_wall_ns = 0;
    if (!active_lanes_.empty()) {
      const auto wall0 = std::chrono::steady_clock::now();
      pool_->ParallelFor(active_lanes_.size(),
                         [this, window_end](std::size_t i) {
                           RunLaneWindow(active_lanes_[i], window_end);
                         });
      window_wall_ns = ElapsedNanos(wall0);
    }

    // Merge barrier (control thread; the pool join ordered every lane's
    // writes before this point).
    std::size_t window_total = lanes_[0]->window_fired;
    for (std::uint32_t lane_index : active_lanes_) {
      window_total += lanes_[lane_index]->window_fired;
    }
    const std::size_t committed = CommitWindow();
    for (auto& lane : lanes_) {
      if (lane->now > now_) now_ = lane->now;
    }
    processed += window_total;

    if (window_total != 0) LaneEventsCounter().Inc(window_total);
    for (std::uint32_t lane_index : active_lanes_) {
      const std::uint64_t busy = lanes_[lane_index]->busy_ns;
      BarrierStallHistogram().Observe(
          window_wall_ns > busy ? window_wall_ns - busy : 0);
    }

    if (tracer.enabled()) {
      for (std::uint32_t i = 0; i < lanes_.size(); ++i) {
        const std::uint64_t fired = lanes_[i]->window_fired;
        if (fired == 0) continue;
        tracer.Span(kSimTraceLaneBase + i, "sim.window", "sim", t0,
                    window_end - t0, {"events", fired},
                    {"lane", std::uint64_t{i}});
      }
      tracer.Instant(kSimTraceLaneBase, "sim.barrier", "sim", window_end,
                     {"events", static_cast<std::uint64_t>(window_total)},
                     {"committed", static_cast<std::uint64_t>(committed)});
    }
  }
  if (pin_until) {
    for (auto& lane : lanes_) {
      if (lane->now < until) lane->now = until;
      // Loop exit had every lane quiescent at or before `until` (checked
      // after a drain pass), so the cursors can follow.
      lane->queue.SyncCursor(until);
    }
    if (now_ < until) now_ = until;
  }
  FoldMetrics(processed);
  TraceRun("sim.run", started_at, now_, processed);
  return processed;
}

std::size_t Simulator::RunLanesSerialized(std::size_t limit) {
  std::size_t processed = 0;
  const SimTime started_at = now_;
  DrainStaged();
  SimTime at = 0;
  Callback fn;
  const auto next_lane = [this]() -> std::size_t {
    std::size_t best = lanes_.size();
    SimTime best_at = EventQueue::kMaxTime;
    for (std::size_t i = 0; i < lanes_.size(); ++i) {
      const SimTime t = lanes_[i]->queue.NextEventTime();
      if (t < best_at) {  // strict: ties resolve to the lowest lane
        best_at = t;
        best = i;
      }
    }
    return best;
  };
  while (processed < limit) {
    std::size_t best = next_lane();
    if (best == lanes_.size()) {
      DrainStaged();
      best = next_lane();
      if (best == lanes_.size()) break;
    }
    LaneState& lane = *lanes_[best];
    if (!lane.queue.PopDue(EventQueue::kMaxTime, &at, &fn)) break;
    if (at > lane.now) lane.now = at;
    if (at > now_) now_ = at;
    LaneContext saved = tls_lane;
    tls_lane =
        LaneContext{this, static_cast<std::uint32_t>(best), EventQueue::kMaxTime};
    fn();
    tls_lane = saved;
    fn = Callback();
    // Immediate commit keeps per-lane seq assignment in fired (merged)
    // order — the same order the windowed barrier reconstructs.
    CommitLane(lane);
    ++processed;
  }
  if (processed != 0) LaneEventsCounter().Inc(processed);
  FoldMetrics(processed);
  TraceRun("sim.run", started_at, now_, processed);
  return processed;
}

}  // namespace dacm::sim
