// The serial event loop: pop the earliest (timestamp, sequence) event, move
// the clock to it, fire it.  Handlers may schedule more work; anything
// scheduled at or before the current time fires after everything already
// due, in scheduling order.
#include "sim/simulator.hpp"

#include <cassert>

#include "support/metrics.hpp"
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

}  // namespace

void Simulator::ScheduleAt(SimTime at, Callback fn) {
  assert(fn);
  if (at < now_) at = now_;  // late scheduling clamps to "immediately"
  queue_.Push(at, std::move(fn));
}

std::size_t Simulator::Run(std::size_t limit) {
  std::size_t processed = 0;
  const SimTime started_at = now_;
  SimTime at = 0;
  Callback fn;
  while (processed < limit && queue_.PopDue(EventQueue::kMaxTime, &at, &fn)) {
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
}

std::size_t Simulator::RunUntil(SimTime until) {
  std::size_t processed = 0;
  const SimTime started_at = now_;
  SimTime at = 0;
  Callback fn;
  while (queue_.PopDue(until, &at, &fn)) {
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

}  // namespace dacm::sim
