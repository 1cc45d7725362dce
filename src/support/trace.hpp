// Sim-time flight recorder: bounded per-lane rings of spans and instant
// events, exportable as Chrome trace-event JSON (chrome://tracing,
// Perfetto).
//
// Determinism is the contract: a trace event may carry ONLY values that
// are themselves deterministic under the simulator's replay guarantee —
// sim-time timestamps/durations (the caller passes them explicitly; the
// tracer has no clock of its own), VINs, wave numbers, record counts.
// Wall-clock durations (fsync latency, ack-flush wall time) belong in
// support::Metrics histograms, never in a trace event.  Two seeded runs
// of the same scenario therefore export byte-identical JSON, which makes
// traces diffable regression artifacts.
//
// Lanes: one ring per *lane*.  Lane 0 carries the simulator and the
// server-wide events; lane 1 carries the server's per-vehicle events
// (WAL appends, deploy round trips).  Threading: exactly one writer per
// lane at any moment (the program writes every lane from the simulation
// thread).
// Writers never lock: recording is a bounds-checked slot store plus a
// lane-local sequence bump.  When a ring wraps, the oldest events are
// overwritten (newest are kept) and the loss is reported via dropped().
//
// Export merges all lanes by (timestamp, lane, per-lane sequence) — a
// total order that is stable across runs because every component is.
// Events are rendered with pid 1 and tid = lane, so Perfetto shows the
// sim lane and the fleet lane as separate tracks.
//
// Enabled state is one relaxed atomic bool checked at every record site:
// spans can be globally disabled (the acceptance kill switch), and a
// disabled tracer costs one load + branch per site.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>

namespace dacm::support {

/// Named u64 payload on a trace event; name must be a string literal (or
/// otherwise outlive the tracer).
struct TraceArg {
  const char* name = nullptr;
  std::uint64_t value = 0;
};

/// POD event record.  `name`/`cat` must be string literals; the one
/// inline string argument (VINs) is copied, capped at 23 bytes.
struct TraceEvent {
  const char* name = nullptr;
  const char* cat = nullptr;
  std::uint64_t ts = 0;   // sim-time microseconds
  std::uint64_t dur = 0;  // sim-time microseconds ('X' spans only)
  TraceArg args[3] = {};
  const char* str_name = nullptr;
  char str_value[24] = {};
  std::uint8_t str_len = 0;
  char ph = 'i';  // 'X' complete span, 'i' instant
};

class Tracer {
 public:
  /// Lane 0 (`sim`) and lane 1 (`fleet`); a higher lane index records on
  /// the last lane.
  static constexpr std::size_t kMaxLanes = 2;
  static constexpr std::size_t kDefaultEventsPerLane = std::size_t{1} << 15;

  static Tracer& Instance();

  /// Starts recording: drops any previous rings, sets the per-lane ring
  /// capacity and flips the enabled flag.  Call only while nothing is
  /// tracing (setup, between campaigns).
  void Enable(std::size_t events_per_lane = kDefaultEventsPerLane);
  /// Stops recording; recorded events stay exportable.
  void Disable();
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  /// Rewinds every lane to empty without freeing rings (back-to-back
  /// deterministic runs).  Same quiescence requirement as Enable.
  void Clear();

  /// Total events lost to ring wrap-around across all lanes.
  std::uint64_t dropped() const;
  /// Total events currently held (post-wrap) across all lanes.
  std::uint64_t size() const;

  /// Records a complete span: [ts_us, ts_us + dur_us] in sim time.
  void Span(std::uint32_t lane, const char* name, const char* cat,
            std::uint64_t ts_us, std::uint64_t dur_us, TraceArg a0 = {},
            TraceArg a1 = {}, TraceArg a2 = {}, const char* str_name = nullptr,
            std::string_view str_value = {});

  /// Records an instant event at ts_us.
  void Instant(std::uint32_t lane, const char* name, const char* cat,
               std::uint64_t ts_us, TraceArg a0 = {}, TraceArg a1 = {},
               TraceArg a2 = {}, const char* str_name = nullptr,
               std::string_view str_value = {});

  /// Merges every lane by (ts, lane, seq) and appends Chrome trace-event
  /// JSON ({"traceEvents":[...]}).  Byte-identical across identical
  /// seeded runs.  Call only from the simulation thread at a barrier.
  void ExportChromeJson(std::string& out) const;
  std::string ChromeJson() const {
    std::string out;
    ExportChromeJson(out);
    return out;
  }

  ~Tracer();

 private:
  struct Lane;

  Tracer() = default;
  void Emit(std::uint32_t lane, const TraceEvent& event);
  void FreeLanes();

  std::atomic<bool> enabled_{false};
  std::size_t capacity_ = kDefaultEventsPerLane;
  std::atomic<Lane*> lanes_[kMaxLanes] = {};
};

}  // namespace dacm::support
