// Shared pieces of the end-to-end benchmark binary: run options, the
// report every workload fills, wall-clock spans, and small statistics
// helpers.  The benchmark only calls the program's public API; everything
// here is measurement glue on the benchmark's side.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace dacm::perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  /// Vehicles in the fleet workloads.
  std::size_t fleet = 20000;
  /// Test hook: additionally deploy an app no uploaded model can host, so
  /// the correctness gate must count the rejection as a failure.
  bool inject_failure = false;
  /// Where the traced run writes its spans (Chrome trace JSON).
  std::string spans_path;
};

struct Metric {
  double value = 0;
  std::string unit;
};

/// Everything one run reports.  `e2e` are the user-visible metrics of the
/// workload, `layers` the per-layer ledger (filled only by traced runs),
/// `digest` the sim-time and count values that must repeat exactly for a
/// given seed.
struct Report {
  std::map<std::string, Metric> e2e;
  std::map<std::string, Metric> layers;
  std::map<std::string, double> digest;
  /// Exact text of further repeat-checked values (fingerprints, per-step
  /// sim times); hashed into the reported digest with `digest`.
  std::string digest_text;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> failures;
  std::uint64_t rounds = 0;

  /// Counts `attempted` operations of which `failed` went wrong.
  void Tally(std::uint64_t attempted_ops, std::uint64_t failed_ops,
             const std::string& what);
  void Pass() { ++attempted; }
  void Fail(const std::string& what) { Tally(1, 1, what); }
  void E2e(const std::string& name, double value, const std::string& unit) {
    e2e[name] = Metric{value, unit};
  }
  void Layer(const std::string& name, double value, const std::string& unit) {
    layers[name] = Metric{value, unit};
  }
};

/// Monotonic wall clock in nanoseconds.
inline std::uint64_t NowNs() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// Wall-clock spans recorded around calls into the program.  Spans nest
/// on the single benchmark thread: each records its parent (the innermost
/// open span) and the id of the campaign, install or command it belongs
/// to.  Disabled recorders cost one branch per scope.
class Spans {
 public:
  struct Span {
    const char* name = "";
    const char* layer = "";
    std::uint64_t op = 0;
    std::uint64_t start_ns = 0;
    std::uint64_t end_ns = 0;
    std::int64_t parent = -1;
  };

  class Scope {
   public:
    Scope(Spans& spans, const char* name, const char* layer);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Spans& spans_;
    std::int64_t index_ = -1;
  };

  /// Spans kept per run; operations past it run untraced, which bounds
  /// the benchmark's memory and the exported trace on million-op runs.
  static constexpr std::size_t kMaxSpans = 20000;

  /// Call between operations (never inside one), so an operation is
  /// recorded whole or not at all.
  void set_enabled(bool enabled) { enabled_ = enabled && spans_.size() < kMaxSpans; }
  bool enabled() const { return enabled_; }
  /// Starts a new operation id for the spans opened from now on.
  void BeginOp() { ++op_; }

  /// Self time (duration minus the part covered by child spans) summed per
  /// layer, as a share of the summed root-span time.
  std::map<std::string, double> SelfShareByLayer() const;
  std::size_t size() const { return spans_.size(); }
  /// Writes the spans as Chrome trace-event JSON; false on I/O failure.
  bool WriteChromeTrace(const std::string& path) const;

 private:
  bool enabled_ = false;
  std::uint64_t op_ = 0;
  std::vector<Span> spans_;
  std::vector<std::int64_t> open_;
};

/// The layers spans are attributed to, in report order.
inline const std::vector<std::string>& SpanLayers() {
  static const std::vector<std::string> layers = {
      "bench", "campaign", "sim", "server", "wal", "recovery", "phone"};
  return layers;
}

// --- host-speed calibration ----------------------------------------------------

/// On shared-core hosts the speed drifts by tens of percent from second to
/// second and minute to minute (measured on a 4-core Xeon container).  So,
/// as in the NIKA campaigns' calibration, every timed stretch of work is
/// measured against a reference taken on the same instrument at the same
/// time: a fixed kernel of string hashing, node allocation, probing,
/// sorting, allocation churn and dependent loads through a 16 MiB cycle,
/// which belongs to the benchmark, not to the program, runs right before
/// and after the timed operations.  An operation's calibrated time is its
/// host time scaled by kReferenceNominalS over the mean of the two
/// reference samples around it.
class Calibration {
 public:
  /// The reference kernel's time on the machine the benchmark was
  /// defined on (4-core Xeon container, RelWithDebInfo), at its fastest.
  static constexpr double kReferenceNominalS = 0.030;

  /// Runs the reference kernel once and records its host time.
  void Sample();
  /// Index of the next sample: store it with an operation before running
  /// it, and pass it to Factor once a sample has been taken after it.
  std::size_t next() const { return seconds_.size(); }
  /// Calibrated seconds per host second for work done between samples
  /// `block - 1` and `block`.
  double Factor(std::size_t block) const;
  /// Median reference time, in seconds.
  double MedianSeconds() const;

 private:
  std::vector<double> seconds_;
  std::uint64_t sink_ = 0;
};

// --- statistics --------------------------------------------------------------

double Median(std::vector<double> values);
/// Nearest-rank quantile (q in [0, 1]); 0 for an empty sample.
double Quantile(std::vector<double> values, double q);

/// Quantile of `field(item)` over `items`.
template <typename T, typename F>
double QuantileOf(const std::vector<T>& items, double q, F field) {
  std::vector<double> values;
  values.reserve(items.size());
  for (const T& item : items) values.push_back(static_cast<double>(field(item)));
  return Quantile(std::move(values), q);
}
template <typename T, typename F>
double MedianOf(const std::vector<T>& items, F field) {
  return QuantileOf(items, 0.5, field);
}

/// Resident set and its high-water mark from /proc/self/status, in bytes.
std::uint64_t RssBytes();
std::uint64_t PeakRssBytes();
/// OS threads of this process right now.
std::uint64_t ThreadCount();

// --- workloads ---------------------------------------------------------------

void RunFleet(const Options& options, bool mixed, Spans& spans, Report& report);
void RunFigure3(const Options& options, Spans& spans, Report& report);

}  // namespace dacm::perfbench
