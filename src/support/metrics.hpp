// Process-wide metrics registry: named counters, gauges and log2-bucketed
// histograms with allocation- and lock-free hot paths.
//
// The hot-path contract mirrors the server's threading model: a Counter
// increment or Histogram observation is one (histogram: a handful of)
// relaxed atomic RMW — no locks, no allocation, no branches on registry
// state.  The registry mutex is taken only at *registration* (name →
// instrument lookup); callers bind `Counter&` / `Histogram&` references
// once at construction and hold them forever — instruments are never
// destroyed or relocated while the process lives.
//
// Aggregates that already exist as plain fields (ServerStats) are not
// duplicated on the hot path: after each ack flush and campaign the
// server Incs the registry counters by its growth since its last fold, so
// servers sharing a process add up instead of overwriting each other.
//
// Histograms use 65 fixed log2 buckets — bucket 0 holds exactly the value
// 0 and bucket i (i >= 1) holds [2^(i-1), 2^i - 1] — so any u64
// observation lands with one std::bit_width and one fetch_add.  Quantile()
// interpolates linearly inside the chosen bucket and clamps to the exact
// observed maximum, which keeps p99 honest even when the tail bucket is
// wide.
//
// Exports: WriteExposition emits Prometheus text format (families sorted
// by name, empty buckets elided, +Inf always present); WriteJson emits a
// sorted single-object snapshot {counters, gauges, histograms} whose
// histogram entries carry count/sum/max and p50/p95/p99 so
// tools/bench_compare.py can diff distributions, not just means.
#pragma once

#include <atomic>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>

namespace dacm::support {

/// Monotonic u64 metric.  Inc from any thread.
class Counter {
 public:
  void Inc(std::uint64_t n = 1) {
    value_.fetch_add(n, std::memory_order_relaxed);
  }
  std::uint64_t Value() const { return value_.load(std::memory_order_relaxed); }
  void Reset() { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<std::uint64_t> value_{0};
};

/// Signed point-in-time metric (queue depths, degraded flags).
class Gauge {
 public:
  void Set(std::int64_t v) { value_.store(v, std::memory_order_relaxed); }
  void Add(std::int64_t n) { value_.fetch_add(n, std::memory_order_relaxed); }
  std::int64_t Value() const { return value_.load(std::memory_order_relaxed); }
  void Reset() { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<std::int64_t> value_{0};
};

/// Fixed-size log2 histogram over u64 observations.  Observe is four
/// relaxed RMWs (bucket, count, sum, max); quantile/summary reads are
/// meant for barriers and exports, not hot paths.
class Histogram {
 public:
  /// Bucket i < 1 holds the value 0; bucket i >= 1 holds
  /// [2^(i-1), 2^i - 1]; index = std::bit_width(value).
  static constexpr std::size_t kBuckets = 65;

  void Observe(std::uint64_t value) {
    buckets_[std::bit_width(value)].fetch_add(1, std::memory_order_relaxed);
    count_.fetch_add(1, std::memory_order_relaxed);
    sum_.fetch_add(value, std::memory_order_relaxed);
    std::uint64_t prev = max_.load(std::memory_order_relaxed);
    while (value > prev &&
           !max_.compare_exchange_weak(prev, value,
                                       std::memory_order_relaxed)) {
    }
  }

  std::uint64_t Count() const { return count_.load(std::memory_order_relaxed); }
  std::uint64_t Sum() const { return sum_.load(std::memory_order_relaxed); }
  std::uint64_t Max() const { return max_.load(std::memory_order_relaxed); }
  std::uint64_t BucketCount(std::size_t i) const {
    return buckets_[i].load(std::memory_order_relaxed);
  }
  /// Inclusive upper bound of bucket i (2^i - 1; saturates at u64 max).
  static std::uint64_t BucketUpperBound(std::size_t i) {
    return i >= 64 ? ~std::uint64_t{0} : (std::uint64_t{1} << i) - 1;
  }

  double Mean() const {
    const std::uint64_t n = Count();
    return n == 0 ? 0.0 : static_cast<double>(Sum()) / static_cast<double>(n);
  }

  /// Linear interpolation inside the log2 bucket holding rank q*count,
  /// clamped to the exact observed maximum.  q in [0, 1].
  double Quantile(double q) const;

  void Reset();

 private:
  std::atomic<std::uint64_t> buckets_[kBuckets]{};
  std::atomic<std::uint64_t> count_{0};
  std::atomic<std::uint64_t> sum_{0};
  std::atomic<std::uint64_t> max_{0};
};

/// Process-wide registry.  Get* interns by name (mutex held only there)
/// and returns a reference that stays valid for the process lifetime.
class Metrics {
 public:
  static Metrics& Instance();

  Counter& GetCounter(std::string_view name);
  Gauge& GetGauge(std::string_view name);
  Histogram& GetHistogram(std::string_view name);

  /// Prometheus text exposition: families sorted by name, histogram
  /// buckets cumulative with empty buckets elided and `+Inf` terminal.
  void WriteExposition(std::string& out) const;
  std::string TextExposition() const {
    std::string out;
    WriteExposition(out);
    return out;
  }

  /// One JSON object {"counters":{...},"gauges":{...},"histograms":{...}}
  /// with sorted keys; histograms carry count/sum/max/mean/p50/p95/p99.
  void WriteJson(std::string& out) const;
  std::string Json() const {
    std::string out;
    WriteJson(out);
    return out;
  }

  /// Zeroes every registered instrument (registrations and bound
  /// references survive).  For back-to-back deterministic runs in tests
  /// and benches; not thread-safe against concurrent observers.
  void ResetAll();

 private:
  Metrics() = default;
  struct Impl;
  Impl& impl() const;
};

}  // namespace dacm::support
