#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <numeric>
#include <unordered_map>

#include "perfbench.hpp"

namespace dacm::perfbench {

void Report::Tally(std::uint64_t attempted_ops, std::uint64_t failed_ops,
                   const std::string& what) {
  attempted += attempted_ops;
  failed += failed_ops;
  // Keep the first few reasons; the counts carry the rest.
  if (failed_ops != 0 && failures.size() < 16) {
    failures.push_back(what + " (" + std::to_string(failed_ops) + " of " +
                       std::to_string(attempted_ops) + ")");
  }
}

Spans::Scope::Scope(Spans& spans, const char* name, const char* layer)
    : spans_(spans) {
  if (!spans_.enabled_) return;
  Span span;
  span.name = name;
  span.layer = layer;
  span.op = spans_.op_;
  span.parent = spans_.open_.empty() ? -1 : spans_.open_.back();
  index_ = static_cast<std::int64_t>(spans_.spans_.size());
  spans_.spans_.push_back(span);
  spans_.open_.push_back(index_);
  spans_.spans_.back().start_ns = NowNs();
}

Spans::Scope::~Scope() {
  if (index_ < 0) return;
  spans_.spans_[static_cast<std::size_t>(index_)].end_ns = NowNs();
  spans_.open_.pop_back();
}

std::map<std::string, double> Spans::SelfShareByLayer() const {
  std::vector<std::uint64_t> child_ns(spans_.size(), 0);
  for (const Span& span : spans_) {
    if (span.parent >= 0) {
      child_ns[static_cast<std::size_t>(span.parent)] += span.end_ns - span.start_ns;
    }
  }
  std::map<std::string, double> self;
  for (const std::string& layer : SpanLayers()) self[layer] = 0;
  double root_ns = 0;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& span = spans_[i];
    const std::uint64_t duration = span.end_ns - span.start_ns;
    if (span.parent < 0) root_ns += static_cast<double>(duration);
    const std::uint64_t own = duration > child_ns[i] ? duration - child_ns[i] : 0;
    self[span.layer] += static_cast<double>(own);
  }
  if (root_ns > 0) {
    for (auto& [layer, ns] : self) ns /= root_ns;
  }
  return self;
}

bool Spans::WriteChromeTrace(const std::string& path) const {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) return false;
  const std::uint64_t origin = spans_.empty() ? 0 : spans_.front().start_ns;
  std::fputs("{\"traceEvents\":[", out);
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& span = spans_[i];
    std::fprintf(out,
                 "%s\n{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\",\"pid\":1,"
                 "\"tid\":1,\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"op\":%llu,"
                 "\"id\":%zu,\"parent\":%lld}}",
                 i == 0 ? "" : ",", span.name, span.layer,
                 static_cast<double>(span.start_ns - origin) / 1e3,
                 static_cast<double>(span.end_ns - span.start_ns) / 1e3,
                 static_cast<unsigned long long>(span.op), i,
                 static_cast<long long>(span.parent));
  }
  std::fputs("\n]}\n", out);
  return std::fclose(out) == 0;
}

void Calibration::Sample() {
  static const std::vector<std::string> keys = [] {
    std::vector<std::string> made;
    for (std::uint32_t i = 0; i < 16384; ++i) {
      made.push_back("REF-" + std::to_string(i * 2654435761u));
    }
    return made;
  }();
  // One random cycle through 16 MiB, larger than the last-level cache.
  static const std::vector<std::uint32_t> cycle = [] {
    std::vector<std::uint32_t> order(1u << 22);
    std::iota(order.begin(), order.end(), 0u);
    std::uint64_t x = 0x9E3779B97F4A7C15ull;
    for (std::size_t i = order.size() - 1; i > 0; --i) {
      x ^= x << 13;
      x ^= x >> 7;
      x ^= x << 17;
      std::swap(order[i], order[x % (i + 1)]);
    }
    std::vector<std::uint32_t> next(order.size());
    for (std::size_t i = 0; i < order.size(); ++i) next[order[i]] = order[(i + 1) % order.size()];
    return next;
  }();
  const std::uint64_t t0 = NowNs();
  std::unordered_map<std::string, std::uint32_t> map;
  for (std::uint32_t i = 0; i < keys.size(); ++i) map.emplace(keys[i], i);
  std::uint64_t sum = 0;
  for (std::size_t i = 0; i < keys.size(); ++i) {
    sum += map.find(keys[(i * 7919) % keys.size()])->second;
  }
  std::vector<std::uint64_t> values(1 << 16);
  std::uint64_t x = 88172645463325252ull;
  for (std::uint64_t& value : values) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    value = x;
  }
  std::sort(values.begin(), values.end());
  // Allocation churn: random-size blocks freed and reallocated in random
  // slots.  The program's small-object traffic slows with the machine
  // the way this does; pure arithmetic does not.
  std::vector<std::unique_ptr<char[]>> slots(4096);
  for (int i = 0; i < 300000; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    auto& slot = slots[x & 4095];
    slot = std::make_unique_for_overwrite<char[]>(16 + (x >> 20) % 240);
    slot[0] = static_cast<char>(i);
    sum += static_cast<unsigned char>(slots[(x >> 12) & 4095] ? slots[(x >> 12) & 4095][0] : 0);
  }
  // Dependent loads through the cycle: memory latency, which the fleets'
  // multi-megabyte state is more exposed to than the parts above.
  std::uint32_t at = 0;
  for (int i = 0; i < 100000; ++i) at = cycle[at];
  sink_ += sum + values[values.size() / 2] + at;
  seconds_.push_back(static_cast<double>(NowNs() - t0) / 1e9);
}

double Calibration::Factor(std::size_t block) const {
  if (seconds_.empty()) return 1;
  const std::size_t after = std::min(block, seconds_.size() - 1);
  const std::size_t before = after == 0 ? 0 : after - 1;
  return kReferenceNominalS / ((seconds_[before] + seconds_[after]) / 2);
}

double Calibration::MedianSeconds() const { return Median(seconds_); }

double Median(std::vector<double> values) { return Quantile(std::move(values), 0.5); }

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  if (q == 0.5 && values.size() % 2 == 0) {
    const std::size_t hi = values.size() / 2;
    return (values[hi - 1] + values[hi]) / 2;
  }
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(values.size())));
  return values[std::clamp<std::size_t>(rank, 1, values.size()) - 1];
}

namespace {

std::uint64_t StatusField(const char* field) {
  std::FILE* status = std::fopen("/proc/self/status", "r");
  if (status == nullptr) return 0;
  const std::size_t length = std::strlen(field);
  char line[160];
  std::uint64_t value = 0;
  while (std::fgets(line, sizeof(line), status) != nullptr) {
    if (std::strncmp(line, field, length) == 0) {
      value = std::strtoull(line + length, nullptr, 10);
      break;
    }
  }
  std::fclose(status);
  return value;
}

}  // namespace

// The memory lines are in kB.
std::uint64_t RssBytes() { return StatusField("VmRSS:") * 1024; }
std::uint64_t PeakRssBytes() { return StatusField("VmHWM:") * 1024; }
std::uint64_t ThreadCount() { return StatusField("Threads:"); }

}  // namespace dacm::perfbench
