// perfbench — one end-to-end benchmark binary for the OTA stack.
//
//   perfbench --workload <fleet-uniform|fleet-mixed|vehicle-fig3>
//             [--seed N] [--seconds S] [--trace 0|1] [--fleet N]
//             [--spans PATH] [--inject-failure]
//
// Runs one workload through the program's public API and prints one JSON
// object on stdout: the end-to-end metrics (every run), the per-layer
// ledger (traced runs), the correctness tally and the determinism digest.
// Exits 1 when a correctness gate failed, 2 on bad arguments.  run.py
// builds this binary and turns its output into the benchmark's result.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "perfbench.hpp"

namespace dacm::perfbench {
namespace {

std::string Escape(const std::string& text) {
  std::string out;
  for (char c : text) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out;
}

std::string Number(double value) {
  char text[64];
  std::snprintf(text, sizeof(text), "%.17g", value);
  return text;
}

std::string MetricsJson(const std::map<std::string, Metric>& metrics) {
  std::string out = "{";
  for (const auto& [name, metric] : metrics) {
    if (out.size() > 1) out += ",";
    out += "\"" + name + "\":{\"value\":" + Number(metric.value) + ",\"unit\":\"" +
           metric.unit + "\"}";
  }
  return out + "}";
}

/// FNV-1a over the digest fields and text: equal for equal seeds.
std::string DigestHex(const Report& report) {
  std::string text = report.digest_text;
  for (const auto& [name, value] : report.digest) text += "|" + name + "=" + Number(value);
  std::uint64_t hash = 1469598103934665603ull;
  for (unsigned char c : text) hash = (hash ^ c) * 1099511628211ull;
  char hex[17];
  std::snprintf(hex, sizeof(hex), "%016llx", static_cast<unsigned long long>(hash));
  return hex;
}

int Usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "<fleet-uniform|fleet-mixed|vehicle-fig3> [--seed N] [--seconds S] "
               "[--trace 0|1] [--fleet N] [--spans PATH] "
               "[--inject-failure]\n",
               why);
  return 2;
}

}  // namespace
}  // namespace dacm::perfbench

int main(int argc, char** argv) {
  using namespace dacm::perfbench;
  Options options;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--inject-failure") {
      options.inject_failure = true;
      continue;
    }
    if (i + 1 >= argc) return Usage(("missing value for " + arg).c_str());
    const std::string value = argv[++i];
    char* end = nullptr;
    if (arg == "--workload") {
      options.workload = value;
    } else if (arg == "--spans") {
      options.spans_path = value;
    } else if (arg == "--seconds") {
      options.seconds = std::strtod(value.c_str(), &end);
    } else if (arg == "--seed" || arg == "--trace" || arg == "--fleet") {
      const unsigned long long n = std::strtoull(value.c_str(), &end, 0);
      if (arg == "--seed") options.seed = n;
      if (arg == "--trace") options.trace = n != 0;
      if (arg == "--fleet") options.fleet = n;
    } else {
      return Usage(("unknown argument " + arg).c_str());
    }
    if (end != nullptr && (*end != '\0' || end == value.c_str())) {
      return Usage(("malformed value for " + arg).c_str());
    }
  }
  if (options.seconds < 0 || options.fleet == 0) {
    return Usage("--seconds must be >= 0 and --fleet >= 1");
  }

  Spans spans;
  Report report;
  if (options.workload == "fleet-uniform" || options.workload == "fleet-mixed") {
    RunFleet(options, options.workload == "fleet-mixed", spans, report);
  } else if (options.workload == "vehicle-fig3") {
    options.fleet = 1;
    RunFigure3(options, spans, report);
  } else {
    return Usage(("unknown workload '" + options.workload + "'").c_str());
  }
  const std::uint64_t threads = ThreadCount();

  // A timing of a failed operation can come out infinite or NaN; JSON has
  // no such numbers, so report 0 and count the metric as a failure.
  for (auto* metrics : {&report.e2e, &report.layers}) {
    for (auto& [name, metric] : *metrics) {
      if (!std::isfinite(metric.value)) {
        report.Fail("metric " + name + " is not a finite number");
        metric.value = 0;
      }
    }
  }
  report.E2e("failed_ratio",
             report.attempted == 0
                 ? 1.0
                 : static_cast<double>(report.failed) / static_cast<double>(report.attempted),
             "ratio");
  if (options.trace) {
    for (const auto& [layer, share] : spans.SelfShareByLayer()) {
      report.Layer("self_share." + layer, share, "ratio");
    }
    report.Layer("trace.spans", static_cast<double>(spans.size()), "count");
    if (!options.spans_path.empty() && !spans.WriteChromeTrace(options.spans_path)) {
      report.Fail("could not write spans to " + options.spans_path);
    }
  }

  std::string out = "{\"workload\":\"" + options.workload + "\",\"seed\":" +
                    std::to_string(options.seed) + ",\"fleet\":" +
                    std::to_string(options.fleet) + ",\"trace\":" +
                    (options.trace ? "true" : "false") + ",\"rounds\":" +
                    std::to_string(report.rounds) + ",\"threads\":" +
                    std::to_string(threads) + ",\"attempted\":" +
                    std::to_string(report.attempted) + ",\"failed\":" +
                    std::to_string(report.failed) + ",\"failures\":[";
  for (std::size_t i = 0; i < report.failures.size(); ++i) {
    out += (i == 0 ? "\"" : ",\"") + Escape(report.failures[i]) + "\"";
  }
  out += "],\"digest\":\"" + DigestHex(report) + "\",\"digest_text\":\"" +
         Escape(report.digest_text) + "\",\"digest_fields\":{";
  bool first = true;
  for (const auto& [name, value] : report.digest) {
    out += (first ? "\"" : ",\"") + name + "\":" + Number(value);
    first = false;
  }
  out += "},\"e2e\":" + MetricsJson(report.e2e) + ",\"layers\":" +
         MetricsJson(report.layers) + "}";
  std::puts(out.c_str());
  return report.failed == 0 && report.attempted != 0 ? 0 : 1;
}
