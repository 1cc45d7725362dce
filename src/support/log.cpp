#include "support/log.hpp"

#include <atomic>
#include <iostream>
#include <mutex>

namespace dacm::support {
namespace {

// The level lives in the header as an inline atomic so Enabled() is one
// relaxed load; the sink call is serialized — a capturing test sink must
// not see interleaved writes.
std::mutex g_sink_mutex;
Log::Sink g_sink;

const char* LevelName(LogLevel level) {
  switch (level) {
    case LogLevel::kTrace: return "TRACE";
    case LogLevel::kDebug: return "DEBUG";
    case LogLevel::kInfo: return "INFO";
    case LogLevel::kWarn: return "WARN";
    case LogLevel::kError: return "ERROR";
    case LogLevel::kOff: return "OFF";
  }
  return "?";
}

}  // namespace

void Log::SetSink(Sink sink) {
  std::lock_guard<std::mutex> lock(g_sink_mutex);
  g_sink = std::move(sink);
}

void Log::Write(LogLevel level, std::string_view component,
                std::string_view message) {
  if (level < Log::level()) return;
  std::lock_guard<std::mutex> lock(g_sink_mutex);
  if (g_sink) {
    g_sink(level, component, message);
    return;
  }
  std::cerr << "[" << LevelName(level) << "] " << component << ": " << message
            << "\n";
}

}  // namespace dacm::support
