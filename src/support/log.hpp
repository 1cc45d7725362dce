// Minimal leveled logger.
//
// Logging is off by default (benchmarks must not pay for it); tests and
// examples can raise the level or install a capturing sink.
#pragma once

#include <atomic>
#include <functional>
#include <sstream>
#include <string>
#include <string_view>

namespace dacm::support {

enum class LogLevel { kTrace = 0, kDebug, kInfo, kWarn, kError, kOff };

namespace log_detail {
// Inline so Enabled() compiles down to a single relaxed load at every
// DACM_LOG site — the deploy and ack paths hit disabled sites in their
// hot loops, and an out-of-line accessor call there is pure overhead.
inline std::atomic<LogLevel> g_level{LogLevel::kOff};
}  // namespace log_detail

/// Global log configuration (process-wide).  Write() is thread-safe and
/// sink invocations are serialized.
class Log {
 public:
  using Sink = std::function<void(LogLevel, std::string_view component,
                                  std::string_view message)>;

  static LogLevel level() {
    return log_detail::g_level.load(std::memory_order_relaxed);
  }
  static void SetLevel(LogLevel level) {
    log_detail::g_level.store(level, std::memory_order_relaxed);
  }

  /// Replaces the sink (default writes to stderr).  Pass nullptr to restore.
  static void SetSink(Sink sink);

  static void Write(LogLevel level, std::string_view component,
                    std::string_view message);

  static bool Enabled(LogLevel level) { return level >= Log::level(); }
};

namespace log_detail {
class LineBuilder {
 public:
  LineBuilder(LogLevel level, std::string_view component)
      : level_(level), component_(component) {}
  ~LineBuilder() { Log::Write(level_, component_, stream_.str()); }

  template <typename T>
  LineBuilder& operator<<(const T& v) {
    stream_ << v;
    return *this;
  }

 private:
  LogLevel level_;
  std::string_view component_;
  std::ostringstream stream_;
};
}  // namespace log_detail

}  // namespace dacm::support

#define DACM_LOG(level, component)                                   \
  if (!::dacm::support::Log::Enabled(level)) {                       \
  } else                                                             \
    ::dacm::support::log_detail::LineBuilder(level, component)

#define DACM_LOG_TRACE(c) DACM_LOG(::dacm::support::LogLevel::kTrace, c)
#define DACM_LOG_DEBUG(c) DACM_LOG(::dacm::support::LogLevel::kDebug, c)
#define DACM_LOG_INFO(c) DACM_LOG(::dacm::support::LogLevel::kInfo, c)
#define DACM_LOG_WARN(c) DACM_LOG(::dacm::support::LogLevel::kWarn, c)
#define DACM_LOG_ERROR(c) DACM_LOG(::dacm::support::LogLevel::kError, c)
