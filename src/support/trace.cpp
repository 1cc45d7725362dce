#include "support/trace.hpp"

#include <algorithm>
#include <charconv>
#include <cstdio>
#include <cstring>
#include <vector>

namespace dacm::support {
namespace {

void AppendU64(std::string& out, std::uint64_t value) {
  char buffer[24];
  const auto result = std::to_chars(buffer, buffer + sizeof buffer, value);
  out.append(buffer, static_cast<std::size_t>(result.ptr - buffer));
}

// Minimal JSON string escape; VINs and literals are almost always clean,
// but a stray quote must not corrupt the document.
void AppendEscaped(std::string& out, std::string_view text) {
  for (char c : text) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buffer[8];
          std::snprintf(buffer, sizeof buffer, "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          out += buffer;
        } else {
          out += c;
        }
    }
  }
}

}  // namespace

struct Tracer::Lane {
  explicit Lane(std::size_t capacity) : ring(capacity) {}
  std::vector<TraceEvent> ring;
  // Total events ever emitted on this lane; slot = next % ring.size().
  // Written only by the lane's single writer; read at export barriers.
  std::uint64_t next = 0;
};

Tracer& Tracer::Instance() {
  static Tracer instance;
  return instance;
}

Tracer::~Tracer() { FreeLanes(); }

void Tracer::FreeLanes() {
  for (auto& slot : lanes_) {
    delete slot.load(std::memory_order_acquire);
    slot.store(nullptr, std::memory_order_release);
  }
}

void Tracer::Enable(std::size_t events_per_lane) {
  enabled_.store(false, std::memory_order_relaxed);
  FreeLanes();
  capacity_ = events_per_lane == 0 ? 1 : events_per_lane;
  // Lane 0 always exists; the fleet lane materializes on first use, so a
  // trace without per-vehicle events pays for one ring.
  lanes_[0].store(new Lane(capacity_), std::memory_order_release);
  enabled_.store(true, std::memory_order_relaxed);
}

void Tracer::Disable() { enabled_.store(false, std::memory_order_relaxed); }

void Tracer::Clear() {
  for (auto& slot : lanes_) {
    Lane* lane = slot.load(std::memory_order_acquire);
    if (lane != nullptr) lane->next = 0;
  }
}

std::uint64_t Tracer::dropped() const {
  std::uint64_t lost = 0;
  for (const auto& slot : lanes_) {
    const Lane* lane = slot.load(std::memory_order_acquire);
    if (lane != nullptr && lane->next > lane->ring.size()) {
      lost += lane->next - lane->ring.size();
    }
  }
  return lost;
}

std::uint64_t Tracer::size() const {
  std::uint64_t held = 0;
  for (const auto& slot : lanes_) {
    const Lane* lane = slot.load(std::memory_order_acquire);
    if (lane != nullptr) held += std::min<std::uint64_t>(lane->next, lane->ring.size());
  }
  return held;
}

void Tracer::Emit(std::uint32_t lane_index, const TraceEvent& event) {
  if (!enabled_.load(std::memory_order_relaxed)) return;
  if (lane_index >= kMaxLanes) lane_index = kMaxLanes - 1;
  Lane* lane = lanes_[lane_index].load(std::memory_order_acquire);
  if (lane == nullptr) {
    lane = new Lane(capacity_);
    lanes_[lane_index].store(lane, std::memory_order_release);
  }
  lane->ring[lane->next % lane->ring.size()] = event;
  ++lane->next;
}

void Tracer::Span(std::uint32_t lane, const char* name, const char* cat,
                  std::uint64_t ts_us, std::uint64_t dur_us, TraceArg a0,
                  TraceArg a1, TraceArg a2, const char* str_name,
                  std::string_view str_value) {
  if (!enabled_.load(std::memory_order_relaxed)) return;
  TraceEvent event;
  event.name = name;
  event.cat = cat;
  event.ph = 'X';
  event.ts = ts_us;
  event.dur = dur_us;
  event.args[0] = a0;
  event.args[1] = a1;
  event.args[2] = a2;
  if (str_name != nullptr) {
    event.str_name = str_name;
    event.str_len = static_cast<std::uint8_t>(
        std::min(str_value.size(), sizeof event.str_value - 1));
    std::memcpy(event.str_value, str_value.data(), event.str_len);
  }
  Emit(lane, event);
}

void Tracer::Instant(std::uint32_t lane, const char* name, const char* cat,
                     std::uint64_t ts_us, TraceArg a0, TraceArg a1, TraceArg a2,
                     const char* str_name, std::string_view str_value) {
  if (!enabled_.load(std::memory_order_relaxed)) return;
  TraceEvent event;
  event.name = name;
  event.cat = cat;
  event.ph = 'i';
  event.ts = ts_us;
  event.args[0] = a0;
  event.args[1] = a1;
  event.args[2] = a2;
  if (str_name != nullptr) {
    event.str_name = str_name;
    event.str_len = static_cast<std::uint8_t>(
        std::min(str_value.size(), sizeof event.str_value - 1));
    std::memcpy(event.str_value, str_value.data(), event.str_len);
  }
  Emit(lane, event);
}

void Tracer::ExportChromeJson(std::string& out) const {
  struct Ref {
    std::uint64_t ts;
    std::uint32_t lane;
    std::uint64_t seq;
    const TraceEvent* event;
  };
  std::vector<Ref> refs;
  std::vector<std::uint32_t> live_lanes;
  for (std::uint32_t lane_index = 0; lane_index < kMaxLanes; ++lane_index) {
    const Lane* lane = lanes_[lane_index].load(std::memory_order_acquire);
    if (lane == nullptr || lane->next == 0) continue;
    live_lanes.push_back(lane_index);
    const std::uint64_t cap = lane->ring.size();
    const std::uint64_t first = lane->next > cap ? lane->next - cap : 0;
    for (std::uint64_t seq = first; seq < lane->next; ++seq) {
      const TraceEvent& event = lane->ring[seq % cap];
      refs.push_back(Ref{event.ts, lane_index, seq, &event});
    }
  }
  std::sort(refs.begin(), refs.end(), [](const Ref& a, const Ref& b) {
    if (a.ts != b.ts) return a.ts < b.ts;
    if (a.lane != b.lane) return a.lane < b.lane;
    return a.seq < b.seq;
  });

  out += "{\"traceEvents\":[";
  bool first = true;
  // Track names up front so Perfetto labels the sim and fleet lanes;
  // deterministic because live_lanes is lane-ordered.
  for (std::uint32_t lane_index : live_lanes) {
    if (!first) out += ',';
    first = false;
    out += "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":";
    AppendU64(out, lane_index);
    out += ",\"args\":{\"name\":\"";
    out += lane_index == 0 ? "sim" : "fleet";
    out += "\"}}";
  }
  for (const Ref& ref : refs) {
    const TraceEvent& event = *ref.event;
    if (!first) out += ',';
    first = false;
    out += "{\"name\":\"";
    AppendEscaped(out, event.name);
    out += "\",\"cat\":\"";
    AppendEscaped(out, event.cat);
    out += "\",\"ph\":\"";
    out += event.ph;
    out += "\",\"ts\":";
    AppendU64(out, event.ts);
    if (event.ph == 'X') {
      out += ",\"dur\":";
      AppendU64(out, event.dur);
    }
    if (event.ph == 'i') out += ",\"s\":\"t\"";
    out += ",\"pid\":1,\"tid\":";
    AppendU64(out, ref.lane);
    bool has_args = event.str_name != nullptr;
    for (const TraceArg& arg : event.args) has_args |= arg.name != nullptr;
    if (has_args) {
      out += ",\"args\":{";
      bool first_arg = true;
      for (const TraceArg& arg : event.args) {
        if (arg.name == nullptr) continue;
        if (!first_arg) out += ',';
        first_arg = false;
        out += '"';
        AppendEscaped(out, arg.name);
        out += "\":";
        AppendU64(out, arg.value);
      }
      if (event.str_name != nullptr) {
        if (!first_arg) out += ',';
        out += '"';
        AppendEscaped(out, event.str_name);
        out += "\":\"";
        AppendEscaped(out, std::string_view(event.str_value, event.str_len));
        out += '"';
      }
      out += '}';
    }
    out += '}';
  }
  out += "]}";
}

}  // namespace dacm::support
