// Shared fixtures and helpers for the test matrix.
//
// The suites grew near-identical private fakes (a two-node CAN bus, a
// scripted VM port environment, canned installation packages); those live
// here now.  Everything is header-only and lazily instantiated, so light
// suites (support, os) can include this header without linking the heavier
// modules they never touch.
//
// Randomized ("property") suites draw their generator from PropertySeed():
// set DACM_TEST_SEED to replay a failing run — the seed is attached to
// every failure message via DACM_PROPERTY_RNG.
#pragma once

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <map>
#include <random>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "bsw/can_if.hpp"
#include "bsw/can_tp.hpp"
#include "fes/appgen.hpp"
#include "pirte/package.hpp"
#include "sim/can_bus.hpp"
#include "sim/rng.hpp"
#include "sim/simulator.hpp"
#include "support/bytes.hpp"
#include "support/status.hpp"
#include "vm/interpreter.hpp"

namespace dacm::testutil {

// --- deterministic property-test seeding -------------------------------------------

/// The run-wide seed for randomized suites.  Reads DACM_TEST_SEED when set
/// (any strtoull base-0 literal); otherwise draws a fresh random seed once
/// per process so successive runs explore different inputs.
inline std::uint64_t PropertySeed() {
  static const std::uint64_t seed = [] {
    if (const char* env = std::getenv("DACM_TEST_SEED"); env && *env != '\0') {
      return static_cast<std::uint64_t>(std::strtoull(env, nullptr, 0));
    }
    std::random_device device;
    return (static_cast<std::uint64_t>(device()) << 32) | device();
  }();
  return seed;
}

// Declares `rng` seeded from PropertySeed() and arranges for any failure in
// the enclosing scope to print the reproduction command.
#define DACM_PROPERTY_RNG(rng)                                              \
  SCOPED_TRACE(::testing::Message() << "reproduce with DACM_TEST_SEED="     \
                                    << ::dacm::testutil::PropertySeed());   \
  ::dacm::sim::Rng rng(::dacm::testutil::PropertySeed())

/// In-place Fisher-Yates shuffle driven by the deterministic Rng.
template <typename T>
void Shuffle(sim::Rng& rng, std::vector<T>& values) {
  for (std::size_t i = values.size(); i > 1; --i) {
    std::swap(values[i - 1], values[rng.NextBelow(i)]);
  }
}

// --- scripted CAN bus --------------------------------------------------------------

/// Two CAN interfaces on one simulated bus, driven by the deterministic
/// simulator clock.  The base of every bsw-level fixture.
struct TwoNodeCanBus {
  sim::Simulator simulator;
  sim::CanBus bus{simulator, 500'000};
  bsw::CanIf if_a{bus, "A"};
  bsw::CanIf if_b{bus, "B"};
};

/// A unidirectional CanTp link (tx on node A, rx on node B) that captures
/// every reassembled message and every transport error.
struct ScriptedTpLink : TwoNodeCanBus {
  bsw::CanTp tx{if_a, /*tx_id=*/0x100, /*rx_id=*/0x101};
  bsw::CanTp rx{if_b, /*tx_id=*/0x101, /*rx_id=*/0x100};
  std::vector<support::Bytes> messages;
  std::vector<support::Status> errors;

  ScriptedTpLink() {
    rx.SetMessageHandler(
        [this](const support::Bytes& m) { messages.push_back(m); });
    rx.SetErrorHandler(
        [this](const support::Status& s) { errors.push_back(s); });
  }
};

/// Deterministic, size-dependent payload: byte i of an n-byte pattern is
/// (i * 31 + n) mod 256, so truncation and cross-size mixups are visible.
inline support::Bytes PatternBytes(std::size_t size) {
  support::Bytes data(size);
  for (std::size_t i = 0; i < size; ++i) {
    data[i] = static_cast<std::uint8_t>((i * 31 + size) & 0xFF);
  }
  return data;
}

// --- scripted VM port environment --------------------------------------------------

/// In-memory PortEnv standing in for a PIRTE: scripted reads, captured
/// writes, and a deterministic clock.  A default-constructed instance acts
/// as a null environment (no ports available, clock pinned to zero).
class ScriptedVmEnv : public vm::PortEnv {
 public:
  support::Result<support::Bytes> ReadPort(std::uint8_t port) override {
    auto it = port_data.find(port);
    if (it == port_data.end()) return support::Bytes{};
    return it->second;
  }
  support::Status WritePort(std::uint8_t port,
                            std::span<const std::uint8_t> data) override {
    writes.emplace_back(port, support::Bytes(data.begin(), data.end()));
    return support::OkStatus();
  }
  bool PortAvailable(std::uint8_t port) override {
    return available.contains(port);
  }
  std::uint32_t ClockMs() override { return clock_ms; }

  std::map<std::uint8_t, support::Bytes> port_data;
  std::set<std::uint8_t> available;
  std::uint32_t clock_ms = 0;
  std::vector<std::pair<std::uint8_t, support::Bytes>> writes;
};

// --- canned installation packages --------------------------------------------------

/// Assembles a context package from its parts.
inline pirte::InstallationPackage MakeCannedPackage(
    const std::string& name, support::Bytes binary,
    std::vector<pirte::PicEntry> pic, std::vector<pirte::PlcEntry> plc = {},
    std::vector<pirte::EccEntry> ecc = {}, const std::string& version = "1.0") {
  pirte::InstallationPackage package;
  package.plugin_name = name;
  package.version = version;
  package.pic.entries = std::move(pic);
  package.plc.entries = std::move(plc);
  package.ecc.entries = std::move(ecc);
  package.binary = std::move(binary);
  return package;
}

/// An echo plug-in whose required port `in_unique` loops straight back out
/// of provided port `out_unique` over a Type II virtual channel — the
/// canonical "smallest useful plug-in" used across the PIRTE suites.
inline pirte::InstallationPackage MakeEchoLoopbackPackage(
    const std::string& name, std::uint8_t in_unique, std::uint8_t out_unique) {
  return MakeCannedPackage(
      name, fes::MakeEchoPluginBinary(),
      {{0, "in", in_unique, pirte::PluginPortDirection::kRequired},
       {1, "out", out_unique, pirte::PluginPortDirection::kProvided}},
      {{1, pirte::PlcKind::kVirtual, 4, 0, "", 0}});
}

}  // namespace dacm::testutil
