// Scripted fleet construction at scale.
//
// A ScriptedFleet stands in for thousands of vehicles in server-side
// campaign tests and the fleet benchmark: each endpoint is just a network
// peer that says Hello for its VIN and acknowledges every push — no CAN
// bus, ECUs or PIRTEs — so a 10k-vehicle fleet costs a few MB instead of
// a few GB, and the measured work is the *server's* pipeline.
//
// Endpoints understand the server's three push shapes: the kInstallBatch
// every deploy pushes and the kUninstallBatch every uninstall pushes (each
// batch answered with a single kAckBatch covering every embedded entry,
// or one kAck per entry), and Restore's per-plug-in kInstallPackage
// (answered with one kAck).  Parsing uses the zero-copy views, so the
// per-message vehicle-side cost stays far below the server-side work
// being measured.
//
// The fleet doubles as a sim::FleetFaultTarget: fault scenarios
// (sim/fault.hpp) can churn endpoints offline (the connection closes;
// BringOnline re-dials and re-announces the VIN) and arm transient nacks
// (the endpoint rejects every push until a sim-time heals it) — the
// failure modes the campaign engine's retry machine must converge over.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "pirte/package.hpp"
#include "server/server.hpp"
#include "sim/fault.hpp"
#include "sim/network.hpp"
#include "sim/simulator.hpp"
#include "support/metrics.hpp"

namespace dacm::fes {

struct ScriptedFleetOptions {
  std::size_t vehicle_count = 1;
  std::string vin_prefix = "FLEET-";
  std::string model = "rpi-testbed";
  /// Multi-model fleets: vehicle i binds to models[i % models.size()]
  /// (round-robin, so every model gets an equal cohort).  Empty (the
  /// default) binds the whole fleet to `model`.  Every named model must
  /// be uploaded before BindAndConnect.
  std::vector<std::string> models;
  /// Answer each batch with one kAckBatch (the cheap path).  When false,
  /// every embedded entry is acknowledged individually, as the real ECM
  /// does — useful to exercise the server's mixed-ack handling.
  bool batch_ack = true;
  /// Acks report failure for every Nth vehicle (0 = all succeed).
  std::size_t nack_every = 0;
};

class ScriptedFleet : public sim::FleetFaultTarget {
 public:
  /// Creates the endpoints; call BindAndConnect before deploying.
  ScriptedFleet(sim::Simulator& simulator, sim::Network& network,
                server::TrustedServer& server, ScriptedFleetOptions options);

  /// Binds every VIN to `user` on the server, connects each endpoint and
  /// runs the simulator until the Hellos have settled.
  support::Status BindAndConnect(server::UserId user);

  // --- sim::FleetFaultTarget -------------------------------------------------
  std::size_t FleetSize() const override { return vins_.size(); }
  /// Closes the endpoint's connection; pushes fail until BringOnline.
  support::Status TakeOffline(std::size_t index) override;
  /// Re-dials the server and re-announces the VIN (no-op when online).
  support::Status BringOnline(std::size_t index) override;
  /// The endpoint nacks every push received before sim time `until`.
  void SetTransientNack(std::size_t index, sim::SimTime until) override;

  // --- crash-recovery harness ------------------------------------------------

  /// Points the fleet at a successor server (same address).  Call from the
  /// KillAndRestartServer restart closure: the old TrustedServer reference
  /// dangles the moment the kill closure destroys it.
  void RetargetServer(server::TrustedServer& server) { server_ = &server; }

  /// Re-dials every endpoint that believes it is online but whose peer
  /// died underneath it (the killed server closed all Pusher connections).
  /// Returns the number of endpoints re-dialed.  Run the simulator
  /// afterwards so the Hellos settle.
  std::size_t RedialDead();

  bool online(std::size_t index) const;

  /// Starts a time-to-install observation window: each endpoint's *first*
  /// install batch delivered after this call observes
  /// `now - epoch` (µs of sim time) into the
  /// `dacm_fleet_time_to_install_us` histogram.  Call right before
  /// DeployCampaign / StartCampaign; call again to re-arm for the next
  /// campaign.  Vehicle-side view of deploy latency: it includes wave
  /// scheduling and retry delay, which the server's push→ack round-trip
  /// histogram does not.
  void MarkCampaignEpoch();

  const std::vector<std::string>& vins() const { return vins_; }
  std::uint64_t batches_received() const { return batches_received_; }
  std::uint64_t uninstall_batches_received() const {
    return uninstall_batches_received_;
  }
  std::uint64_t packages_received() const { return packages_received_; }
  std::uint64_t acks_sent() const { return acks_sent_; }
  std::uint64_t nacks_sent() const { return nacks_sent_; }
  std::uint64_t reconnects() const { return reconnects_; }

 private:
  /// Redial budget for a BringOnline that collides with a link flap
  /// (100 ms cadence -> up to ~6.4 s of outage bridged per churn).
  static constexpr std::uint8_t kMaxRedials = 64;

  /// The model vehicle `index` binds to (round-robin over options.models,
  /// or the single-model fallback).
  const std::string& ModelOf(std::size_t index) const;
  /// Dials the server, installs the receive handler and says Hello.
  support::Status ConnectEndpoint(std::size_t index);
  void OnMessage(std::size_t index, const support::SharedBytes& data);

  sim::Simulator& simulator_;
  sim::Network& network_;
  /// Never null; a pointer (not a reference) so RetargetServer can swap in
  /// the recovered successor after a kill.
  server::TrustedServer* server_;
  ScriptedFleetOptions options_;
  // Endpoint state as parallel columns indexed by fleet position — no
  // per-vehicle heap row, so a million-endpoint fleet is five flat
  // arrays.  Message handlers capture the index, never a pointer into
  // the columns (which may reallocate while connects are in flight).
  std::vector<std::string> vins_;
  std::vector<std::shared_ptr<sim::NetPeer>> peers_;
  std::vector<std::uint8_t> online_;
  std::vector<sim::SimTime> nack_until_;
  std::vector<std::uint8_t> redials_left_;
  /// Time-to-install window (MarkCampaignEpoch): the epoch sim time, and
  /// a per-endpoint "already observed this window" flag.  0 = no window
  /// armed.  Message delivery runs on the sim thread, so plain columns
  /// suffice.
  sim::SimTime observe_epoch_ = 0;
  std::vector<std::uint8_t> observed_;
  /// Bound at construction so the family is registered (and therefore
  /// exposed, with count 0) even before the first observation window —
  /// the metrics-smoke gate requires its presence in any fleet run.
  support::Histogram& time_to_install_us_;
  /// Fleet-wide tallies.
  std::uint64_t batches_received_ = 0;
  std::uint64_t uninstall_batches_received_ = 0;
  std::uint64_t packages_received_ = 0;
  std::uint64_t acks_sent_ = 0;
  std::uint64_t nacks_sent_ = 0;
  std::uint64_t reconnects_ = 0;
  /// Reused per kInstallBatch/kUninstallBatch delivery: the verdicts the
  /// reply carries.
  std::vector<pirte::BatchAckEntryView> verdict_scratch_;
};

}  // namespace dacm::fes
