#include "fes/fleet.hpp"

#include <string_view>

#include "pirte/package.hpp"
#include "pirte/protocol.hpp"
#include "support/metrics.hpp"

namespace dacm::fes {

ScriptedFleet::ScriptedFleet(sim::Simulator& simulator, sim::Network& network,
                             server::TrustedServer& server,
                             ScriptedFleetOptions options)
    : simulator_(simulator),
      network_(network),
      server_(&server),
      options_(std::move(options)),
      time_to_install_us_(support::Metrics::Instance().GetHistogram(
          "dacm_fleet_time_to_install_us")) {
  vins_.reserve(options_.vehicle_count);
  for (std::size_t i = 0; i < options_.vehicle_count; ++i) {
    vins_.push_back(options_.vin_prefix + std::to_string(i));
  }
  peers_.resize(options_.vehicle_count);
  online_.assign(options_.vehicle_count, 0);
  nack_until_.assign(options_.vehicle_count, 0);
  redials_left_.assign(options_.vehicle_count, kMaxRedials);
}

const std::string& ScriptedFleet::ModelOf(std::size_t index) const {
  if (options_.models.empty()) return options_.model;
  return options_.models[index % options_.models.size()];
}

support::Status ScriptedFleet::ConnectEndpoint(std::size_t index) {
  DACM_ASSIGN_OR_RETURN(peers_[index], network_.Connect(server_->address()));
  peers_[index]->SetReceiveHandler(
      [this, index](const support::SharedBytes& data) {
        OnMessage(index, data);
      });

  pirte::Envelope hello;
  hello.kind = pirte::Envelope::Kind::kHello;
  hello.vin = vins_[index];
  DACM_RETURN_IF_ERROR(peers_[index]->Send(hello.Serialize()));
  online_[index] = 1;
  return support::OkStatus();
}

support::Status ScriptedFleet::BindAndConnect(server::UserId user) {
  for (std::size_t i = 0; i < vins_.size(); ++i) {
    DACM_RETURN_IF_ERROR(server_->BindVehicle(user, vins_[i], ModelOf(i)));
    DACM_RETURN_IF_ERROR(ConnectEndpoint(i));
  }
  simulator_.Run();
  for (const std::string& vin : vins_) {
    if (!server_->VehicleOnline(vin)) {
      return support::Unavailable("fleet endpoint failed to come online: " + vin);
    }
  }
  return support::OkStatus();
}

support::Status ScriptedFleet::TakeOffline(std::size_t index) {
  if (index >= vins_.size()) return support::OutOfRange("fleet index");
  if (online_[index] == 0) return support::OkStatus();
  peers_[index]->Close();
  online_[index] = 0;
  return support::OkStatus();
}

support::Status ScriptedFleet::BringOnline(std::size_t index) {
  if (index >= vins_.size()) return support::OutOfRange("fleet index");
  if (online_[index] != 0) return support::OkStatus();
  auto status = ConnectEndpoint(index);
  if (!status.ok()) {
    // The WAN may be mid-flap; redial later like a real ECM's reconnect
    // alarm would, so a churn return that collides with a link flap does
    // not strand the vehicle offline forever.  Only a downed link is
    // worth retrying (a missing listener is permanent), and the redials
    // are bounded so a never-healing outage cannot keep the simulator's
    // event queue non-empty forever.  The retry event captures `this`:
    // the fleet must outlive the simulator run, like every endpoint
    // handler already requires.
    if (status.code() == support::ErrorCode::kUnavailable &&
        redials_left_[index] > 0) {
      --redials_left_[index];
      simulator_.ScheduleAfter(100 * sim::kMillisecond,
                               [this, index] { (void)BringOnline(index); });
    }
    return status;
  }
  redials_left_[index] = kMaxRedials;
  ++reconnects_;
  return support::OkStatus();
}

void ScriptedFleet::SetTransientNack(std::size_t index, sim::SimTime until) {
  if (index >= vins_.size()) return;
  nack_until_[index] = until;
}

void ScriptedFleet::MarkCampaignEpoch() {
  observe_epoch_ = simulator_.Now();
  observed_.assign(vins_.size(), 0);
}

std::size_t ScriptedFleet::RedialDead() {
  std::size_t redialed = 0;
  for (std::size_t i = 0; i < vins_.size(); ++i) {
    if (online_[i] == 0 || peers_[i]->connected()) continue;
    // The server died under this endpoint: its Pusher side closed every
    // connection, but the endpoint never asked to go offline.  Flip it
    // offline and reuse the BringOnline redial machinery (including the
    // flap-bridging retry alarm).
    online_[i] = 0;
    (void)BringOnline(i);
    ++redialed;
  }
  return redialed;
}

bool ScriptedFleet::online(std::size_t index) const {
  return index < vins_.size() && online_[index] != 0 &&
         peers_[index]->connected();
}

void ScriptedFleet::OnMessage(std::size_t index,
                              const support::SharedBytes& data) {
  auto envelope = pirte::EnvelopeView::Parse(data);
  if (!envelope.ok() || envelope->kind != pirte::Envelope::Kind::kPirteMessage) {
    return;
  }
  auto view = pirte::PirteMessageView::Parse(envelope->message);
  if (!view.ok()) return;

  const bool scripted_nack =
      options_.nack_every != 0 && (index + 1) % options_.nack_every == 0;
  const bool transient_nack = simulator_.Now() < nack_until_[index];
  const bool ack_ok = !scripted_nack && !transient_nack;

  // One-pass framing (envelope + message into a single sized buffer):
  // the vehicle side of a campaign sends one of these per push, and the
  // fleet stands in for thousands of vehicles.  All replies funnel
  // through send_wire so the ack counters have exactly one home.
  auto send_wire = [&](support::SharedBytes wire) {
    if (peers_[index]->Send(std::move(wire)).ok()) {
      ++acks_sent_;
      if (!ack_ok) ++nacks_sent_;
    }
  };
  auto send_reply = [&](const pirte::PirteMessage& reply) {
    send_wire(pirte::SerializeEnveloped(vins_[index], reply.View()));
  };

  switch (view->type) {
    case pirte::MessageType::kInstallBatch:
    case pirte::MessageType::kUninstallBatch: {
      if (view->type == pirte::MessageType::kInstallBatch) {
        ++batches_received_;
        // First install batch since MarkCampaignEpoch: the vehicle-side
        // time-to-install sample (sim µs from epoch to wire delivery).
        if (observe_epoch_ != 0 && index < observed_.size() &&
            observed_[index] == 0) {
          observed_[index] = 1;
          time_to_install_us_.Observe(simulator_.Now() - observe_epoch_);
        }
      } else {
        ++uninstall_batches_received_;
      }
      // Verdict views alias the delivered buffer (alive for the whole
      // handler); the scratch vector is reused across messages.
      verdict_scratch_.clear();
      auto status = pirte::ForEachInBatch(
          view->payload, [&](std::span<const std::uint8_t> entry) {
            auto inner = pirte::PirteMessageView::Parse(entry);
            if (!inner.ok()) return inner.status();
            ++packages_received_;
            verdict_scratch_.push_back(pirte::BatchAckEntryView{
                inner->plugin_name, ack_ok,
                ack_ok ? std::string_view() : std::string_view("scripted nack")});
            return support::OkStatus();
          });
      if (!status.ok()) return;
      if (options_.batch_ack) {
        // The whole reply — envelope, kAckBatch header, verdicts — in one
        // sized buffer.
        send_wire(
            pirte::SerializeEnvelopedAckBatch(vins_[index], verdict_scratch_));
      } else {
        for (const pirte::BatchAckEntryView& verdict : verdict_scratch_) {
          pirte::PirteMessage reply;
          reply.type = pirte::MessageType::kAck;
          reply.plugin_name = std::string(verdict.plugin);
          reply.ok = verdict.ok;
          reply.detail = std::string(verdict.detail);
          send_reply(reply);
        }
      }
      return;
    }
    case pirte::MessageType::kInstallPackage: {
      ++packages_received_;
      pirte::PirteMessage reply;
      reply.type = pirte::MessageType::kAck;
      reply.plugin_name = std::string(view->plugin_name);
      reply.ok = ack_ok;
      if (!ack_ok) reply.detail = "scripted nack";
      send_reply(reply);
      return;
    }
    default:
      return;
  }
}

}  // namespace dacm::fes
