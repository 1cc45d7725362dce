// Simulated wide-area network.
//
// Stands in for the TCP links of the paper's prototype: the ECM's socket
// client to the trusted server, and the smart phone's connection to the
// vehicle.  A connection is a pair of cross-linked NetPeer endpoints
// carrying ordered, reliable, length-delimited messages with a configurable
// one-way latency.  Link-down fault injection drops messages (the paper's
// installation protocol recovers via server-side acknowledgement tracking).
//
// Delivery is zero-copy: a message is one refcounted immutable buffer
// (support::SharedBytes) handed from sender to delivery event to the
// receive handler — a campaign batch serialized once travels every hop,
// including re-pushes, by refcount bump.
//
// Threading: none.  Send() schedules the delivery event at Now() + latency
// on the simulator, and everything else (Listen, Connect, Close,
// SetLinkUp, handler installation, delivery) runs on the simulation
// thread too.
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <unordered_map>

#include "sim/simulator.hpp"
#include "support/shared_bytes.hpp"
#include "support/status.hpp"

namespace dacm::sim {

class Network;

/// One endpoint of an established duplex connection.
class NetPeer : public std::enable_shared_from_this<NetPeer> {
 public:
  /// SharedBytes converts implicitly to `const support::Bytes&` and to a
  /// byte span, so handlers written against either keep working.
  using ReceiveHandler = std::function<void(const support::SharedBytes&)>;

  /// Sends one message to the remote endpoint, delivered one latency from
  /// Now().  Returns kUnavailable if the link is down or the remote
  /// endpoint is gone.  Fanning the same SharedBytes to many peers shares
  /// one buffer.
  support::Status Send(support::SharedBytes message);

  /// Installs the receive callback (replaces any previous one).
  void SetReceiveHandler(ReceiveHandler handler) { on_receive_ = std::move(handler); }

  /// Diagnostic label ("client-><addr>" / "accept@<addr>"), built on
  /// demand — the connect path stays free of per-peer string assembly.
  std::string label() const;

  bool connected() const { return !remote_.expired(); }

  /// Closes this side; the remote sees connected() == false.
  void Close();

 private:
  friend class Network;

  NetPeer(Network& net, std::shared_ptr<const std::string> address,
          bool client_side)
      : net_(net), address_(std::move(address)), client_side_(client_side) {}

  Network& net_;
  std::shared_ptr<const std::string> address_;  // shared with the listener
  bool client_side_;
  std::weak_ptr<NetPeer> remote_;
  ReceiveHandler on_receive_;
};

/// Connection factory + message scheduler.
class Network {
 public:
  explicit Network(Simulator& simulator,
                   SimTime one_way_latency = 20 * kMillisecond)
      : simulator_(simulator), latency_(one_way_latency) {}

  Network(const Network&) = delete;
  Network& operator=(const Network&) = delete;

  using AcceptHandler = std::function<void(std::shared_ptr<NetPeer>)>;

  /// Registers a listener on `address` (e.g. "111.22.33.44:56789").
  support::Status Listen(const std::string& address, AcceptHandler on_accept);

  /// Connects to a listening address; on success the listener's accept
  /// handler fires (at connect time + latency) with the server-side peer,
  /// and the client-side peer is returned immediately.
  support::Result<std::shared_ptr<NetPeer>> Connect(const std::string& address);

  /// Removes the listener on `address` (kNotFound if absent).  Connects
  /// after this fail until somebody listens again — a killed server
  /// unbinds here so its restarted replacement can take the address over.
  /// SYNs already in flight still fire the handler they captured; accept
  /// handlers must therefore guard against their server dying first.
  support::Status Unlisten(const std::string& address);

  /// Fault injection: while down, Send() returns kUnavailable.
  void SetLinkUp(bool up) { link_up_ = up; }
  bool link_up() const { return link_up_; }

  SimTime latency() const { return latency_; }
  void SetLatency(SimTime latency) { latency_ = latency; }

  /// The simulator driving this network (components that defer work —
  /// e.g. the server's ack flush — schedule their events through it).
  Simulator& simulator() const { return simulator_; }

  std::uint64_t messages_delivered() const { return messages_delivered_; }

 private:
  friend class NetPeer;

  struct Listener {
    AcceptHandler on_accept;
    /// Shared with every peer of this address, so Connect builds no
    /// per-peer strings.
    std::shared_ptr<const std::string> address;
  };

  Simulator& simulator_;
  SimTime latency_;
  bool link_up_ = true;
  std::unordered_map<std::string, Listener> listeners_;
  std::uint64_t messages_delivered_ = 0;
};

}  // namespace dacm::sim
