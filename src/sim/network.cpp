#include "sim/network.hpp"

namespace dacm::sim {

std::string NetPeer::label() const {
  return (client_side_ ? "client->" : "accept@") + *address_;
}

support::Status NetPeer::Send(support::SharedBytes message) {
  if (!net_.link_up()) {
    return support::Unavailable("network link down");
  }
  auto remote = remote_.lock();
  if (!remote) {
    return support::Unavailable("remote endpoint closed");
  }
  // 40 bytes of captures: stays in the event node's inline storage.
  net_.simulator_.ScheduleAfter(
      net_.latency_, [remote = std::move(remote),
                      message = std::move(message), net = &net_]() {
        ++net->messages_delivered_;
        if (remote->on_receive_) remote->on_receive_(message);
      });
  return support::OkStatus();
}

void NetPeer::Close() {
  if (auto remote = remote_.lock()) remote->remote_.reset();
  remote_.reset();
}

support::Status Network::Listen(const std::string& address, AcceptHandler on_accept) {
  auto [it, inserted] = listeners_.emplace(
      address, Listener{std::move(on_accept),
                        std::make_shared<const std::string>(address)});
  (void)it;
  if (!inserted) {
    return support::AlreadyExists("address already listening: " + address);
  }
  return support::OkStatus();
}

support::Status Network::Unlisten(const std::string& address) {
  if (listeners_.erase(address) == 0) {
    return support::NotFound("no listener at " + address);
  }
  return support::OkStatus();
}

support::Result<std::shared_ptr<NetPeer>> Network::Connect(const std::string& address) {
  auto it = listeners_.find(address);
  if (it == listeners_.end()) {
    return support::NotFound("no listener at " + address);
  }
  if (!link_up()) {
    return support::Unavailable("network link down");
  }
  auto client = std::shared_ptr<NetPeer>(
      new NetPeer(*this, it->second.address, /*client_side=*/true));
  auto server = std::shared_ptr<NetPeer>(
      new NetPeer(*this, it->second.address, /*client_side=*/false));
  client->remote_ = server;
  server->remote_ = client;
  // The accept handler owns the server-side peer; deliver it after one
  // latency like a SYN would take.
  simulator_.ScheduleAfter(latency_,
                           [handler = it->second.on_accept, server]() { handler(server); });
  return client;
}

}  // namespace dacm::sim
