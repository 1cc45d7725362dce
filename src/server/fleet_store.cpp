#include "server/fleet_store.hpp"

#include <algorithm>
#include <cstring>

namespace dacm::server {
namespace {

std::uint64_t Fnv1a(std::string_view text) {
  std::uint64_t hash = 1469598103934665603ull;
  for (char c : text) {
    hash ^= static_cast<std::uint8_t>(c);
    hash *= 1099511628211ull;
  }
  return hash;
}

}  // namespace

std::uint32_t FleetStore::Find(std::string_view vin) const {
  if (slots_.empty()) return kNil;
  const std::size_t mask = slots_.size() - 1;
  for (std::size_t i = Fnv1a(vin) & mask;; i = (i + 1) & mask) {
    const std::uint32_t handle = slots_[i];
    if (handle == kNil) return kNil;
    if (vins_[handle] == vin) return handle;
  }
}

std::uint32_t FleetStore::Intern(std::string_view vin) {
  // Grow before probing so the probe loop always finds an empty slot.
  if ((vins_.size() + 1) * 10 >= slots_.size() * 7) {
    Rehash(slots_.empty() ? 1024 : slots_.size() * 2);
  }
  const std::size_t mask = slots_.size() - 1;
  std::size_t i = Fnv1a(vin) & mask;
  for (; slots_[i] != kNil; i = (i + 1) & mask) {
    if (vins_[slots_[i]] == vin) return slots_[i];
  }
  const std::uint32_t handle = static_cast<std::uint32_t>(vins_.size());
  vins_.push_back(Store(vin));
  model_.push_back(kUnbound);
  owner_.push_back(UserId::Invalid());
  row_head_.push_back(kNil);
  peer_.emplace_back();
  slots_[i] = handle;
  return handle;
}

void FleetStore::Rehash(std::size_t slot_count) {
  slots_.assign(slot_count, kNil);
  const std::size_t mask = slot_count - 1;
  for (std::uint32_t handle = 0; handle < vins_.size(); ++handle) {
    std::size_t i = Fnv1a(vins_[handle]) & mask;
    while (slots_[i] != kNil) i = (i + 1) & mask;
    slots_[i] = handle;
  }
}

std::string_view FleetStore::Store(std::string_view vin) {
  const std::size_t need = vin.size();
  if (arena_used_ + need > kArenaChunk) {
    arena_.push_back(std::make_unique<char[]>(std::max(need, kArenaChunk)));
    arena_used_ = 0;
  }
  char* dest = arena_.back().get() + arena_used_;
  std::memcpy(dest, vin.data(), need);
  arena_used_ += need;
  return {dest, need};
}

std::uint32_t FleetStore::AddRow(std::uint32_t v) {
  std::uint32_t r;
  if (free_rows_ != kNil) {
    r = free_rows_;
    free_rows_ = rows_[r].next;
    rows_[r] = InstallRow{};
  } else {
    r = static_cast<std::uint32_t>(rows_.size());
    rows_.emplace_back();
  }
  std::uint32_t* tail = &row_head_[v];
  while (*tail != kNil) tail = &rows_[*tail].next;
  *tail = r;
  ++live_rows_;
  return r;
}

void FleetStore::RemoveRow(std::uint32_t v, std::uint32_t r) {
  std::uint32_t* link = &row_head_[v];
  while (*link != r) link = &rows_[*link].next;
  *link = rows_[r].next;
  rows_[r] = InstallRow{};
  rows_[r].next = free_rows_;
  free_rows_ = r;
  --live_rows_;
}

std::uint32_t FleetStore::FindRow(std::uint32_t v,
                                  std::string_view app_name) const {
  for (std::uint32_t r = row_head_[v]; r != kNil; r = rows_[r].next) {
    if (rows_[r].manifest->app_name == app_name) return r;
  }
  return kNil;
}

void FleetStore::DeriveLayout(std::uint32_t v, IdLayout& layout,
                              std::uint32_t excluding_row) const {
  layout.clear();
  for (std::uint32_t r = row_head_[v]; r != kNil; r = rows_[r].next) {
    if (r == excluding_row) continue;
    for (const BatchManifest::Plugin& plugin : rows_[r].manifest->plugins) {
      if (plugin.pic.entries.empty()) continue;
      auto ecu = std::find_if(layout.begin(), layout.end(), [&](const auto& e) {
        return e.first == plugin.ecu_id;
      });
      if (ecu == layout.end()) {
        ecu = layout.emplace(layout.end(), plugin.ecu_id, PortIdSet{});
      }
      for (const pirte::PicEntry& entry : plugin.pic.entries) {
        ecu->second.insert(entry.unique_id);
      }
    }
  }
  std::sort(layout.begin(), layout.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
}

void FleetStore::AddPeer(std::uint32_t v, std::shared_ptr<sim::NetPeer> peer) {
  if (peer_[v] == nullptr) {
    peer_[v] = std::move(peer);
  } else {
    extra_peers_[v].push_back(std::move(peer));
  }
}

sim::NetPeer* FleetStore::FirstConnectedPeer(std::uint32_t v) const {
  if (peer_[v] != nullptr && peer_[v]->connected()) return peer_[v].get();
  auto extra = extra_peers_.find(v);
  if (extra == extra_peers_.end()) return nullptr;
  for (const auto& peer : extra->second) {
    if (peer->connected()) return peer.get();
  }
  return nullptr;
}

}  // namespace dacm::server
