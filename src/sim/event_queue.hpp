// Allocation-free pending-event store for the discrete-event kernel.
//
// The Simulator's schedule pattern is near-monotonic (latencies, alarm
// periods and backoffs are pushed a short, bounded distance into the
// future), which a comparison-based priority queue cannot exploit.  This
// EventQueue is a hierarchical timer wheel: six levels of 64 slots, level
// L covering 2^(6L) microseconds per slot, so any event within ~19 hours
// of the cursor is placed by two bit operations and popped by a bitmap
// scan — O(1) amortized schedule and fire, no comparisons on the hot path.
//
// The contract is *exact* replay equivalence with the classic
// priority-queue core it replaced: events fire in strictly increasing
// (timestamp, schedule-sequence) order — FIFO for equal timestamps — and
// the property suite diffs the two implementations under random
// interleavings.  The pieces that make the wheel exact:
//
//  * level-0 slots hold a single exact timestamp; when one is harvested,
//    its nodes are sorted by sequence (cascades from outer levels can
//    interleave arrival order, never ordering keys);
//  * events beyond the 2^36 us horizon wait in an overflow min-heap and
//    fold into the wheel as the cursor approaches.
//
// Nothing is ever scheduled behind the wheel cursor: the Simulator clamps
// to Now(), and the cursor never passes Now().
//
// Event nodes (timestamp, sequence, intrusive link, inline callback) come
// from a chunked free list owned by the queue; a steady-state simulation
// allocates nothing per event after warm-up.
#pragma once

#include <algorithm>
#include <bit>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "support/inplace_function.hpp"

namespace dacm::sim {

/// Simulated time in microseconds since simulation start.
using SimTime = std::uint64_t;

constexpr SimTime kMicrosecond = 1;
constexpr SimTime kMillisecond = 1000;
constexpr SimTime kSecond = 1000 * 1000;

class EventQueue {
 public:
  /// Captures up to 48 bytes inline; larger callables take the one-off
  /// heap escape hatch (see support/inplace_function.hpp).
  using Callback = support::InplaceFunction<void()>;

  static constexpr SimTime kMaxTime = ~SimTime{0};

  EventQueue() = default;
  ~EventQueue();

  EventQueue(const EventQueue&) = delete;
  EventQueue& operator=(const EventQueue&) = delete;

  /// Enqueues `fn` at `at`.  FIFO among equal timestamps is defined by
  /// call order.  `at` must not lie behind the cursor (the caller clamps
  /// to Now()).
  /// Inline: this plus PopDue is the whole hot path of Simulator::Run.
  void Push(SimTime at, Callback fn) {
    Node* node = Alloc(at, std::move(fn));
    ++size_;
    if (size_ == 1) {
      // Only pending event: park it; no wheel bookkeeping.
      solo_ = node;
      return;
    }
    if (solo_ != nullptr) {
      Node* demoted = solo_;
      solo_ = nullptr;
      Place(demoted);
    }
    Place(node);
  }

  /// Pops the earliest event if its timestamp is <= `limit`; false when
  /// the queue is empty or the next event lies beyond the limit.
  bool PopDue(SimTime limit, SimTime* at, Callback* fn) {
    if (solo_ != nullptr) {
      Node* node = solo_;
      if (node->at > limit) return false;
      solo_ = nullptr;
      // The lone event is the minimum; the cursor follows it.
      cursor_ = node->at;
      return TakeNode(node, at, fn);
    }
    if (ready_head_ == nullptr && !AdvanceToNext(limit)) return false;
    Node* node = ready_head_;
    if (node->at > limit) return false;
    ready_head_ = node->next;
    if (ready_head_ == nullptr) ready_tail_ = nullptr;
    return TakeNode(node, at, fn);
  }

  /// Advances the wheel cursor to `t`.  Caller contract: no pending event
  /// has timestamp <= `t` (i.e. PopDue(t, ...) just returned false).
  /// RunUntil uses this so a later Push relative to the new Now() lands
  /// in the right slot.
  void SyncCursor(SimTime t) {
    if (t > cursor_) cursor_ = t;
  }

  bool Empty() const { return size_ == 0; }
  std::size_t size() const { return size_; }

  /// Pool footprint in nodes (tests assert steady-state churn stops
  /// growing it).
  std::size_t allocated_nodes() const { return blocks_.size() * kBlockNodes; }

  /// Events parked beyond the 2^36 us wheel horizon.  The boundary
  /// regression tests pin that `cursor + horizon` routes here — the slot
  /// math would silently wrap it into the wheel's current rotation if
  /// the horizon comparison ever regressed to `>` instead of bit-window
  /// inequality.  (A lone event held in the solo fast path is not
  /// counted; it never touches wheel slots at all.)
  std::size_t overflow_size() const { return overflow_.size(); }

 private:
  struct Node {
    SimTime at = 0;
    std::uint64_t seq = 0;
    Node* next = nullptr;
    Callback fn;
  };
  struct Slot {
    Node* head = nullptr;
    Node* tail = nullptr;
  };
  /// Min-heap order over (timestamp, sequence).
  struct NodeLater {
    bool operator()(const Node* a, const Node* b) const {
      if (a->at != b->at) return a->at > b->at;
      return a->seq > b->seq;
    }
  };

  static constexpr int kSlotBits = 6;
  static constexpr std::size_t kSlots = 1u << kSlotBits;
  static constexpr int kLevels = 6;
  static constexpr int kWheelBits = kLevels * kSlotBits;  // 36: ~19 h horizon
  static constexpr std::size_t kBlockNodes = 256;

  Node* Alloc(SimTime at, Callback fn) {
    if (free_ == nullptr) RefillPool();
    Node* node = free_;
    free_ = node->next;
    node->at = at;
    node->seq = next_seq_++;
    node->next = nullptr;
    node->fn = std::move(fn);
    return node;
  }

  void Recycle(Node* node) {
    node->next = free_;
    free_ = node;
  }

  /// Moves the node's payload out, recycles it, and reports success (the
  /// tail of every PopDue branch).
  bool TakeNode(Node* node, SimTime* at, Callback* fn) {
    *at = node->at;
    *fn = std::move(node->fn);  // leaves the pooled callback empty
    Recycle(node);
    --size_;
    return true;
  }

  /// Grows the node pool by one block (the only allocation in the queue).
  void RefillPool();

  /// Routes a node into ready / wheel / overflow by its timestamp
  /// relative to the cursor.
  void Place(Node* node) {
    const SimTime at = node->at;
    assert(at >= cursor_ && "event scheduled behind the wheel cursor");
    if (at == cursor_) {
      // Due now.  Sequences are monotone, so appending keeps the ready
      // list sorted.
      if (ready_tail_ == nullptr) {
        ready_head_ = ready_tail_ = node;
      } else {
        ready_tail_->next = node;
        ready_tail_ = node;
      }
    } else if (((at ^ cursor_) >> kWheelBits) != 0) {
      overflow_.push_back(node);
      std::push_heap(overflow_.begin(), overflow_.end(), NodeLater{});
    } else {
      InsertIntoWheel(node);
    }
  }

  /// Places a node with at > cursor_ into its wheel slot (must be within
  /// the horizon).
  void InsertIntoWheel(Node* node) {
    const SimTime diff = node->at ^ cursor_;
    const int level = (63 - std::countl_zero(diff)) / kSlotBits;
    const auto index = static_cast<std::size_t>(
        (node->at >> (level * kSlotBits)) & (kSlots - 1));
    Slot& slot = slots_[level][index];
    if (slot.tail == nullptr) {
      slot.head = slot.tail = node;
    } else {
      slot.tail->next = node;
      slot.tail = node;
    }
    occupied_[level] |= std::uint64_t{1} << index;
  }

  /// Moves the next due slot's events into the ready list (sorted by
  /// sequence).  Requires the ready list to be empty; false when the next
  /// event lies beyond `limit`.
  bool AdvanceToNext(SimTime limit);
  /// Sorts scratch_due_ (all at == cursor_) by sequence and links it as
  /// the ready list.
  void LinkScratchAsReady();

  SimTime cursor_ = 0;        // wheel reference point; <= next wheel event
  std::uint64_t next_seq_ = 0;
  std::size_t size_ = 0;

  /// Fast path for the lone-timer pattern (a watchdog or OS tick alarm
  /// rescheduling itself): with exactly one pending event the wheel is
  /// pure overhead, so the single node parks here and pops directly.  A
  /// second Push demotes it onto the wheel.
  Node* solo_ = nullptr;

  Slot slots_[kLevels][kSlots];
  std::uint64_t occupied_[kLevels] = {};  // bitmap of non-empty slots

  Node* ready_head_ = nullptr;  // due events (all at == cursor_), seq order
  Node* ready_tail_ = nullptr;

  std::vector<Node*> overflow_;  // beyond the wheel horizon
  std::vector<Node*> scratch_due_;

  Node* free_ = nullptr;
  std::vector<std::unique_ptr<Node[]>> blocks_;
};

}  // namespace dacm::sim
