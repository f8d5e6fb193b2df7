#include "sim/timer_wheel.h"

#include <algorithm>
#include <bit>
#include <cassert>

namespace marea::sim {

TimerWheel::~TimerWheel() = default;

TimerWheel::Node* TimerWheel::alloc() {
  Node* n = free_head_;
  if (n != nullptr) {
    free_head_ = n->next;
  } else {
    pool_.emplace_back();
    n = &pool_.back();
    n->index = static_cast<uint32_t>(pool_.size() - 1);
  }
  n->prev = nullptr;
  n->next = nullptr;
  n->cancelled = false;
  return n;
}

void TimerWheel::free_node(Node* n) {
  n->fn.reset();  // destroy the closure now — it may pin frames
  ++n->gen;       // invalidate every outstanding TimerId for this node
  n->where = Where::kFree;
  n->next = free_head_;
  n->prev = nullptr;
  free_head_ = n;
}

void TimerWheel::append(Slot& s, Node* n) {
  n->prev = s.tail;
  n->next = nullptr;
  if (s.tail != nullptr) {
    s.tail->next = n;
  } else {
    s.head = n;
  }
  s.tail = n;
}

void TimerWheel::push_due(Node* n) {
  n->where = Where::kHeap;
  heap_.push_back(n);
  std::push_heap(heap_.begin(), heap_.end(), DueLater{});
}

void TimerWheel::place(Node* n) {
  if (n->time < active_end_) {
    ++stats_.direct_to_heap;
    push_due(n);
    return;
  }
  for (int l = 0; l < kLevels; ++l) {
    const uint64_t delta = (n->time >> shift(l)) - (cursor_ >> shift(l));
    if (delta < kSlots) {
      // delta >= 1 here: time >= active_end_ puts it strictly past the
      // cursor's slot at the level that captures it, so the cursor's
      // own slot index stays empty at every level (find_candidate
      // relies on this).
      const uint64_t idx = (n->time >> shift(l)) & kSlotMask;
      n->where = Where::kWheel;
      n->level = static_cast<uint8_t>(l);
      n->slot = static_cast<uint8_t>(idx);
      append(slots_[l][idx], n);
      occupancy_[l] |= 1ull << idx;
      return;
    }
  }
  // Beyond the ~9-year ladder horizon.
  ++stats_.overflow_parked;
  n->where = Where::kOverflow;
  append(overflow_, n);
  overflow_min_ = std::min(overflow_min_, n->time);
}

TimerId TimerWheel::enqueue(Node* n, TimePoint t, uint64_t seq) {
  assert(t.ns >= 0 && n->fn);
  n->time = static_cast<uint64_t>(t.ns);
  n->seq = seq;
  ++pending_;
  ++stats_.scheduled;
  place(n);
  return (static_cast<uint64_t>(n->gen) << 32) |
         static_cast<uint64_t>(n->index + 1);
}

void TimerWheel::unlink(Node* n) {
  Slot& s = n->where == Where::kOverflow
                ? overflow_
                : slots_[n->level][n->slot];
  if (n->prev != nullptr) {
    n->prev->next = n->next;
  } else {
    s.head = n->next;
  }
  if (n->next != nullptr) {
    n->next->prev = n->prev;
  } else {
    s.tail = n->prev;
  }
  if (n->where == Where::kWheel && s.head == nullptr) {
    occupancy_[n->level] &= ~(1ull << n->slot);
  } else if (n->where == Where::kOverflow) {
    // Keep overflow_min_ a valid lower bound: while the list is
    // nonempty a stale-low min only triggers an early drain (which
    // recomputes it), but it must not outlive an emptied list — the
    // cursor may legitimately pass it once nothing blocks there.
    if (overflow_.head == nullptr) overflow_min_ = UINT64_MAX;
  }
}

bool TimerWheel::cancel(TimerId id) {
  const uint64_t raw_index = id & 0xffffffffull;
  if (raw_index == 0 || raw_index > pool_.size()) return false;
  Node* n = &pool_[raw_index - 1];
  if (n->gen != static_cast<uint32_t>(id >> 32) ||
      n->where == Where::kFree || n->cancelled) {
    return false;  // already fired, cancelled, or node reused
  }
  --pending_;
  ++stats_.cancelled;
  if (n->where == Where::kHeap) {
    // Heap entries can't be unlinked in O(1); mark and skip at pop.
    // Bounded: the due heap only ever holds the active slot's events.
    n->cancelled = true;
    ++n->gen;  // double-cancel of the same id becomes a no-op
  } else {
    unlink(n);
    free_node(n);
  }
  return true;
}

void TimerWheel::move_cursor(uint64_t t) {
  assert(t > cursor_ && (t & ((1ull << kBaseShift) - 1)) == 0);
  cursor_ = t;
  active_end_ = t + (1ull << kBaseShift);
}

TimerWheel::Node* TimerWheel::detach(int level, uint64_t idx) {
  Slot& s = slots_[level][idx];
  Node* head = s.head;
  s.head = nullptr;
  s.tail = nullptr;
  occupancy_[level] &= ~(1ull << idx);
  return head;
}

void TimerWheel::activate(uint64_t idx) {
  Node* n = detach(0, idx);
  while (n != nullptr) {
    Node* next = n->next;
    push_due(n);
    n = next;
  }
}

void TimerWheel::cascade(int level, uint64_t idx) {
  Node* n = detach(level, idx);
  while (n != nullptr) {
    Node* next = n->next;
    ++stats_.cascaded;
    place(n);  // lands at a lower level (or the due heap) vs new cursor
    n = next;
  }
}

void TimerWheel::drain_overflow() {
  Node* n = overflow_.head;
  overflow_.head = nullptr;
  overflow_.tail = nullptr;
  overflow_min_ = UINT64_MAX;
  while (n != nullptr) {
    Node* next = n->next;
    const uint64_t top_delta =
        (n->time >> shift(kLevels - 1)) - (cursor_ >> shift(kLevels - 1));
    if (top_delta < kSlots) {
      place(n);  // now fits the ladder
    } else {
      append(overflow_, n);
      n->where = Where::kOverflow;
      overflow_min_ = std::min(overflow_min_, n->time);
    }
    n = next;
  }
}

uint64_t TimerWheel::next_slot_start(int level) const {
  const uint64_t base = cursor_ >> shift(level);
  const unsigned il = static_cast<unsigned>(base & kSlotMask);
  // Rotate so bit 0 is the slot after the cursor's index; the cursor's
  // own index is never occupied (see place()), so the first set bit of
  // the rotation is the nearest future slot at this level.
  const uint64_t rot = std::rotr(occupancy_[level], (il + 1) & 63);
  assert(rot != 0);
  const uint64_t dist = 1 + static_cast<uint64_t>(std::countr_zero(rot));
  return (base + dist) << shift(level);
}

bool TimerWheel::find_candidate(uint64_t* time, int* level) const {
  // Lower bound for the overflow list; possibly stale-low after a
  // cancel, which only makes us drain (and recompute) early.
  const uint64_t overflow_bound =
      overflow_.head != nullptr ? (overflow_min_ >> kBaseShift) << kBaseShift
                                : UINT64_MAX;
  // Fast path: every level-1+ node lies at or past the next level-1
  // boundary (place() puts it strictly after the cursor's slot), so a
  // level-0 slot starting before that boundary and before the overflow
  // bound is the earliest candidate without scanning the other levels.
  if (occupancy_[0] != 0) {
    const uint64_t cand = next_slot_start(0);
    const uint64_t level1_end = ((cursor_ >> shift(1)) + 1) << shift(1);
    if (cand < level1_end && cand < overflow_bound) {
      *time = cand;
      *level = 0;
      return true;
    }
  }
  uint64_t best = UINT64_MAX;
  int best_level = -1;
  // High → low so that on equal lower-bound times the HIGHER level wins:
  // its slot must cascade before a same-bound level-0 slot activates
  // (the coarse slot may contain earlier events).
  for (int l = kLevels - 1; l >= 0; --l) {
    if (occupancy_[l] == 0) continue;
    const uint64_t cand = next_slot_start(l);
    if (cand < best) {
      best = cand;
      best_level = l;
    }
  }
  if (overflow_.head != nullptr && overflow_bound <= best) {
    // <=: drain before activating a same-bound slot.
    best = overflow_bound;
    best_level = kOverflowLevel;
  }
  if (best_level < 0) return false;
  *time = best;
  *level = best_level;
  return true;
}

void TimerWheel::settle() {
  // The cursor just moved to a slot-start time. Any occupied slot whose
  // index now coincides with the cursor's at its level holds events of
  // the current tick region (never a future lap — the cursor only ever
  // moves to the global minimum candidate, so nothing is skipped). On
  // aligned boundaries several levels can coincide at once: sweep top
  // down — cascaded nodes re-place strictly below the level they left —
  // then activate the level-0 cursor slot into the due heap. Afterwards
  // the cursor's index is empty at every level, which find_candidate's
  // circular scan relies on.
  for (int l = kLevels - 1; l >= 1; --l) {
    const uint64_t il = (cursor_ >> shift(l)) & kSlotMask;
    if (occupancy_[l] & (1ull << il)) cascade(l, il);
  }
  const uint64_t i0 = (cursor_ >> kBaseShift) & kSlotMask;
  if (occupancy_[0] & (1ull << i0)) activate(i0);
}

bool TimerWheel::advance(uint64_t limit) {
  for (;;) {
    uint64_t cand_time = 0;
    int cand_level = 0;
    if (!find_candidate(&cand_time, &cand_level)) return false;
    if (cand_time > limit) return false;
    move_cursor(cand_time);
    if (cand_level == kOverflowLevel) drain_overflow();
    settle();
    // The candidate slot (plus any slots tied at the same boundary) has
    // been cascaded down / activated; events due inside the cursor's
    // slot are now in the heap.
    if (!heap_.empty()) return true;
  }
}

void TimerWheel::drop_cancelled_tops() {
  while (!heap_.empty() && heap_.front()->cancelled) {
    std::pop_heap(heap_.begin(), heap_.end(), DueLater{});
    free_node(heap_.back());
    heap_.pop_back();
  }
}

bool TimerWheel::prime(TimePoint limit) {
  const uint64_t bound =
      limit.ns < 0 ? 0 : static_cast<uint64_t>(limit.ns);
  for (;;) {
    drop_cancelled_tops();
    if (!heap_.empty()) {
      // Heap events are all < active_end_ <= every wheel/overflow
      // event, so the heap top is the global minimum.
      return heap_.front()->time <= bound;
    }
    if (pending_ == 0) return false;
    if (!advance(bound)) return false;
  }
}

void TimerWheel::run_top() {
  assert(!heap_.empty() && !heap_.front()->cancelled);
  std::pop_heap(heap_.begin(), heap_.end(), DueLater{});
  Node* n = heap_.back();
  heap_.pop_back();
  --pending_;
  ++stats_.fired;
  // Run in place. The node is on neither the heap nor the freelist, so
  // whatever the handler schedules lands in other nodes, and the bumped
  // generation makes the handler's own id stale (cancelling it is a
  // no-op). free_node then destroys the closure — releasing any frames it
  // pins — before the next event runs.
  ++n->gen;
  n->fn();
  free_node(n);
}

}  // namespace marea::sim
