// Hierarchical timer wheel — the discrete-event engine under sim::Simulator.
//
// Layout: 8 levels of 64 slots. Level l has granularity 2^(10+6l) ns
// (level 0 ≈ 1 µs slots, ~65 µs span) and the ladder together covers
// ~9 years of virtual time; anything beyond parks in an overflow list.
// Each slot is an intrusive doubly-linked FIFO of pool-allocated nodes,
// and each level's occupancy is a single uint64 bitmap, so finding the
// next nonempty slot is a rotate + countr_zero.
//
// Exact ordering: a slot only bounds a time range, so expiring events
// are not run straight off the slot list. When the cursor reaches the
// earliest nonempty slot, the slot's nodes move into a small binary
// "due" heap ordered by exact (time, seq) — same-instant FIFO holds
// even across slot boundaries and through ladder cascades. Events that
// land inside the cursor's current slot (post(), short after()s) skip
// the wheel and go straight to the due heap.
//
// Costs: schedule and cancel are O(1) (bit ops + list splice; cancel
// unlinks in place — no tombstone set to grow). Popping is O(log m)
// where m is the population of the active ~1 µs slot, amortized O(1)
// per event for real workloads; cascading moves each node down the
// ladder at most kLevels-1 times over its whole lifetime.
//
// Build once, run in place: schedule() constructs the callable straight
// into its node, and run_top() invokes it there. The running node is off
// the heap and off the freelist, so nothing its handler schedules can
// reuse it; its generation is bumped before the call, so the handler's
// own id is already stale. The node (and whatever the closure captured)
// is released after the handler returns, before the next event runs.
//
// Cancellation safety: TimerIds encode (pool index, generation), so a
// stale id — already fired, already cancelled, or from a node since
// reused — is detected by a generation mismatch and ignored. Memory is
// bounded by the peak number of concurrently pending events (nodes
// recycle through a freelist; see allocated_nodes()).
#pragma once

#include <cstdint>
#include <deque>
#include <utility>
#include <vector>

#include "util/inline_fn.h"
#include "util/time.h"

namespace marea::sim {

// Sized so every closure the datapath schedules stays inline: packet
// deliveries ({this, endpoints, epoch, SharedFrame}), the executor's
// completion event ({this}) and the largest, its timer re-arm closure,
// which carries the sched::Task it will post when it fires. Oversized
// closures fall back to the heap transparently (and bump the InlineFn
// heap-fallback counter bench_hotpath gates at zero).
using EventFn = InlineFn<void(), 104>;
using TimerId = uint64_t;
constexpr TimerId kInvalidTimer = 0;

struct TimerWheelStats {
  uint64_t scheduled = 0;
  uint64_t fired = 0;
  uint64_t cancelled = 0;
  // Nodes moved down one ladder level when the cursor crossed their
  // coarse slot (each node cascades at most kLevels-1 times, ever).
  uint64_t cascaded = 0;
  // Events scheduled inside the cursor's current slot, bypassing the
  // wheel straight into the exact-order due heap.
  uint64_t direct_to_heap = 0;
  // Events beyond the ~9-year ladder horizon, parked in the overflow
  // list (kDurationInfinite watchdogs land here).
  uint64_t overflow_parked = 0;
};

class TimerWheel {
 public:
  TimerWheel() = default;
  TimerWheel(const TimerWheel&) = delete;
  TimerWheel& operator=(const TimerWheel&) = delete;
  ~TimerWheel();

  // `t` must be >= the last popped time; `seq` must be strictly
  // increasing across calls (the simulator passes its global sequence).
  // `fn` is built in place in the event's node.
  template <typename F>
  TimerId schedule(TimePoint t, uint64_t seq, F&& fn) {
    Node* n = alloc();
    n->fn.emplace(std::forward<F>(fn));
    return enqueue(n, t, seq);
  }

  // O(1); stale ids (fired/cancelled/reused) are ignored. Returns true
  // when a pending event was actually removed.
  bool cancel(TimerId id);

  // Positions the earliest pending event into the due heap, advancing
  // the cursor (cascading ladder slots) no further than `limit`.
  // Returns true when an event with time <= limit is ready to pop.
  bool prime(TimePoint limit);

  // Valid right after prime() returned true.
  TimePoint top_time() const {
    return TimePoint{static_cast<int64_t>(heap_.front()->time)};
  }

  // Removes the earliest due event (prime() must have returned true),
  // runs its callable in place in its node, then frees the node.
  void run_top();

  size_t pending() const { return pending_; }
  // High-water node count — bounded by peak concurrent timers, NOT by
  // schedule/cancel churn (the satellite regression test asserts this).
  size_t allocated_nodes() const { return pool_.size(); }
  const TimerWheelStats& stats() const { return stats_; }

 private:
  static constexpr int kSlotBits = 6;
  static constexpr uint64_t kSlots = 1ull << kSlotBits;  // 64
  static constexpr uint64_t kSlotMask = kSlots - 1;
  static constexpr int kLevels = 8;
  static constexpr int kBaseShift = 10;  // level-0 slot = 1024 ns
  static constexpr int kOverflowLevel = kLevels;

  static constexpr int shift(int level) {
    return kBaseShift + level * kSlotBits;
  }

  enum class Where : uint8_t { kFree, kWheel, kHeap, kOverflow };

  struct Node {
    uint64_t time = 0;  // ns, nonnegative
    uint64_t seq = 0;
    uint32_t gen = 0;
    uint32_t index = 0;  // position in pool_, fixed at construction
    Node* prev = nullptr;
    Node* next = nullptr;
    Where where = Where::kFree;
    bool cancelled = false;
    uint8_t level = 0;
    uint8_t slot = 0;
    EventFn fn;
  };

  struct Slot {
    Node* head = nullptr;
    Node* tail = nullptr;
  };

  struct DueLater {
    bool operator()(const Node* a, const Node* b) const {
      if (a->time != b->time) return a->time > b->time;
      return a->seq > b->seq;
    }
  };

  Node* alloc();
  TimerId enqueue(Node* n, TimePoint t, uint64_t seq);
  void free_node(Node* n);

  void place(Node* n);
  void push_due(Node* n);
  void unlink(Node* n);
  void append(Slot& s, Node* n);
  // Takes ownership of slot (level, idx): clears the list + bitmap bit
  // and returns the old head.
  Node* detach(int level, uint64_t idx);

  void move_cursor(uint64_t t);
  void activate(uint64_t idx);
  void cascade(int level, uint64_t idx);
  void settle();
  void drain_overflow();
  void drop_cancelled_tops();
  // Finds the earliest candidate slot (lower-bound time, level); level
  // kOverflowLevel means the overflow list. False when wheel+overflow
  // are empty.
  bool find_candidate(uint64_t* time, int* level) const;
  // Start of the nearest occupied slot after the cursor's at `level`
  // (whose occupancy must be nonzero).
  uint64_t next_slot_start(int level) const;
  bool advance(uint64_t limit);

  uint64_t cursor_ = 0;  // 1024-aligned, monotonic
  // End of the cursor's level-0 slot: events below this go straight to
  // the due heap, events at or above it into the wheel/overflow. All
  // wheel/overflow events are >= active_end_ (slots strictly after the
  // cursor), so the due-heap top is always the global minimum.
  uint64_t active_end_ = 1ull << kBaseShift;
  size_t pending_ = 0;
  uint64_t occupancy_[kLevels] = {};
  Slot slots_[kLevels][kSlots] = {};
  Slot overflow_;
  uint64_t overflow_min_ = UINT64_MAX;
  std::vector<Node*> heap_;  // due heap, exact (time, seq) min order
  std::deque<Node> pool_;    // stable addresses; nodes never destroyed
  Node* free_head_ = nullptr;
  TimerWheelStats stats_;
};

}  // namespace marea::sim
