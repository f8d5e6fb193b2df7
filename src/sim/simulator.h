// Discrete-event simulator: a virtual clock plus an ordered event queue.
//
// The whole middleware stack is written against Clock/Executor seams, so a
// multi-node avionics network runs deterministically in one process on
// virtual time. Ties at the same instant run in scheduling order (stable),
// which keeps replays bit-identical.
//
// The queue is a hierarchical timer wheel (see timer_wheel.h): O(1)
// schedule and cancel, exact (time, seq) pop order via a small due heap,
// and in-place cancellation — no tombstone set that grows with
// schedule/cancel churn. EventFn/TimerId live in timer_wheel.h; this
// header re-exports them so callers are unchanged.
#pragma once

#include <cstdint>
#include <utility>

#include "sim/timer_wheel.h"
#include "util/inline_fn.h"
#include "util/time.h"

namespace marea::sim {

class Simulator final : public Clock {
 public:
  Simulator() = default;
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  TimePoint now() const override { return now_; }

  // Schedules `fn` at absolute time `t` (clamped to now). Returns an id
  // usable with cancel(). The callable is forwarded to the timer wheel,
  // which builds it in the event's node and runs it there.
  template <typename F>
  TimerId at(TimePoint t, F&& fn) {
    if (t < now_) t = now_;
    return wheel_.schedule(t, next_seq_++, std::forward<F>(fn));
  }
  // Saturates instead of overflowing so after(kDurationInfinite) parks
  // at the far end of virtual time rather than wrapping into the past.
  template <typename F>
  TimerId after(Duration d, F&& fn) {
    const int64_t t = d.ns >= kDurationInfinite.ns - now_.ns
                          ? kDurationInfinite.ns
                          : now_.ns + d.ns;
    return at(TimePoint{t}, std::forward<F>(fn));
  }
  // Schedules immediately after currently-queued same-time events.
  template <typename F>
  TimerId post(F&& fn) {
    return at(now_, std::forward<F>(fn));
  }

  // Cancels a pending event in place, O(1). Safe to call with ids that
  // already fired (generation check makes stale ids a no-op).
  void cancel(TimerId id);

  // Runs the next event; returns false if the queue is empty.
  bool step();
  // Runs all events with time <= t, then sets now to t.
  void run_until(TimePoint t);
  void run_for(Duration d) { run_until(now_ + d); }
  // Runs until the queue is empty (or safety_cap events executed).
  void run(uint64_t safety_cap = UINT64_MAX);

  size_t pending() const { return wheel_.pending(); }
  uint64_t events_executed() const { return wheel_.stats().fired; }
  // Engine internals for metrics / regression tests: wheel counters and
  // the node high-water mark (bounded by peak concurrent timers).
  const TimerWheelStats& engine_stats() const { return wheel_.stats(); }
  size_t allocated_timer_nodes() const { return wheel_.allocated_nodes(); }

 private:
  bool pop_one(TimePoint limit);

  TimePoint now_{0};
  uint64_t next_seq_ = 1;
  TimerWheel wheel_;
};

}  // namespace marea::sim
