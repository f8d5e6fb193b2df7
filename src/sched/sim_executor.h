// Deterministic executor over the discrete-event simulator, modelling one
// node's CPU: non-preemptive, highest-priority-first dispatch, FIFO within
// a priority, each task occupying the CPU for its modelled cost.
//
// Two knobs reproduce the paper's scheduling discussion:
//  * set_fifo(true) disables priorities (baseline for bench C9);
//  * reserve_event_slots(period, width) keeps periodic windows where only
//    kEvent tasks may *start* (paper §4.2: "Reservation of time slots in
//    both the processor and the network will ensure this critical
//    constraint").
#pragma once

#include <array>

#include "obs/trace.h"
#include "sched/executor.h"
#include "sim/simulator.h"
#include "util/ring_queue.h"

namespace marea::sched {

struct SimExecutorStats {
  uint64_t tasks_run = 0;
  // Sum of queue wait (post -> start), per priority class.
  std::array<Duration, kPriorityCount> total_wait{};
  std::array<uint64_t, kPriorityCount> count{};
  std::array<Duration, kPriorityCount> max_wait{};
};

class SimExecutor final : public Executor {
 public:
  explicit SimExecutor(sim::Simulator& sim) : sim_(sim) {}

  void set_fifo(bool fifo) { fifo_ = fifo; }
  void reserve_event_slots(Duration period, Duration width) {
    slot_period_ = period;
    slot_width_ = width;
  }

  void post(Priority priority, Task task, Duration cost = kDurationZero) override;
  TaskTimerId schedule(Duration delay, Priority priority, Task task,
                       Duration cost = kDurationZero) override;
  void cancel(TaskTimerId id) override;

  const Clock& clock() const override { return sim_; }

  const SimExecutorStats& stats() const { return stats_; }
  void reset_stats() { stats_ = SimExecutorStats{}; }

  // Tasks currently waiting for the CPU (all priority queues).
  size_t queued() const {
    size_t n = fifo_queue_.size();
    for (const auto& q : queues_) n += q.size();
    return n;
  }

  // Optional flight recorder: every scheduled timer that actually fires
  // is recorded as a kTimer event tagged with `node` (container id).
  void set_trace(obs::TraceRing* trace, uint32_t node) {
    trace_ = trace;
    trace_node_ = node;
  }

 private:
  struct Queued {
    Task task;
    Duration cost;
    TimePoint enqueued;
    uint64_t seq;
    Priority priority;
  };

  // Queues for post and for a fired timer, whose task moves straight into
  // its queue entry instead of through post's by-value parameter.
  void enqueue(Priority priority, Task&& task, Duration cost);
  void dispatch();
  // Completion of the task in running_: runs it in place, then frees the
  // CPU and dispatches the next one.
  void finish();
  bool in_reserved_slot(TimePoint t, Priority p, Duration cost) const;
  // Next instant a task of priority p (cost c) may start, >= t.
  TimePoint next_allowed_start(TimePoint t, Priority p, Duration cost) const;

  sim::Simulator& sim_;
  bool fifo_ = false;
  Duration slot_period_ = kDurationZero;  // 0 = no reservation
  Duration slot_width_ = kDurationZero;
  bool busy_ = false;
  // The one task holding the modelled CPU; it runs from here when its
  // cost has elapsed.
  Task running_;
  uint64_t next_seq_ = 1;
  std::array<RingQueue<Queued>, kPriorityCount> queues_;
  RingQueue<Queued> fifo_queue_;
  SimExecutorStats stats_;
  obs::TraceRing* trace_ = nullptr;
  uint32_t trace_node_ = 0;
};

}  // namespace marea::sched
