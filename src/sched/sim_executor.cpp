#include "sched/sim_executor.h"

#include <cassert>

namespace marea::sched {

void SimExecutor::post(Priority priority, Task task, Duration cost) {
  assert(task);
  RingQueue<Queued>& queue =
      fifo_ ? fifo_queue_ : queues_[static_cast<size_t>(priority)];
  queue.emplace_back(std::move(task), cost, sim_.now(), next_seq_++, priority);
  if (!busy_) dispatch();
}

TaskTimerId SimExecutor::schedule(Duration delay, Priority priority,
                                  Task task, Duration cost) {
  // Priority rides in the low byte of the cost word so the closure
  // ({this, packed, Task}) fits sim::EventFn inline: every timer re-arm
  // would otherwise heap-allocate.
  assert(cost.ns >= 0 && cost.ns < (int64_t{1} << 55));
  const uint64_t packed = (static_cast<uint64_t>(cost.ns) << 8) |
                          static_cast<uint8_t>(priority);
  auto fire = [this, packed, task = std::move(task)]() mutable {
    const auto p = static_cast<Priority>(packed & 0xFF);
    if (trace_) {
      trace_->record(sim_.now(), obs::TraceEvent::kTimer,
                     obs::TraceKind::kNone, trace_node_,
                     static_cast<uint64_t>(p));
    }
    post(p, std::move(task), Duration{static_cast<int64_t>(packed >> 8)});
  };
  static_assert(sim::EventFn::stores_inline<decltype(fire)>(),
                "timer closure outgrew sim::EventFn's inline buffer");
  return sim_.after(delay, std::move(fire));
}

void SimExecutor::cancel(TaskTimerId id) { sim_.cancel(id); }

bool SimExecutor::in_reserved_slot(TimePoint t, Priority p,
                                   Duration cost) const {
  return next_allowed_start(t, p, cost) > t;
}

TimePoint SimExecutor::next_allowed_start(TimePoint t, Priority p,
                                          Duration cost) const {
  if (slot_period_.ns <= 0 || p == Priority::kEvent) return t;
  // Reserved windows are [k*period, k*period + width). A non-event task
  // occupying [t, t+cost) must not intersect one — unless it could never
  // fit between windows, in which case it runs right after a window.
  const int64_t period = slot_period_.ns;
  const int64_t width = slot_width_.ns;
  const bool never_fits = cost.ns > period - width;
  int64_t k = t.ns / period;  // window at or before t
  for (int attempt = 0; attempt < 3; ++attempt, ++k) {
    int64_t wstart = k * period;
    int64_t wend = wstart + width;
    int64_t start = t.ns;
    if (start < wend && start + cost.ns > wstart) {
      // Overlaps window k: earliest conflict-free start is wend …
      if (never_fits) return TimePoint{wend};
      t = TimePoint{wend};
      continue;  // … but re-check against window k+1
    }
    if (start + cost.ns <= wstart || start >= wend) {
      // Check the *next* window too when the task spans past it.
      int64_t nstart = (k + 1) * period;
      if (start >= wend && start + cost.ns > nstart && !never_fits) {
        t = TimePoint{nstart + width};
        continue;
      }
      return t;
    }
  }
  return t;
}

void SimExecutor::dispatch() {
  if (busy_) return;

  RingQueue<Queued>* source = nullptr;
  TimePoint now = sim_.now();
  TimePoint earliest{INT64_MAX};

  if (fifo_) {
    if (fifo_queue_.empty()) return;
    source = &fifo_queue_;
    Queued& head = fifo_queue_.front();
    TimePoint allowed = next_allowed_start(now, head.priority, head.cost);
    if (allowed > now) {
      sim_.at(allowed, [this] { dispatch(); });
      return;
    }
  } else {
    for (auto& queue : queues_) {
      if (queue.empty()) continue;
      Queued& head = queue.front();
      TimePoint allowed = next_allowed_start(now, head.priority, head.cost);
      if (allowed <= now) {
        source = &queue;
        break;
      }
      if (allowed < earliest) earliest = allowed;
    }
    if (!source) {
      if (earliest.ns != INT64_MAX) {
        sim_.at(earliest, [this] { dispatch(); });
      }
      return;
    }
  }

  Queued& head = source->front();
  const size_t pri = static_cast<size_t>(head.priority);
  const Duration wait = now - head.enqueued;
  stats_.tasks_run++;
  stats_.count[pri]++;
  stats_.total_wait[pri] = stats_.total_wait[pri] + wait;
  if (wait > stats_.max_wait[pri]) stats_.max_wait[pri] = wait;

  // The task waits out its modelled cost in running_; the simulator
  // event carries only the completion callback.
  busy_ = true;
  running_ = std::move(head.task);
  const Duration cost = head.cost;
  source->pop_front();
  sim_.after(cost, [this] { finish(); });
}

void SimExecutor::finish() {
  running_();
  running_.reset();  // the task's captures go before the next dispatch
  busy_ = false;
  dispatch();
}

}  // namespace marea::sched
