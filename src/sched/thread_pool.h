// Real-thread implementation of the paper's scheduler: "a simple thread
// pool with fixed priorities for each named primitive and relaying in
// standard system threads" (§6). Strict priority dispatch: a worker always
// takes from the highest non-empty queue; FIFO within a queue. A dedicated
// timer thread feeds delayed tasks back into the queues.
//
// Used by the live-UDP demo and the thread-pool unit tests; the simulated
// stack uses SimExecutor instead for determinism.
#pragma once

#include <array>
#include <atomic>
#include <condition_variable>
#include <map>
#include <mutex>
#include <thread>
#include <vector>

#include "sched/executor.h"
#include "util/ring_queue.h"

namespace marea::sched {

class ThreadPoolExecutor final : public Executor {
 public:
  explicit ThreadPoolExecutor(size_t workers = 2,
                              const Clock* clock = nullptr);
  ~ThreadPoolExecutor() override;

  ThreadPoolExecutor(const ThreadPoolExecutor&) = delete;
  ThreadPoolExecutor& operator=(const ThreadPoolExecutor&) = delete;

  void post(Priority priority, Task task, Duration cost = kDurationZero) override;
  TaskTimerId schedule(Duration delay, Priority priority, Task task,
                       Duration cost = kDurationZero) override;
  void cancel(TaskTimerId id) override;

  const Clock& clock() const override { return *clock_; }

  // Blocks until all queues are empty and all workers idle (tests).
  void drain();

  uint64_t tasks_run() const { return tasks_run_.load(); }

 private:
  void worker_loop();
  void timer_loop();

  SteadyClock default_clock_;
  const Clock* clock_;

  std::mutex mutex_;
  std::condition_variable work_cv_;
  std::condition_variable idle_cv_;
  std::array<RingQueue<Task>, kPriorityCount> queues_;
  size_t queued_ = 0;
  size_t active_ = 0;
  bool stopping_ = false;

  std::mutex timer_mutex_;
  std::condition_variable timer_cv_;
  struct Timed {
    Priority priority;
    Task task;
  };
  std::multimap<int64_t, std::pair<TaskTimerId, Timed>> timers_;
  TaskTimerId next_timer_id_ = 1;

  std::atomic<uint64_t> tasks_run_{0};
  std::vector<std::thread> workers_;
  std::thread timer_thread_;
};

}  // namespace marea::sched
