#include "sched/thread_pool.h"

#include <cassert>

namespace marea::sched {

ThreadPoolExecutor::ThreadPoolExecutor(size_t workers, const Clock* clock)
    : clock_(clock ? clock : &default_clock_) {
  assert(workers > 0);
  workers_.reserve(workers);
  for (size_t i = 0; i < workers; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
  timer_thread_ = std::thread([this] { timer_loop(); });
}

ThreadPoolExecutor::~ThreadPoolExecutor() {
  {
    std::lock_guard lock(mutex_);
    stopping_ = true;
  }
  {
    std::lock_guard lock(timer_mutex_);
  }
  work_cv_.notify_all();
  timer_cv_.notify_all();
  for (auto& w : workers_) w.join();
  timer_thread_.join();
}

void ThreadPoolExecutor::post(Priority priority, Task task, Duration cost) {
  (void)cost;  // real handlers cost their own runtime
  assert(task);
  {
    std::lock_guard lock(mutex_);
    if (stopping_) return;
    queues_[static_cast<size_t>(priority)].emplace_back(std::move(task));
    ++queued_;
  }
  work_cv_.notify_one();
}

TaskTimerId ThreadPoolExecutor::schedule(Duration delay, Priority priority,
                                         Task task, Duration cost) {
  (void)cost;
  int64_t due = clock_->now().ns + delay.ns;
  TaskTimerId id;
  {
    std::lock_guard lock(timer_mutex_);
    id = next_timer_id_++;
    timers_.emplace(due, std::make_pair(id, Timed{priority, std::move(task)}));
  }
  timer_cv_.notify_one();
  return id;
}

void ThreadPoolExecutor::cancel(TaskTimerId id) {
  std::lock_guard lock(timer_mutex_);
  for (auto it = timers_.begin(); it != timers_.end(); ++it) {
    if (it->second.first == id) {
      timers_.erase(it);
      return;
    }
  }
}

void ThreadPoolExecutor::worker_loop() {
  while (true) {
    Task task;
    {
      std::unique_lock lock(mutex_);
      work_cv_.wait(lock, [this] { return stopping_ || queued_ > 0; });
      if (stopping_ && queued_ == 0) return;
      for (auto& queue : queues_) {  // strict priority order
        if (!queue.empty()) {
          task = std::move(queue.front());
          queue.pop_front();
          --queued_;
          break;
        }
      }
      if (!task) continue;
      ++active_;
    }
    task();
    tasks_run_.fetch_add(1);
    {
      std::lock_guard lock(mutex_);
      --active_;
    }
    idle_cv_.notify_all();
  }
}

void ThreadPoolExecutor::timer_loop() {
  std::unique_lock lock(timer_mutex_);
  while (true) {
    {
      std::lock_guard work_lock(mutex_);
      if (stopping_) return;
    }
    if (timers_.empty()) {
      timer_cv_.wait_for(lock, std::chrono::milliseconds(50));
      continue;
    }
    int64_t due = timers_.begin()->first;
    int64_t now = clock_->now().ns;
    if (now < due) {
      timer_cv_.wait_for(lock, std::chrono::nanoseconds(
                                   std::min<int64_t>(due - now, 50000000)));
      continue;
    }
    auto node = timers_.extract(timers_.begin());
    Timed timed = std::move(node.mapped().second);
    lock.unlock();
    post(timed.priority, std::move(timed.task), kDurationZero);
    lock.lock();
  }
}

void ThreadPoolExecutor::drain() {
  std::unique_lock lock(mutex_);
  idle_cv_.wait(lock, [this] { return queued_ == 0 && active_ == 0; });
}

}  // namespace marea::sched
