#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <vector>

#include "sched/sim_executor.h"
#include "sched/thread_pool.h"
#include "sim/simulator.h"
#include "util/ring_queue.h"

namespace marea::sched {
namespace {

// --- SimExecutor ----------------------------------------------------------------

TEST(SimExecutorTest, StrictPriorityOrder) {
  sim::Simulator sim;
  SimExecutor exec(sim);
  std::vector<Priority> order;
  // Occupy the CPU so posts queue up behind it.
  exec.post(Priority::kBackground, [] {}, milliseconds(1));
  exec.post(Priority::kFileTransfer,
            [&] { order.push_back(Priority::kFileTransfer); },
            microseconds(10));
  exec.post(Priority::kVariable,
            [&] { order.push_back(Priority::kVariable); }, microseconds(10));
  exec.post(Priority::kEvent, [&] { order.push_back(Priority::kEvent); },
            microseconds(10));
  exec.post(Priority::kRpc, [&] { order.push_back(Priority::kRpc); },
            microseconds(10));
  sim.run();
  EXPECT_EQ(order,
            (std::vector<Priority>{Priority::kEvent, Priority::kRpc,
                                   Priority::kVariable,
                                   Priority::kFileTransfer}));
}

TEST(SimExecutorTest, FifoWithinPriority) {
  sim::Simulator sim;
  SimExecutor exec(sim);
  std::vector<int> order;
  exec.post(Priority::kEvent, [] {}, milliseconds(1));
  for (int i = 0; i < 4; ++i) {
    exec.post(Priority::kEvent, [&, i] { order.push_back(i); });
  }
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3}));
}

TEST(SimExecutorTest, FifoModeIgnoresPriorities) {
  sim::Simulator sim;
  SimExecutor exec(sim);
  exec.set_fifo(true);
  std::vector<Priority> order;
  exec.post(Priority::kBackground, [] {}, milliseconds(1));
  exec.post(Priority::kFileTransfer,
            [&] { order.push_back(Priority::kFileTransfer); });
  exec.post(Priority::kEvent, [&] { order.push_back(Priority::kEvent); });
  sim.run();
  EXPECT_EQ(order, (std::vector<Priority>{Priority::kFileTransfer,
                                          Priority::kEvent}));
}

TEST(SimExecutorTest, CostOccupiesCpu) {
  sim::Simulator sim;
  SimExecutor exec(sim);
  TimePoint first_done{}, second_done{};
  exec.post(Priority::kEvent, [&] { first_done = sim.now(); },
            milliseconds(5));
  exec.post(Priority::kEvent, [&] { second_done = sim.now(); },
            milliseconds(3));
  sim.run();
  EXPECT_EQ(first_done.ns, milliseconds(5).ns);
  EXPECT_EQ(second_done.ns, milliseconds(8).ns);
}

TEST(SimExecutorTest, ScheduleDelaysExecution) {
  sim::Simulator sim;
  SimExecutor exec(sim);
  TimePoint ran{};
  exec.schedule(milliseconds(7), Priority::kEvent,
                [&] { ran = sim.now(); });
  sim.run();
  EXPECT_EQ(ran.ns, milliseconds(7).ns);
}

TEST(SimExecutorTest, CancelScheduled) {
  sim::Simulator sim;
  SimExecutor exec(sim);
  bool ran = false;
  TaskTimerId id = exec.schedule(milliseconds(1), Priority::kEvent,
                                 [&] { ran = true; });
  exec.cancel(id);
  sim.run();
  EXPECT_FALSE(ran);
}

TEST(SimExecutorTest, WaitStatsPerPriority) {
  sim::Simulator sim;
  SimExecutor exec(sim);
  exec.post(Priority::kEvent, [] {}, milliseconds(2));
  exec.post(Priority::kVariable, [] {}, milliseconds(1));
  sim.run();
  const auto& stats = exec.stats();
  EXPECT_EQ(stats.tasks_run, 2u);
  EXPECT_EQ(stats.count[static_cast<int>(Priority::kVariable)], 1u);
  // The variable task waited for the 2ms event task.
  EXPECT_EQ(stats.max_wait[static_cast<int>(Priority::kVariable)].ns,
            milliseconds(2).ns);
}

TEST(SimExecutorTest, ReservedSlotsDelayBulkWork) {
  sim::Simulator sim;
  SimExecutor exec(sim);
  // Reserve [0,1ms) of every 10ms for events.
  exec.reserve_event_slots(milliseconds(10), milliseconds(1));
  TimePoint bulk_started{};
  // At t=0 we're inside a reserved window; a 500us file task must wait
  // until the window ends at 1ms.
  exec.post(Priority::kFileTransfer, [&] { bulk_started = sim.now(); },
            microseconds(500));
  sim.run();
  EXPECT_EQ(bulk_started.ns, (milliseconds(1) + microseconds(500)).ns);
}

TEST(SimExecutorTest, ReservedSlotsAdmitEventsAlways) {
  sim::Simulator sim;
  SimExecutor exec(sim);
  exec.reserve_event_slots(milliseconds(10), milliseconds(1));
  TimePoint event_done{};
  exec.post(Priority::kEvent, [&] { event_done = sim.now(); },
            microseconds(100));
  sim.run();
  EXPECT_EQ(event_done.ns, microseconds(100).ns);
}

TEST(SimExecutorTest, TaskNotStartedIfItWouldOverrunIntoSlot) {
  sim::Simulator sim;
  SimExecutor exec(sim);
  exec.reserve_event_slots(milliseconds(10), milliseconds(1));
  // At t=5ms, a 6ms bulk task would overlap the window at 10ms: it must
  // wait until 11ms.
  sim.run_until(TimePoint{milliseconds(5).ns});
  TimePoint started{};
  exec.post(Priority::kFileTransfer,
            [&] { started = TimePoint{sim.now().ns - milliseconds(6).ns}; },
            milliseconds(6));
  sim.run();
  EXPECT_EQ(started.ns, milliseconds(11).ns);
}

// --- Relocation gate: a callable is built once and run where it waits ----------

// A closure that counts its own move-constructions. Call sites below hand
// it over as an lvalue, so building the first InlineFn is a copy and
// every move counted is a relocation of an already-built callable.
struct MoveCounted {
  int* moves;
  int* runs;
  MoveCounted(int* m, int* r) : moves(m), runs(r) {}
  MoveCounted(const MoveCounted&) = default;
  MoveCounted(MoveCounted&& o) noexcept : moves(o.moves), runs(o.runs) {
    ++*moves;
  }
  void operator()() const { ++*runs; }
};

TEST(RelocationGateTest, SimExecutorPostToRunRelocatesAtMostTwice) {
  sim::Simulator sim;
  SimExecutor exec(sim);
  int moves = 0;
  int runs = 0;
  const MoveCounted task(&moves, &runs);
  // Queue entry, then the running slot: nothing else may move it.
  exec.post(Priority::kVariable, task, microseconds(5));
  sim.run();
  EXPECT_EQ(runs, 1);
  EXPECT_LE(moves, 2);
}

TEST(RelocationGateTest, SimExecutorScheduleToRunRelocatesAtMostFour) {
  sim::Simulator sim;
  SimExecutor exec(sim);
  int moves = 0;
  int runs = 0;
  const MoveCounted task(&moves, &runs);
  // Fire closure, timer node, queue entry, then the running slot.
  exec.schedule(microseconds(5), Priority::kVariable, task, microseconds(5));
  sim.run();
  EXPECT_EQ(runs, 1);
  EXPECT_LE(moves, 4);
}

TEST(RelocationGateTest, SimulatorAtToRunRelocatesAtMostOnce) {
  sim::Simulator sim;
  int moves = 0;
  int runs = 0;
  const MoveCounted event(&moves, &runs);
  sim.at(TimePoint{microseconds(5).ns}, event);
  sim.run();
  EXPECT_EQ(runs, 1);
  EXPECT_LE(moves, 1);
}

// --- ThreadPoolExecutor -----------------------------------------------------------

TEST(ThreadPoolTest, RunsPostedTasks) {
  ThreadPoolExecutor pool(2);
  std::atomic<int> count{0};
  for (int i = 0; i < 100; ++i) {
    pool.post(Priority::kEvent, [&] { count.fetch_add(1); });
  }
  pool.drain();
  EXPECT_EQ(count.load(), 100);
  EXPECT_EQ(pool.tasks_run(), 100u);
}

TEST(ThreadPoolTest, HigherPriorityDrainsFirst) {
  ThreadPoolExecutor pool(1);
  std::atomic<bool> block{true};
  std::vector<Priority> order;
  std::mutex m;
  // Jam the single worker, then queue one low and one high task.
  pool.post(Priority::kEvent, [&] {
    while (block.load()) std::this_thread::yield();
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  pool.post(Priority::kFileTransfer, [&] {
    std::lock_guard lock(m);
    order.push_back(Priority::kFileTransfer);
  });
  pool.post(Priority::kEvent, [&] {
    std::lock_guard lock(m);
    order.push_back(Priority::kEvent);
  });
  block = false;
  pool.drain();
  ASSERT_EQ(order.size(), 2u);
  EXPECT_EQ(order[0], Priority::kEvent);
  EXPECT_EQ(order[1], Priority::kFileTransfer);
}

TEST(ThreadPoolTest, ScheduleFiresApproximatelyOnTime) {
  ThreadPoolExecutor pool(1);
  std::atomic<bool> ran{false};
  auto start = std::chrono::steady_clock::now();
  pool.schedule(milliseconds(50), Priority::kEvent, [&] { ran = true; });
  while (!ran.load() &&
         std::chrono::steady_clock::now() - start < std::chrono::seconds(2)) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_TRUE(ran.load());
  auto elapsed = std::chrono::steady_clock::now() - start;
  EXPECT_GE(elapsed, std::chrono::milliseconds(45));
}

TEST(ThreadPoolTest, CancelScheduledTask) {
  ThreadPoolExecutor pool(1);
  std::atomic<bool> ran{false};
  TaskTimerId id = pool.schedule(milliseconds(100), Priority::kEvent,
                                 [&] { ran = true; });
  pool.cancel(id);
  std::this_thread::sleep_for(std::chrono::milliseconds(250));
  EXPECT_FALSE(ran.load());
}

TEST(ThreadPoolTest, CleanShutdownWithPendingTimers) {
  std::atomic<int> count{0};
  {
    ThreadPoolExecutor pool(2);
    pool.schedule(seconds(30.0), Priority::kEvent, [&] { count++; });
    pool.post(Priority::kEvent, [&] { count++; });
    pool.drain();
  }  // destructor must not hang or fire the far timer
  EXPECT_EQ(count.load(), 1);
}

// --- RingQueue (both executors' task queues) -----------------------------------

TEST(RingQueueTest, WrapAroundKeepsFifoWithoutGrowing) {
  RingQueue<int> q;
  q.reserve(8);
  ASSERT_EQ(q.capacity(), 8u);
  // Turn the ring over many times at a depth below capacity: the head and
  // tail wrap, order holds, and the storage is never reallocated.
  int next_in = 0;
  int next_out = 0;
  for (int round = 0; round < 100; ++round) {
    for (int i = 0; i < 5; ++i) q.emplace_back(next_in++);
    for (int i = 0; i < 5; ++i) {
      ASSERT_EQ(q.front(), next_out++);
      q.pop_front();
    }
  }
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(q.capacity(), 8u);
}

TEST(RingQueueTest, GrowthWhileWrappedKeepsFifo) {
  RingQueue<std::unique_ptr<int>> q;  // move-only elements
  int next_in = 0;
  int next_out = 0;
  // Offset the head so the ring is wrapped when it has to grow.
  for (int i = 0; i < 6; ++i) q.emplace_back(std::make_unique<int>(next_in++));
  for (int i = 0; i < 4; ++i) {
    ASSERT_EQ(*q.front(), next_out++);
    q.pop_front();
  }
  for (int i = 0; i < 100; ++i) {
    q.emplace_back(std::make_unique<int>(next_in++));
  }
  EXPECT_EQ(q.size(), 102u);
  EXPECT_EQ(q.capacity(), 128u);  // powers of two only
  while (!q.empty()) {
    ASSERT_EQ(*q.front(), next_out++);
    q.pop_front();
  }
  EXPECT_EQ(next_out, next_in);
  EXPECT_EQ(q.capacity(), 128u);  // never shrinks
}

TEST(RingQueueTest, EmplaceBackBuildsInTheSlot) {
  RingQueue<MoveCounted> q;
  q.reserve(4);
  int moves = 0;
  int runs = 0;
  for (int i = 0; i < 4; ++i) q.emplace_back(&moves, &runs);
  EXPECT_EQ(moves, 0);
  while (!q.empty()) {
    q.front()();
    q.pop_front();
  }
  EXPECT_EQ(runs, 4);
}

TEST(RingQueueTest, PopAndClearReleaseElements) {
  auto tracked = std::make_shared<int>(7);
  RingQueue<std::shared_ptr<int>> q;
  q.emplace_back(tracked);
  q.emplace_back(tracked);
  EXPECT_EQ(tracked.use_count(), 3);
  q.pop_front();
  EXPECT_EQ(tracked.use_count(), 2);
  q.clear();
  EXPECT_EQ(tracked.use_count(), 1);
  q.emplace_back(tracked);  // still usable after clear
  EXPECT_EQ(*q.front(), 7);
}

}  // namespace
}  // namespace marea::sched
