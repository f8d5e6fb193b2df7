// Service timers against container lifetime on real threads: a timer a
// service arms through Service::schedule must never run once its
// container, and with it the service, is gone, however the destruction
// interleaves with the timer thread and the worker. The container's own
// timers die with it too.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <thread>

#include "middleware/container.h"
#include "sched/sim_executor.h"
#include "sched/thread_pool.h"
#include "sim/network.h"
#include "transport/sim_transport.h"
#include "util/rng.h"

namespace marea::mw {
namespace {

// Re-arms itself every 0 or 1 ms and writes its own state on each tick,
// so a tick that outlives the service is a heap-use-after-free under
// ASan.
class Ticker final : public Service {
 public:
  explicit Ticker(std::atomic<uint64_t>& ticks)
      : Service("ticker"), ticks_(ticks) {}
  Status on_start() override {
    tick();
    return Status::ok();
  }

 private:
  void tick() {
    ++own_ticks_;
    ticks_.fetch_add(1, std::memory_order_relaxed);
    schedule(milliseconds(static_cast<int64_t>(own_ticks_ % 2)),
             [this] { tick(); });
  }

  std::atomic<uint64_t>& ticks_;
  uint64_t own_ticks_ = 0;
};

TEST(ServiceTimerLifetime, ContainerDestroyedWhileTimersFire) {
  std::atomic<uint64_t> ticks{0};
  Rng rng(1);
  for (int i = 0; i < 1000; ++i) {
    // The simulator never runs: it only queues the container's frames.
    sim::Simulator sim;
    sim::SimNetwork net(sim, Rng(static_cast<uint64_t>(i)));
    transport::SimTransport transport(net, net.add_node("n"));
    sched::ThreadPoolExecutor executor(1);
    {
      ServiceContainer container(ContainerConfig{}, transport, executor);
      ASSERT_TRUE(
          container.add_service(std::make_unique<Ticker>(ticks)).is_ok());
      std::atomic<bool> started{false};
      executor.post(sched::Priority::kBackground,
                    [&] { started = container.start().is_ok(); });
      executor.drain();
      ASSERT_TRUE(started.load());
      std::this_thread::sleep_for(
          std::chrono::microseconds(rng.next_u64() % 1000));
      if (i % 2 == 1) {
        // Half the rounds stop on the executor first, as a live node
        // does; the other half leave stop() to the destructor, which
        // closes the service-timer gate first. Only service timers are
        // gated; these rounds are safe off the executor only because no
        // container timer (100 ms and up) falls due within one.
        executor.post(sched::Priority::kBackground, [&] { container.stop(); });
        executor.drain();
      }
    }
    // The executor outlives the container, as in a live node: a tick
    // that escaped the container would fire in this window.
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  EXPECT_GE(ticks.load(), 1000u);
}

// Requires a function nobody provides, so the container arms its
// requirement re-check for the end of the start-up grace second.
class Requirer final : public Service {
 public:
  Requirer() : Service("requirer") {}
  Status on_start() override {
    (void)require_function("nobody.provides.this");
    return Status::ok();
  }
};

// The container's own timers die with it: one destroyed inside the grace
// window must not leave the requirement re-check to fire into freed
// memory a second later (a heap-use-after-free under ASan).
TEST(RequirementTimerLifetime, ContainerDestroyedInsideTheGraceWindow) {
  sim::Simulator sim;
  sim::SimNetwork net(sim, Rng(1));
  transport::SimTransport transport(net, net.add_node("n"));
  sched::SimExecutor executor(sim);
  int emergencies = 0;
  auto container = std::make_unique<ServiceContainer>(ContainerConfig{},
                                                      transport, executor);
  container->set_emergency_handler([&](const std::string&) { ++emergencies; });
  ASSERT_TRUE(container->add_service(std::make_unique<Requirer>()).is_ok());
  ASSERT_TRUE(container->start().is_ok());
  sim.run_for(milliseconds(100));
  container.reset();
  sim.run_for(seconds(2.0));
  EXPECT_EQ(emergencies, 0);
}

}  // namespace
}  // namespace marea::mw
