#include <gtest/gtest.h>

#include <cstring>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "sim/network.h"
#include "sim/simulator.h"

namespace marea::sim {
namespace {

// --- Simulator ----------------------------------------------------------------

TEST(SimulatorTest, RunsEventsInTimeOrder) {
  Simulator sim;
  std::vector<int> order;
  sim.at(TimePoint{300}, [&] { order.push_back(3); });
  sim.at(TimePoint{100}, [&] { order.push_back(1); });
  sim.at(TimePoint{200}, [&] { order.push_back(2); });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(sim.now().ns, 300);
}

TEST(SimulatorTest, SameInstantIsFifo) {
  Simulator sim;
  std::vector<int> order;
  for (int i = 0; i < 5; ++i) {
    sim.at(TimePoint{100}, [&, i] { order.push_back(i); });
  }
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(SimulatorTest, CancelPreventsExecution) {
  Simulator sim;
  bool ran = false;
  TimerId id = sim.after(milliseconds(1), [&] { ran = true; });
  sim.cancel(id);
  sim.run();
  EXPECT_FALSE(ran);
  EXPECT_EQ(sim.pending(), 0u);
}

TEST(SimulatorTest, RunUntilAdvancesClockEvenWithoutEvents) {
  Simulator sim;
  sim.run_until(TimePoint{5000});
  EXPECT_EQ(sim.now().ns, 5000);
}

TEST(SimulatorTest, RunUntilExecutesOnlyDueEvents) {
  Simulator sim;
  int count = 0;
  sim.at(TimePoint{100}, [&] { ++count; });
  sim.at(TimePoint{200}, [&] { ++count; });
  sim.run_until(TimePoint{150});
  EXPECT_EQ(count, 1);
  EXPECT_EQ(sim.now().ns, 150);
  sim.run();
  EXPECT_EQ(count, 2);
}

TEST(SimulatorTest, EventsCanScheduleEvents) {
  Simulator sim;
  int depth = 0;
  std::function<void()> recurse = [&] {
    if (++depth < 10) sim.after(microseconds(10), recurse);
  };
  sim.post(recurse);
  sim.run();
  EXPECT_EQ(depth, 10);
  EXPECT_EQ(sim.now().ns, 9 * 10000);
}

TEST(SimulatorTest, PastSchedulingClampsToNow) {
  Simulator sim;
  sim.run_until(TimePoint{1000});
  bool ran = false;
  sim.at(TimePoint{1}, [&] { ran = true; });  // in the past
  sim.run();
  EXPECT_TRUE(ran);
  EXPECT_EQ(sim.now().ns, 1000);
}

TEST(SimulatorTest, SafetyCapStopsRunaway) {
  Simulator sim;
  std::function<void()> forever = [&] { sim.post(forever); };
  sim.post(forever);
  sim.run(/*safety_cap=*/100);
  EXPECT_EQ(sim.events_executed(), 100u);
}

// --- Timer-wheel engine edge cases -------------------------------------------

TEST(SimulatorTest, SameInstantFifoAcrossSlotBoundaries) {
  // Events at the same instant keep scheduling order even when the
  // instant sits on a wheel-slot edge (1024-aligned), one ns before,
  // and one ns after — and regardless of interleaved later events.
  for (int64_t base : {1024 * 7, 1024 * 7 - 1, 1024 * 7 + 1, 65536, 65535}) {
    Simulator sim;
    std::vector<int> order;
    for (int i = 0; i < 8; ++i) {
      sim.at(TimePoint{base}, [&, i] { order.push_back(i); });
      sim.at(TimePoint{base + 100000 + i}, [] {});  // coarser-slot noise
    }
    sim.run_until(TimePoint{base});
    EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4, 5, 6, 7}))
        << "base=" << base;
  }
}

TEST(SimulatorTest, CancelOfAlreadyFiredIdIsNoOp) {
  Simulator sim;
  int fired = 0;
  TimerId first = sim.at(TimePoint{100}, [&] { ++fired; });
  sim.run();
  ASSERT_EQ(fired, 1);
  // The node behind `first` is recycled by the next schedule; the stale
  // id must not cancel the new event (generation check).
  sim.cancel(first);
  TimerId second = sim.at(TimePoint{200}, [&] { ++fired; });
  sim.cancel(first);  // stale again, now aliased to a live node's slot
  sim.run();
  EXPECT_EQ(fired, 2);
  sim.cancel(second);  // fired id: also a no-op
  EXPECT_EQ(sim.pending(), 0u);
}

TEST(SimulatorTest, TimerScheduledAtNowRunsThisInstant) {
  Simulator sim;
  sim.run_until(TimePoint{5000});
  std::vector<int> order;
  sim.at(sim.now(), [&] {
    order.push_back(1);
    // Scheduled mid-pop at the current instant: still runs, after
    // already-queued same-instant events.
    sim.at(sim.now(), [&] { order.push_back(3); });
  });
  sim.post([&] { order.push_back(2); });
  sim.run_until(sim.now());
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(sim.now().ns, 5000);
}

TEST(SimulatorTest, FarFutureEventPromotedFromOverflowLadder) {
  Simulator sim;
  std::vector<int> order;
  // Beyond the ladder horizon (~9 years): parks in the overflow list.
  const int64_t far = int64_t{1} << 60;
  sim.at(TimePoint{far}, [&] { order.push_back(2); });
  sim.at(TimePoint{far}, [&] { order.push_back(3); });
  sim.at(TimePoint{1000}, [&] { order.push_back(1); });
  EXPECT_GE(sim.engine_stats().overflow_parked, 2u);
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(sim.now().ns, far);

  // An infinite-delay watchdog saturates instead of wrapping: it stays
  // pending across a long run rather than firing immediately.
  bool watchdog = false;
  sim.after(kDurationInfinite, [&] { watchdog = true; });
  sim.run_for(milliseconds(100));
  EXPECT_FALSE(watchdog);
  EXPECT_EQ(sim.pending(), 1u);
}

TEST(SimulatorTest, OverflowEventNotSkippedByNearerLevel0Slots) {
  // A parks in the overflow list and stays there while a chain of
  // in-ladder hops walks the cursor up to it. Once the cursor shares A's
  // level-1 slot, B and C sit in level-0 slots on either side of A: the
  // wheel must drain the overflow list before it reaches C's slot.
  Simulator sim;
  const int64_t edge = int64_t{1} << 60;
  const int64_t hop = int64_t{1} << 57;  // inside the ~9-year ladder
  std::vector<char> order;
  sim.at(TimePoint{edge + 5000}, [&] { order.push_back('A'); });
  std::function<void()> step = [&] {
    const int64_t next = sim.now().ns + hop;
    if (next < edge - hop) {
      sim.at(TimePoint{next}, step);
      return;
    }
    sim.at(TimePoint{edge - 100}, [&] {
      sim.at(TimePoint{edge + 1000}, [&] { order.push_back('B'); });
      sim.at(TimePoint{edge + 9000}, [&] { order.push_back('C'); });
    });
  };
  sim.at(TimePoint{hop}, step);
  sim.run();
  EXPECT_EQ(order, (std::vector<char>{'B', 'A', 'C'}));
}

TEST(SimulatorTest, RunUntilLandingExactlyOnSlotEdge) {
  Simulator sim;
  int fired = 0;
  // 65536 is simultaneously a level-0 and level-1 slot boundary; events
  // on the edge are due at run_until(edge), one ns later is not.
  sim.at(TimePoint{65536}, [&] { ++fired; });
  sim.at(TimePoint{65537}, [&] { ++fired; });
  sim.run_until(TimePoint{65535});
  EXPECT_EQ(fired, 0);
  sim.run_until(TimePoint{65536});
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(sim.now().ns, 65536);
  sim.run_until(TimePoint{65537});
  EXPECT_EQ(fired, 2);
}

TEST(SimulatorTest, ScheduleCancelChurnDoesNotGrowMemory) {
  // Regression for the old engine's tombstone leak: cancelled far-future
  // ids accumulated in an unordered_set until popped (never, for churn),
  // and pending() underflowed. The wheel cancels in place and recycles
  // nodes, so the pool high-water mark is bounded by peak concurrency.
  Simulator sim;
  constexpr int kLive = 64;
  std::vector<TimerId> ids;
  for (int i = 0; i < kLive; ++i) {
    ids.push_back(sim.after(seconds(3600.0), [] {}));
  }
  for (int round = 0; round < 100'000; ++round) {
    sim.cancel(ids[static_cast<size_t>(round) % kLive]);
    ids[static_cast<size_t>(round) % kLive] =
        sim.after(seconds(3600.0) + nanoseconds(round), [] {});
  }
  EXPECT_EQ(sim.pending(), static_cast<size_t>(kLive));
  // Bounded: peak live timers (+ a small constant), not 100k churned.
  EXPECT_LE(sim.allocated_timer_nodes(), static_cast<size_t>(kLive + 8));
  EXPECT_EQ(sim.engine_stats().cancelled, 100'000u);
  for (TimerId id : ids) sim.cancel(id);
  EXPECT_EQ(sim.pending(), 0u);
  sim.run();
  EXPECT_EQ(sim.events_executed(), 0u);
}

// --- Engine rules: a callable runs in place in its node ------------------------

TEST(SimulatorTest, HandlerCancellingItsOwnIdIsNoOp) {
  Simulator sim;
  TimerId self = kInvalidTimer;
  int later = 0;
  size_t pending_before = 0;
  size_t pending_after = 0;
  self = sim.at(TimePoint{100}, [&] {
    pending_before = sim.pending();
    sim.cancel(self);
    pending_after = sim.pending();
  });
  sim.at(TimePoint{200}, [&] { ++later; });
  sim.run();
  EXPECT_EQ(pending_before, 1u);
  EXPECT_EQ(pending_after, pending_before);
  EXPECT_EQ(later, 1);
  EXPECT_EQ(sim.engine_stats().cancelled, 0u);
}

TEST(SimulatorTest, CapturedStateDiesAfterHandlerBeforeNextEvent) {
  Simulator sim;
  auto pinned = std::make_shared<int>(7);
  std::weak_ptr<int> watch = pinned;
  bool alive_in_handler = false;
  bool alive_in_next = true;
  sim.at(TimePoint{100}, [&, held = std::move(pinned)] {
    alive_in_handler = !watch.expired() && *held == 7;
  });
  // Same instant, scheduled second: the very next event to run.
  sim.at(TimePoint{100}, [&] { alive_in_next = !watch.expired(); });
  sim.run();
  EXPECT_TRUE(alive_in_handler);
  EXPECT_FALSE(alive_in_next);
}

TEST(SimulatorTest, HandlerSchedulingManyEventsKeepsItsOwnClosure) {
  // The running closure lives in its node; if a schedule from inside the
  // handler reused that node, the captures below would be destroyed and
  // overwritten mid-call.
  Simulator sim;
  constexpr int kFanout = 100;
  const std::string tag(64, 'r');
  std::vector<int> fired;
  bool intact = false;
  sim.at(TimePoint{1000}, [&, tag, data = std::vector<int>(16, 5)] {
    for (int i = 0; i < kFanout; ++i) {
      sim.after(nanoseconds(i % 3), [&fired, i, other = std::string(64, 'o')] {
        fired.push_back(i);
      });
    }
    intact = tag == std::string(64, 'r') &&
             data == std::vector<int>(16, 5);
  });
  sim.run();
  EXPECT_TRUE(intact);
  EXPECT_EQ(fired.size(), static_cast<size_t>(kFanout));
  EXPECT_EQ(sim.pending(), 0u);
}

// --- SimNetwork -----------------------------------------------------------------

// A receive handler that only counts deliveries.
SimNetwork::FrameHandler count_into(int& n) {
  return [&n](Endpoint, const SharedFrame&) { ++n; };
}

class NetworkTest : public ::testing::Test {
 protected:
  NetworkTest() : net_(sim_, Rng(1), LinkParams{}) {
    a_ = net_.add_node("a");
    b_ = net_.add_node("b");
    c_ = net_.add_node("c");
  }

  SharedFrame payload(size_t n = 10) {
    return net_.frame_pool().copy_in(Buffer(n, 0x42));
  }

  Simulator sim_;
  SimNetwork net_;
  NodeId a_, b_, c_;
};

TEST_F(NetworkTest, UnicastDeliversWithLatency) {
  LinkParams lp;
  lp.latency = milliseconds(2);
  net_.set_link(a_, b_, lp);
  net_.set_node_rate(a_, 0);  // no serialization delay

  TimePoint arrival{-1};
  ASSERT_TRUE(net_.bind_frames(Endpoint{b_, 1},
                               [&](Endpoint from, const SharedFrame& data) {
                                 arrival = sim_.now();
                                 EXPECT_EQ(from, (Endpoint{a_, 9}));
                                 EXPECT_EQ(data.size(), 10u);
                               })
                  .is_ok());
  ASSERT_TRUE(net_.send(Endpoint{a_, 9}, Endpoint{b_, 1}, payload()).is_ok());
  sim_.run();
  EXPECT_EQ(arrival.ns, milliseconds(2).ns);
}

TEST_F(NetworkTest, SerializationDelayDependsOnSize) {
  // 1 Mbps: 1000 bytes = 8 ms on the wire.
  net_.set_node_rate(a_, 1e6);
  TimePoint arrival{-1};
  (void)net_.bind_frames(Endpoint{b_, 1}, [&](Endpoint, const SharedFrame&) {
    arrival = sim_.now();
  });
  (void)net_.send(Endpoint{a_, 9}, Endpoint{b_, 1}, payload(1000));
  sim_.run();
  EXPECT_EQ(arrival.ns, (milliseconds(8) + microseconds(200)).ns);
}

TEST_F(NetworkTest, EgressQueueSerializesBackToBackSends) {
  net_.set_node_rate(a_, 1e6);
  std::vector<TimePoint> arrivals;
  (void)net_.bind_frames(Endpoint{b_, 1}, [&](Endpoint, const SharedFrame&) {
    arrivals.push_back(sim_.now());
  });
  for (int i = 0; i < 3; ++i) {
    (void)net_.send(Endpoint{a_, 9}, Endpoint{b_, 1}, payload(1000));
  }
  sim_.run();
  ASSERT_EQ(arrivals.size(), 3u);
  // Each packet leaves 8ms after the previous one.
  EXPECT_EQ((arrivals[1] - arrivals[0]).ns, milliseconds(8).ns);
  EXPECT_EQ((arrivals[2] - arrivals[1]).ns, milliseconds(8).ns);
}

TEST_F(NetworkTest, MulticastFanOutCountsWireBytesOnce) {
  GroupId group = 77;
  int deliveries = 0;
  (void)net_.bind_frames(Endpoint{b_, 1}, count_into(deliveries));
  (void)net_.bind_frames(Endpoint{c_, 1}, count_into(deliveries));
  ASSERT_TRUE(net_.join_group(group, Endpoint{b_, 1}).is_ok());
  ASSERT_TRUE(net_.join_group(group, Endpoint{c_, 1}).is_ok());

  ASSERT_TRUE(
      net_.send_multicast(Endpoint{a_, 9}, group, payload(100)).is_ok());
  sim_.run();
  EXPECT_EQ(deliveries, 2);
  EXPECT_EQ(net_.stats().packets_sent, 1u);   // one wire transmission
  EXPECT_EQ(net_.stats().bytes_sent, 100u);   // counted once
  EXPECT_EQ(net_.stats().packets_delivered, 2u);
}

TEST_F(NetworkTest, MulticastSkipsSenderEndpoint) {
  GroupId group = 5;
  int self_deliveries = 0;
  (void)net_.bind_frames(Endpoint{a_, 9}, count_into(self_deliveries));
  (void)net_.join_group(group, Endpoint{a_, 9});
  (void)net_.send_multicast(Endpoint{a_, 9}, group, payload());
  sim_.run();
  EXPECT_EQ(self_deliveries, 0);
}

TEST_F(NetworkTest, MulticastToCoLocatedMemberIsLocalDelivery) {
  GroupId group = 6;
  int deliveries = 0;
  (void)net_.bind_frames(Endpoint{a_, 2}, count_into(deliveries));
  (void)net_.join_group(group, Endpoint{a_, 2});
  (void)net_.bind_frames(Endpoint{b_, 2}, count_into(deliveries));
  (void)net_.join_group(group, Endpoint{b_, 2});
  (void)net_.send_multicast(Endpoint{a_, 9}, group, payload());
  sim_.run();
  EXPECT_EQ(deliveries, 2);
  EXPECT_EQ(net_.stats().local_packets, 1u);  // a:2 reached locally
}

TEST_F(NetworkTest, BroadcastReachesAllOtherNodes) {
  int deliveries = 0;
  (void)net_.bind_frames(Endpoint{b_, 4}, count_into(deliveries));
  (void)net_.bind_frames(Endpoint{c_, 4}, count_into(deliveries));
  (void)net_.bind_frames(Endpoint{a_, 4}, count_into(deliveries));
  (void)net_.send_broadcast(Endpoint{a_, 4}, 4, payload());
  sim_.run();
  EXPECT_EQ(deliveries, 2);  // not back to the sender's node
}

TEST_F(NetworkTest, LossDropsApproximatelyAtConfiguredRate) {
  LinkParams lossy;
  lossy.loss = 0.3;
  lossy.rate_bps = 0;
  net_.set_link(a_, b_, lossy);
  int delivered = 0;
  (void)net_.bind_frames(Endpoint{b_, 1}, count_into(delivered));
  const int kSends = 2000;
  for (int i = 0; i < kSends; ++i) {
    (void)net_.send(Endpoint{a_, 1}, Endpoint{b_, 1}, payload());
  }
  sim_.run();
  EXPECT_NEAR(delivered, kSends * 0.7, kSends * 0.05);
  EXPECT_EQ(net_.stats().packets_dropped,
            static_cast<uint64_t>(kSends - delivered));
}

TEST_F(NetworkTest, SameNodeDeliveryBypassesWire) {
  int delivered = 0;
  (void)net_.bind_frames(Endpoint{a_, 2}, count_into(delivered));
  (void)net_.send(Endpoint{a_, 1}, Endpoint{a_, 2}, payload());
  sim_.run();
  EXPECT_EQ(delivered, 1);
  EXPECT_EQ(net_.stats().packets_sent, 0u);
  EXPECT_EQ(net_.stats().local_packets, 1u);
}

TEST_F(NetworkTest, DownNodeNeitherSendsNorReceives) {
  int delivered = 0;
  (void)net_.bind_frames(Endpoint{b_, 1}, count_into(delivered));
  net_.set_node_up(b_, false);
  (void)net_.send(Endpoint{a_, 1}, Endpoint{b_, 1}, payload());
  sim_.run();
  EXPECT_EQ(delivered, 0);

  net_.set_node_up(a_, false);
  Status s = net_.send(Endpoint{a_, 1}, Endpoint{c_, 1}, payload());
  EXPECT_EQ(s.code(), StatusCode::kUnavailable);
}

TEST_F(NetworkTest, PacketInFlightToNodeThatDiesIsLost) {
  int delivered = 0;
  (void)net_.bind_frames(Endpoint{b_, 1}, count_into(delivered));
  (void)net_.send(Endpoint{a_, 1}, Endpoint{b_, 1}, payload());
  net_.set_node_up(b_, false);  // dies before arrival
  sim_.run();
  EXPECT_EQ(delivered, 0);
}

TEST_F(NetworkTest, MtuEnforced) {
  net_.set_mtu(100);
  Status s = net_.send(Endpoint{a_, 1}, Endpoint{b_, 1}, payload(101));
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  EXPECT_TRUE(
      net_.send(Endpoint{a_, 1}, Endpoint{b_, 1}, payload(100)).is_ok());
}

TEST_F(NetworkTest, DoubleBindRejected) {
  int ignored = 0;
  ASSERT_TRUE(net_.bind_frames(Endpoint{a_, 1}, count_into(ignored)).is_ok());
  EXPECT_EQ(net_.bind_frames(Endpoint{a_, 1}, count_into(ignored)).code(),
            StatusCode::kAlreadyExists);
  net_.unbind(Endpoint{a_, 1});
  EXPECT_TRUE(net_.bind_frames(Endpoint{a_, 1}, count_into(ignored)).is_ok());
}

TEST_F(NetworkTest, UnroutablePacketsCounted) {
  (void)net_.send(Endpoint{a_, 1}, Endpoint{b_, 55}, payload());
  sim_.run();
  EXPECT_EQ(net_.stats().packets_unroutable, 1u);
}

TEST_F(NetworkTest, LeaveGroupStopsDelivery) {
  GroupId group = 9;
  int delivered = 0;
  (void)net_.bind_frames(Endpoint{b_, 1}, count_into(delivered));
  (void)net_.join_group(group, Endpoint{b_, 1});
  (void)net_.send_multicast(Endpoint{a_, 1}, group, payload());
  sim_.run();
  EXPECT_EQ(delivered, 1);
  net_.leave_group(group, Endpoint{b_, 1});
  (void)net_.send_multicast(Endpoint{a_, 1}, group, payload());
  sim_.run();
  EXPECT_EQ(delivered, 1);
}

TEST_F(NetworkTest, JitterStaysWithinBounds) {
  LinkParams lp;
  lp.latency = milliseconds(1);
  lp.jitter = milliseconds(1);
  net_.set_link(a_, b_, lp);
  net_.set_node_rate(a_, 0);
  std::vector<int64_t> arrivals;
  (void)net_.bind_frames(Endpoint{b_, 1}, [&](Endpoint, const SharedFrame&) {
    arrivals.push_back(sim_.now().ns);
  });
  TimePoint base = sim_.now();
  for (int i = 0; i < 200; ++i) {
    (void)net_.send(Endpoint{a_, 1}, Endpoint{b_, 1}, payload());
  }
  sim_.run();
  for (int64_t t : arrivals) {
    EXPECT_GE(t - base.ns, milliseconds(1).ns);
    EXPECT_LE(t - base.ns, milliseconds(2).ns);
  }
}

TEST_F(NetworkTest, DeterministicAcrossRuns) {
  auto run_once = [](uint64_t seed) {
    Simulator sim;
    SimNetwork net(sim, Rng(seed), LinkParams{.loss = 0.5});
    NodeId a = net.add_node("a");
    NodeId b = net.add_node("b");
    int delivered = 0;
    (void)net.bind_frames(Endpoint{b, 1}, count_into(delivered));
    Buffer p(8, 1);
    for (int i = 0; i < 100; ++i) {
      (void)net.send(Endpoint{a, 1}, Endpoint{b, 1},
                     net.frame_pool().copy_in(p));
    }
    sim.run();
    return delivered;
  };
  EXPECT_EQ(run_once(42), run_once(42));
  EXPECT_NE(run_once(42), run_once(43));  // overwhelmingly likely
}

// Regression for the mid-run latency-change hazard: the RadioModel
// re-parametrizes links continuously, and a latency drop must never let
// a late packet overtake an earlier one on the same directed link. The
// sweep alternates 5 ms and 100 µs (with jitter) every tick while
// sending a numbered packet per tick; arrivals must stay FIFO.
TEST(SimNetworkFifoTest, LatencySweepKeepsPerLinkFifo) {
  Simulator sim;
  SimNetwork net(sim, Rng(7));
  NodeId a = net.add_node("a");
  NodeId b = net.add_node("b");
  std::vector<uint32_t> order;
  ASSERT_TRUE(net.bind_frames(Endpoint{b, 1},
                              [&](Endpoint, const SharedFrame& data) {
                                uint32_t seq = 0;
                                std::memcpy(&seq, data.view().data(),
                                            sizeof seq);
                                order.push_back(seq);
                              })
                  .is_ok());
  for (uint32_t i = 0; i < 200; ++i) {
    sim.at(TimePoint{milliseconds(1).ns * i}, [&net, &sim, a, b, i] {
      LinkParams lp;
      lp.latency = (i % 2 == 0) ? milliseconds(5) : microseconds(100);
      lp.jitter = microseconds(i % 3 == 0 ? 700 : 0);
      net.set_link(a, b, lp);
      Buffer payload(sizeof(uint32_t));
      std::memcpy(payload.data(), &i, sizeof i);
      (void)net.send(Endpoint{a, 1}, Endpoint{b, 1},
                     net.frame_pool().copy_in(payload));
      (void)sim;
    });
  }
  sim.run();
  ASSERT_EQ(order.size(), 200u);
  for (uint32_t i = 0; i < order.size(); ++i) EXPECT_EQ(order[i], i);
}

// The radio fault overlay is a separate slot: chaos cleanup must not
// clear it, and both overlays apply to the same packet stream.
TEST(SimNetworkFifoTest, RadioFaultOverlayComposesWithChaosOverlay) {
  Simulator sim;
  SimNetwork net(sim, Rng(11));
  NodeId a = net.add_node("a");
  NodeId b = net.add_node("b");
  int delivered = 0;
  ASSERT_TRUE(net.bind_frames(Endpoint{b, 1}, count_into(delivered)).is_ok());
  LinkFaults radio;
  radio.p_good_bad = 1.0;  // permanently bad channel
  radio.p_bad_good = 0.0;
  radio.loss_bad = 1.0;
  net.set_radio_faults(a, b, radio);
  net.clear_all_faults();  // chaos cleanup: radio overlay must survive
  Buffer p(8, 1);
  for (int i = 0; i < 20; ++i) {
    (void)net.send(Endpoint{a, 1}, Endpoint{b, 1}, net.frame_pool().copy_in(p));
  }
  sim.run();
  EXPECT_EQ(delivered, 0);
  net.clear_radio_faults(a, b);
  for (int i = 0; i < 20; ++i) {
    (void)net.send(Endpoint{a, 1}, Endpoint{b, 1}, net.frame_pool().copy_in(p));
  }
  sim.run();
  EXPECT_EQ(delivered, 20);
}

}  // namespace
}  // namespace marea::sim
