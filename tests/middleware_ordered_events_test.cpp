// Ordered event delivery QoS: under a reordering link, an ordered
// subscription sees publication order; an unordered one (the default, as
// in the paper) sees arrival order. Delivery stays exactly-once either way.
#include <gtest/gtest.h>

#include <memory>

#include "encoding/typed.h"
#include "middleware/domain.h"

namespace marea::mw {
namespace {

struct Seq {
  uint32_t n = 0;
};

}  // namespace
}  // namespace marea::mw

MAREA_REFLECT(marea::mw::Seq, n)

namespace marea::mw {
namespace {

class SeqPublisher final : public Service {
 public:
  SeqPublisher() : Service("seq_pub") {}
  Status on_start() override {
    auto h = provide_event<Seq>("seq.event");
    if (!h.ok()) return h.status();
    handle_ = *h;
    return Status::ok();
  }
  void burst(int count) {
    for (int i = 0; i < count; ++i) {
      Seq s;
      s.n = static_cast<uint32_t>(next_++);
      (void)handle_.publish(s);
    }
  }

 private:
  EventHandle handle_;
  int next_ = 1;
};

class SeqSubscriber final : public Service {
 public:
  SeqSubscriber(std::string name, EventQoS qos)
      : Service(std::move(name)), qos_(qos) {}
  Status on_start() override {
    return subscribe_event<Seq>(
        "seq.event",
        [this](const Seq& s, const EventInfo&) { seen.push_back(s.n); },
        qos_);
  }
  std::vector<uint32_t> seen;

 private:
  EventQoS qos_;
};

int inversions(const std::vector<uint32_t>& v) {
  int count = 0;
  for (size_t i = 1; i < v.size(); ++i) {
    if (v[i] < v[i - 1]) ++count;
  }
  return count;
}

struct OrderedWorld {
  SimDomain domain;
  SeqPublisher* pub = nullptr;
  SeqSubscriber* ordered = nullptr;
  SeqSubscriber* unordered = nullptr;

  explicit OrderedWorld(uint64_t seed, Duration reorder_delay)
      : domain(seed) {
    sim::LinkParams lp;
    lp.jitter = milliseconds(1);
    domain.network().set_default_link(lp);
    auto& n1 = domain.add_node("pub");
    auto p = std::make_unique<SeqPublisher>();
    pub = p.get();
    (void)n1.add_service(std::move(p));
    // Two separate subscriber NODES so each container applies its own QoS.
    auto& n2 = domain.add_node("ordered");
    auto o = std::make_unique<SeqSubscriber>("ordered_sub",
                                             EventQoS{.ordered = true});
    ordered = o.get();
    (void)n2.add_service(std::move(o));
    auto& n3 = domain.add_node("unordered");
    auto u = std::make_unique<SeqSubscriber>("unordered_sub", EventQoS{});
    unordered = u.get();
    (void)n3.add_service(std::move(u));
    if (reorder_delay.ns > 0) {
      // Jitter alone can no longer invert arrivals — the per-link FIFO
      // clamp keeps a variable-delay pipe order-preserving — so genuine
      // overtaking comes from the reorder fault, which adds its delay
      // after the clamp.
      sim::LinkFaults reorder;
      reorder.reorder = 0.3;
      reorder.reorder_delay = reorder_delay;
      domain.network().set_link_faults(domain.node_id(0), domain.node_id(1),
                                       reorder);
      domain.network().set_link_faults(domain.node_id(0), domain.node_id(2),
                                       reorder);
    }
    domain.start_all();
    domain.run_for(milliseconds(500));
  }
};

TEST(OrderedEventsTest, OrderedSubscriptionSeesPublicationOrder) {
  OrderedWorld w(61, milliseconds(3));  // heavy reordering
  for (int burst = 0; burst < 10; ++burst) {
    w.pub->burst(10);
    w.domain.run_for(milliseconds(20));
  }
  w.domain.run_for(seconds(2.0));

  // Exactly once for both.
  ASSERT_EQ(w.ordered->seen.size(), 100u);
  ASSERT_EQ(w.unordered->seen.size(), 100u);

  // The link genuinely reordered (the unordered subscriber proves it)...
  EXPECT_GT(inversions(w.unordered->seen), 0);
  // ...while the ordered subscription straightened it out.
  EXPECT_EQ(inversions(w.ordered->seen), 0);
  for (size_t i = 0; i < 100; ++i) {
    EXPECT_EQ(w.ordered->seen[i], i + 1);
  }
}

TEST(OrderedEventsTest, NoJitterNoDelayNoReordering) {
  OrderedWorld w(62, kDurationZero);
  w.pub->burst(20);
  w.domain.run_for(milliseconds(100));
  ASSERT_EQ(w.ordered->seen.size(), 20u);
  EXPECT_EQ(inversions(w.ordered->seen), 0);
}

TEST(OrderedEventsTest, ReorderWindowFlushBoundsLatency) {
  // Subscribe mid-stream: the first arrivals have unknown predecessors and
  // are held at most one reorder window, then flushed in order.
  SimDomain domain(63);
  auto& n1 = domain.add_node("pub");
  auto p = std::make_unique<SeqPublisher>();
  auto* pub = p.get();
  (void)n1.add_service(std::move(p));
  domain.start_all();
  domain.run_for(milliseconds(200));
  pub->burst(5);  // published before the subscriber exists
  domain.run_for(milliseconds(200));

  auto& n2 = domain.add_node("late");
  EventQoS qos;
  qos.ordered = true;
  qos.reorder_window = milliseconds(100);
  auto o = std::make_unique<SeqSubscriber>("late_sub", qos);
  auto* ordered = o.get();
  (void)n2.add_service(std::move(o));
  ASSERT_TRUE(n2.start().is_ok());
  domain.run_for(seconds(1.0));

  pub->burst(5);  // seqs 6..10, first seen seq is 6 (not 1)
  domain.run_for(seconds(1.0));
  ASSERT_EQ(ordered->seen.size(), 5u);
  EXPECT_EQ(inversions(ordered->seen), 0);
  EXPECT_EQ(ordered->seen.front(), 6u);
}

TEST(OrderedEventsTest, CrashWhileAFlushWaitsForTheCpu) {
  // A mid-stream join holds its first arrivals and arms the settling
  // flush. The flush fires while a long task holds the CPU, so it waits
  // in the run queue, and the node crashes before it runs: stop() erases
  // the subscription the flush captured.
  SimDomain domain(65);
  auto& n1 = domain.add_node("pub");
  auto p = std::make_unique<SeqPublisher>();
  auto* pub = p.get();
  (void)n1.add_service(std::move(p));
  auto& n2 = domain.add_node("late");
  EventQoS qos;
  qos.ordered = true;
  qos.reorder_window = milliseconds(100);
  auto o = std::make_unique<SeqSubscriber>("late_sub", qos);
  auto* ordered = o.get();
  (void)n2.add_service(std::move(o));
  ASSERT_TRUE(n1.start().is_ok());
  domain.run_for(milliseconds(200));
  pub->burst(5);  // seqs 1..5, before the subscriber exists
  domain.run_for(milliseconds(200));
  ASSERT_TRUE(n2.start().is_ok());
  domain.run_for(seconds(1.0));

  pub->burst(5);  // seqs 6..10: held, flush armed for 100 ms
  domain.run_for(milliseconds(50));
  domain.executor(1).post(sched::Priority::kBackground, [] {},
                          milliseconds(200));
  domain.run_for(milliseconds(100));  // the flush has fired, and waits
  domain.kill_node(1);
  domain.run_for(milliseconds(500));
  EXPECT_TRUE(ordered->seen.empty());
  EXPECT_FALSE(n2.running());

  // The node comes back as a fresh incarnation and follows the stream.
  domain.restart_node(1);
  domain.run_for(seconds(1.0));
  pub->burst(5);
  domain.run_for(seconds(1.0));
  EXPECT_EQ(ordered->seen.size(), 5u);
  EXPECT_EQ(inversions(ordered->seen), 0);
}

TEST(OrderedEventsTest, MixedQosOnOneContainerUpgradesToOrdered) {
  // Two services in one container, one asking ordered: the shared
  // container-level subscription upgrades, and both see ordered delivery.
  SimDomain domain(64);
  sim::LinkParams lp;
  lp.jitter = milliseconds(3);
  domain.network().set_default_link(lp);
  auto& n1 = domain.add_node("pub");
  auto p = std::make_unique<SeqPublisher>();
  auto* pub = p.get();
  (void)n1.add_service(std::move(p));
  auto& n2 = domain.add_node("subs");
  auto a = std::make_unique<SeqSubscriber>("plain", EventQoS{});
  auto* plain = a.get();
  (void)n2.add_service(std::move(a));
  auto b = std::make_unique<SeqSubscriber>("strict",
                                           EventQoS{.ordered = true});
  auto* strict = b.get();
  (void)n2.add_service(std::move(b));
  domain.start_all();
  domain.run_for(milliseconds(500));
  for (int i = 0; i < 10; ++i) {
    pub->burst(10);
    domain.run_for(milliseconds(20));
  }
  domain.run_for(seconds(2.0));
  ASSERT_EQ(plain->seen.size(), 100u);
  ASSERT_EQ(strict->seen.size(), 100u);
  EXPECT_EQ(inversions(strict->seen), 0);
  EXPECT_EQ(inversions(plain->seen), 0);  // upgraded alongside
}

}  // namespace
}  // namespace marea::mw
