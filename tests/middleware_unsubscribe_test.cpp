// Subscription lifecycle: unsubscribe for all three subscription kinds —
// per-service entry removal, provider-side cleanup, and wire silence after
// the last local subscriber leaves.
#include <gtest/gtest.h>

#include <memory>

#include "encoding/typed.h"
#include "middleware/domain.h"

namespace marea::mw {
namespace {

struct Num {
  int32_t v = 0;
};

}  // namespace
}  // namespace marea::mw

MAREA_REFLECT(marea::mw::Num, v)

namespace marea::mw {
namespace {

class Producer final : public Service {
 public:
  explicit Producer(Duration validity = seconds(5.0))
      : Service("producer"), validity_(validity) {}
  Status on_start() override {
    auto v = provide_variable<Num>("n.var", {.validity = validity_});
    if (!v.ok()) return v.status();
    var_ = *v;
    auto e = provide_event<Num>("n.event");
    if (!e.ok()) return e.status();
    event_ = *e;
    return Status::ok();
  }
  void emit(int n) {
    Num x;
    x.v = n;
    (void)var_.publish(x);
    (void)event_.publish(x);
  }
  void emit_var_only(int n) {
    Num x;
    x.v = n;
    (void)var_.publish(x);
  }

 private:
  Duration validity_;
  VariableHandle var_;
  EventHandle event_;
};

class Consumer final : public Service {
 public:
  explicit Consumer(std::string name) : Service(std::move(name)) {}
  Status on_start() override {
    Status s = subscribe_variable<Num>(
        "n.var", [this](const Num&, const SampleInfo&) { ++var_got; });
    if (!s.is_ok()) return s;
    return subscribe_event<Num>(
        "n.event", [this](const Num&, const EventInfo&) { ++event_got; });
  }
  Status drop_var() { return unsubscribe_variable("n.var"); }
  Status drop_event() { return unsubscribe_event("n.event"); }
  Status drop_event_named(const std::string& name) {
    return unsubscribe_event(name);
  }
  int var_got = 0;
  int event_got = 0;
};

struct World {
  SimDomain domain{91};
  Producer* producer = nullptr;
  Consumer* c1 = nullptr;
  Consumer* c2 = nullptr;

  explicit World(Duration validity = seconds(5.0)) {
    auto& n1 = domain.add_node("pub");
    auto p = std::make_unique<Producer>(validity);
    producer = p.get();
    (void)n1.add_service(std::move(p));
    auto& n2 = domain.add_node("subs");
    auto a = std::make_unique<Consumer>("c1");
    c1 = a.get();
    (void)n2.add_service(std::move(a));
    auto b = std::make_unique<Consumer>("c2");
    c2 = b.get();
    (void)n2.add_service(std::move(b));
    domain.start_all();
    domain.run_for(milliseconds(500));
  }
};

TEST(UnsubscribeTest, VariableEntryRemovalIsPerService) {
  World w;
  w.producer->emit(1);
  w.domain.run_for(milliseconds(100));
  EXPECT_EQ(w.c1->var_got, 1);
  EXPECT_EQ(w.c2->var_got, 1);

  ASSERT_TRUE(w.c1->drop_var().is_ok());
  w.producer->emit(2);
  w.domain.run_for(milliseconds(100));
  EXPECT_EQ(w.c1->var_got, 1);  // no longer delivered
  EXPECT_EQ(w.c2->var_got, 2);  // unaffected
}

TEST(UnsubscribeTest, LastVariableSubscriberSilencesTheWire) {
  World w;
  w.producer->emit(1);
  w.domain.run_for(milliseconds(100));
  ASSERT_TRUE(w.c1->drop_var().is_ok());
  ASSERT_TRUE(w.c2->drop_var().is_ok());
  w.domain.run_for(milliseconds(300));  // unsubscribe control propagates

  w.domain.network().reset_stats();
  // Idle baseline over the same horizon as the sample burst below.
  w.domain.run_for(milliseconds(300));
  uint64_t idle = w.domain.network().stats().bytes_sent;
  w.domain.network().reset_stats();
  for (int i = 0; i < 50; ++i) w.producer->emit_var_only(10 + i);
  w.domain.run_for(milliseconds(300));
  uint64_t with_publishing = w.domain.network().stats().bytes_sent;
  // Publishing with zero subscribers adds nothing beyond background
  // chatter (heartbeats/hellos fluctuate slightly).
  EXPECT_LT(with_publishing, idle + idle / 2 + 200);
  EXPECT_EQ(w.c1->var_got + w.c2->var_got, 2);
}

TEST(UnsubscribeTest, EventUnsubscribeStopsDelivery) {
  World w;
  w.producer->emit(1);
  w.domain.run_for(milliseconds(100));
  EXPECT_EQ(w.c1->event_got, 1);

  ASSERT_TRUE(w.c1->drop_event().is_ok());
  ASSERT_TRUE(w.c2->drop_event().is_ok());
  w.domain.run_for(milliseconds(300));
  w.producer->emit(2);
  w.domain.run_for(milliseconds(200));
  EXPECT_EQ(w.c1->event_got, 1);
  EXPECT_EQ(w.c2->event_got, 1);
  // The provider actually dropped the remote subscriber container (both
  // consumers share one node, so event #1 cost a single reliable send and
  // event #2 cost none).
  EXPECT_EQ(w.domain.container(0).stats().events_sent, 1u);
}

TEST(UnsubscribeTest, VariableUnsubscribeWhileItsDeadlineWaitsForTheCpu) {
  // The subscription's deadline is the provider's 20 ms validity, and
  // nothing is published, so its deadline timer re-arms every 20 ms.
  World w(milliseconds(20));
  const uint64_t warnings = w.domain.container(1).stats().var_timeout_warnings;
  // A task holding the subscriber's CPU for 50 ms: the deadline timer
  // fires meanwhile and waits behind it, past the reach of cancel, and
  // then the task drops the last local subscriber, erasing the entry the
  // timer captured.
  Status drop1, drop2;
  w.domain.executor(1).post(
      sched::Priority::kBackground,
      [&] {
        drop1 = w.c1->drop_var();
        drop2 = w.c2->drop_var();
      },
      milliseconds(50));
  w.domain.run_for(milliseconds(200));
  EXPECT_TRUE(drop1.is_ok());
  EXPECT_TRUE(drop2.is_ok());
  EXPECT_EQ(w.domain.container(1).stats().var_timeout_warnings, warnings);
  // The container carries on: events still flow to both consumers.
  w.producer->emit(1);
  w.domain.run_for(milliseconds(100));
  EXPECT_EQ(w.c1->event_got, 1);
  EXPECT_EQ(w.c2->event_got, 1);
}

TEST(UnsubscribeTest, ErrorsOnUnknownOrForeignSubscription) {
  World w;
  EXPECT_EQ(w.c1->drop_var().code(), StatusCode::kOk);
  EXPECT_EQ(w.c1->drop_var().code(), StatusCode::kNotFound);  // already gone
  Status s = w.c1->drop_event_named("never.subscribed");
  EXPECT_EQ(s.code(), StatusCode::kNotFound);
}

TEST(UnsubscribeTest, FileUnsubscribeStopsRevisionFollowing) {
  SimDomain domain(92);
  class Pub final : public Service {
   public:
    Pub() : Service("fpub") {}
    Status on_start() override { return Status::ok(); }
    void publish(uint8_t fill) {
      (void)publish_file("doc", Buffer(4000, fill));
    }
  };
  class Sub final : public Service {
   public:
    Sub() : Service("fsub") {}
    Status on_start() override {
      return subscribe_file(
          "doc", [this](const proto::FileMeta&, const Buffer&) { ++done; });
    }
    Status drop() { return unsubscribe_file("doc"); }
    int done = 0;
  };
  auto& n1 = domain.add_node("pub");
  auto pub = std::make_unique<Pub>();
  auto* pub_ptr = pub.get();
  (void)n1.add_service(std::move(pub));
  auto& n2 = domain.add_node("sub");
  auto sub = std::make_unique<Sub>();
  auto* sub_ptr = sub.get();
  (void)n2.add_service(std::move(sub));
  domain.start_all();
  domain.run_for(milliseconds(300));

  pub_ptr->publish(1);
  domain.run_for(seconds(2.0));
  EXPECT_EQ(sub_ptr->done, 1);

  ASSERT_TRUE(sub_ptr->drop().is_ok());
  domain.run_for(milliseconds(300));
  pub_ptr->publish(2);  // new revision
  domain.run_for(seconds(2.0));
  EXPECT_EQ(sub_ptr->done, 1);  // not delivered anymore
}

// A service that unsubscribes itself from inside its own handler, which
// runs inside the container's walk over that subscription's services.
class Leaver final : public Service {
 public:
  Leaver(std::string name, EventQoS qos = {})
      : Service(std::move(name)), qos_(qos) {}
  Status on_start() override {
    Status s = subscribe_event<Num>(
        "n.event",
        [this](const Num&, const EventInfo&) {
          ++event_got;
          left_event = unsubscribe_event("n.event");
        },
        qos_);
    if (!s.is_ok()) return s;
    return subscribe_variable<Num>(
        "n.var", [this](const Num&, const SampleInfo&) { ++var_got; },
        [this](Duration) {
          ++timeouts;
          left_var = unsubscribe_variable("n.var");
        });
  }
  int event_got = 0;
  int var_got = 0;
  int timeouts = 0;
  Status left_event = internal_error("handler never ran");
  Status left_var = internal_error("timeout handler never ran");

 private:
  EventQoS qos_;
};

size_t handler_crashes(SimDomain& domain) {
  size_t n = 0;
  for (const auto& r : domain.obs().trace.snapshot()) {
    n += r.event == static_cast<uint16_t>(obs::TraceEvent::kHandlerCrash);
  }
  return n;
}

struct LeaverWorld {
  SimDomain domain{93};
  Producer* producer = nullptr;
  Leaver* first = nullptr;
  Consumer* second = nullptr;

  // `second_leaves`: the second service is a Leaver too, so the first
  // delivery empties the subscription from inside its own walk.
  LeaverWorld(EventQoS qos, bool second_leaves, Duration validity) {
    auto& n1 = domain.add_node("pub");
    auto p = std::make_unique<Producer>(validity);
    producer = p.get();
    (void)n1.add_service(std::move(p));
    auto& n2 = domain.add_node("subs");
    auto a = std::make_unique<Leaver>("first", qos);
    first = a.get();
    (void)n2.add_service(std::move(a));
    if (second_leaves) {
      (void)n2.add_service(std::make_unique<Leaver>("second", qos));
    } else {
      auto b = std::make_unique<Consumer>("second");
      second = b.get();
      (void)n2.add_service(std::move(b));
    }
    domain.start_all();
    domain.run_for(milliseconds(500));
  }
};

TEST(UnsubscribeTest, HandlerUnsubscribingLeavesLaterSubscribersServed) {
  LeaverWorld w({}, /*second_leaves=*/false, seconds(5.0));
  w.producer->emit(1);
  w.domain.run_for(milliseconds(100));
  EXPECT_TRUE(w.first->left_event.is_ok()) << w.first->left_event.to_string();
  EXPECT_EQ(w.first->event_got, 1);
  EXPECT_EQ(w.second->event_got, 1);  // its entry shifted into the slot
  w.producer->emit(2);
  w.domain.run_for(milliseconds(100));
  EXPECT_EQ(w.first->event_got, 1);
  EXPECT_EQ(w.second->event_got, 2);
  EXPECT_EQ(handler_crashes(w.domain), 0u);
}

TEST(UnsubscribeTest, OrderedSubscriptionEmptiedByItsOwnHandlers) {
  // Both services leave on the first event: the subscription, and the
  // ordered stream state that delivered it, must outlive the walk; the
  // resubscribe tick then retires it and tells the publisher.
  EventQoS ordered;
  ordered.ordered = true;
  LeaverWorld w(ordered, /*second_leaves=*/true, seconds(5.0));
  w.producer->emit(1);
  w.producer->emit(2);
  w.domain.run_for(milliseconds(100));
  EXPECT_TRUE(w.first->left_event.is_ok()) << w.first->left_event.to_string();
  EXPECT_EQ(w.first->event_got, 1);
  EXPECT_EQ(handler_crashes(w.domain), 0u);

  w.domain.run_for(milliseconds(500));  // retired; unsubscribe delivered
  const uint64_t sent = w.domain.container(0).stats().events_sent;
  w.producer->emit(3);
  w.domain.run_for(milliseconds(100));
  EXPECT_EQ(w.domain.container(0).stats().events_sent, sent);
  EXPECT_EQ(w.first->event_got, 1);
}

TEST(UnsubscribeTest, DeadlineHandlersUnsubscribingDuringTheirWalk) {
  // Both services drop the variable from their timeout handlers, so the
  // walk over the subscription's timeout handlers empties it.
  LeaverWorld w({}, /*second_leaves=*/true, milliseconds(20));
  w.producer->emit_var_only(1);
  w.domain.run_for(milliseconds(100));
  EXPECT_EQ(w.first->var_got, 1);
  EXPECT_EQ(w.first->timeouts, 1);
  EXPECT_TRUE(w.first->left_var.is_ok()) << w.first->left_var.to_string();
  EXPECT_EQ(handler_crashes(w.domain), 0u);
  w.domain.run_for(milliseconds(500));
  w.producer->emit_var_only(2);
  w.domain.run_for(milliseconds(100));
  EXPECT_EQ(w.first->var_got, 1);
  EXPECT_EQ(w.first->timeouts, 1);
  EXPECT_EQ(handler_crashes(w.domain), 0u);
}

}  // namespace
}  // namespace marea::mw
