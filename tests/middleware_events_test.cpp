// Event primitive end-to-end: guaranteed delivery over lossy links,
// multiple subscribers, empty-payload events, latency metadata, schema
// enforcement, local dispatch, and the latency tail a lost event costs.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>

#include "encoding/typed.h"
#include "middleware/domain.h"

namespace marea::mw {
namespace {

struct AlarmEvent {
  uint32_t code = 0;
  std::string text;
};
struct Empty {};

}  // namespace
}  // namespace marea::mw

MAREA_REFLECT(marea::mw::AlarmEvent, code, text)

namespace marea::enc {
// Empty struct: reflect manually (the macro needs >= 1 field).
template <>
struct Reflect<marea::mw::Empty> {
  static constexpr const char* kName = "Empty";
  static constexpr size_t kFieldCount = 0;
  template <typename F>
  static void for_each_field(F&&) {}
};
}  // namespace marea::enc

namespace marea::mw {
namespace {

class AlarmPublisher final : public Service {
 public:
  AlarmPublisher() : Service("alarm_pub") {}
  Status on_start() override {
    auto h = provide_event<AlarmEvent>("alarm");
    if (!h.ok()) return h.status();
    handle_ = *h;
    auto tick = provide_event<Empty>("tick");
    if (!tick.ok()) return tick.status();
    tick_ = *tick;
    return Status::ok();
  }
  Status raise(uint32_t code, const std::string& text) {
    AlarmEvent e;
    e.code = code;
    e.text = text;
    return handle_.publish(e);
  }
  Status tick() { return tick_.publish(Empty{}); }

 private:
  EventHandle handle_;
  EventHandle tick_;
};

class AlarmSubscriber final : public Service {
 public:
  explicit AlarmSubscriber(std::string name = "alarm_sub")
      : Service(std::move(name)) {}
  Status on_start() override {
    Status s = subscribe_event<AlarmEvent>(
        "alarm", [this](const AlarmEvent& e, const EventInfo& info) {
          alarms.push_back(e);
          infos.push_back(info);
        });
    if (!s.is_ok()) return s;
    return subscribe_event<Empty>(
        "tick", [this](const Empty&, const EventInfo&) { ++ticks; });
  }
  std::vector<AlarmEvent> alarms;
  std::vector<EventInfo> infos;
  int ticks = 0;
};

TEST(EventsTest, DeliveredAcrossNodes) {
  SimDomain domain(21);
  auto& n1 = domain.add_node("pub");
  auto pub = std::make_unique<AlarmPublisher>();
  auto* pub_ptr = pub.get();
  (void)n1.add_service(std::move(pub));
  auto& n2 = domain.add_node("sub");
  auto sub = std::make_unique<AlarmSubscriber>();
  auto* sub_ptr = sub.get();
  (void)n2.add_service(std::move(sub));
  domain.start_all();
  domain.run_for(milliseconds(500));

  ASSERT_TRUE(pub_ptr->raise(7, "engine hot").is_ok());
  domain.run_for(milliseconds(100));
  ASSERT_EQ(sub_ptr->alarms.size(), 1u);
  EXPECT_EQ(sub_ptr->alarms[0].code, 7u);
  EXPECT_EQ(sub_ptr->alarms[0].text, "engine hot");
  EXPECT_GT(sub_ptr->infos[0].latency.ns, 0);
}

TEST(EventsTest, EmptyPayloadEventsWork) {
  SimDomain domain(22);
  auto& n1 = domain.add_node("pub");
  auto pub = std::make_unique<AlarmPublisher>();
  auto* pub_ptr = pub.get();
  (void)n1.add_service(std::move(pub));
  auto& n2 = domain.add_node("sub");
  auto sub = std::make_unique<AlarmSubscriber>();
  auto* sub_ptr = sub.get();
  (void)n2.add_service(std::move(sub));
  domain.start_all();
  domain.run_for(milliseconds(500));
  (void)pub_ptr->tick();
  (void)pub_ptr->tick();
  domain.run_for(milliseconds(100));
  EXPECT_EQ(sub_ptr->ticks, 2);
}

class EventsLossTest : public ::testing::TestWithParam<double> {};

TEST_P(EventsLossTest, GuaranteedDeliveryUnderLoss) {
  SimDomain domain(23);
  sim::LinkParams lp;
  lp.loss = GetParam();
  domain.network().set_default_link(lp);

  auto& n1 = domain.add_node("pub");
  auto pub = std::make_unique<AlarmPublisher>();
  auto* pub_ptr = pub.get();
  (void)n1.add_service(std::move(pub));
  auto& n2 = domain.add_node("sub");
  auto sub = std::make_unique<AlarmSubscriber>();
  auto* sub_ptr = sub.get();
  (void)n2.add_service(std::move(sub));
  domain.start_all();
  domain.run_for(seconds(2.0));  // lossy discovery needs retries

  const int kEvents = 40;
  for (int i = 0; i < kEvents; ++i) {
    ASSERT_TRUE(pub_ptr->raise(static_cast<uint32_t>(i), "e").is_ok());
  }
  domain.run_for(seconds(5.0));
  // Guaranteed delivery (§4.2): every event arrives exactly once.
  ASSERT_EQ(sub_ptr->alarms.size(), static_cast<size_t>(kEvents));
  std::set<uint32_t> codes;
  for (const auto& a : sub_ptr->alarms) codes.insert(a.code);
  EXPECT_EQ(codes.size(), static_cast<size_t>(kEvents));
}

INSTANTIATE_TEST_SUITE_P(LossRates, EventsLossTest,
                         ::testing::Values(0.0, 0.1, 0.3));

TEST(EventsTest, MultipleSubscribersAllReceive) {
  SimDomain domain(24);
  auto& n1 = domain.add_node("pub");
  auto pub = std::make_unique<AlarmPublisher>();
  auto* pub_ptr = pub.get();
  (void)n1.add_service(std::move(pub));
  std::vector<AlarmSubscriber*> subs;
  for (int i = 0; i < 4; ++i) {
    auto& n = domain.add_node("sub" + std::to_string(i));
    auto s = std::make_unique<AlarmSubscriber>("sub" + std::to_string(i));
    subs.push_back(s.get());
    (void)n.add_service(std::move(s));
  }
  domain.start_all();
  domain.run_for(milliseconds(500));
  (void)pub_ptr->raise(1, "x");
  domain.run_for(milliseconds(200));
  for (auto* s : subs) {
    ASSERT_EQ(s->alarms.size(), 1u);
  }
  // Events are per-subscriber reliable sends (not multicast).
  EXPECT_EQ(domain.container(0).stats().events_sent, 4u);
  EXPECT_EQ(domain.container(0).stats().events_published, 1u);
}

TEST(EventsTest, LocalSubscriberDispatchedWithoutNetwork) {
  SimDomain domain(25);
  auto& n1 = domain.add_node("solo");
  auto pub = std::make_unique<AlarmPublisher>();
  auto* pub_ptr = pub.get();
  (void)n1.add_service(std::move(pub));
  auto sub = std::make_unique<AlarmSubscriber>();
  auto* sub_ptr = sub.get();
  (void)n1.add_service(std::move(sub));
  domain.start_all();
  domain.run_for(milliseconds(100));
  domain.network().reset_stats();
  (void)pub_ptr->raise(3, "local");
  domain.run_for(milliseconds(50));
  ASSERT_EQ(sub_ptr->alarms.size(), 1u);
  EXPECT_EQ(domain.network().stats().bytes_sent, 0u);
}

TEST(EventsTest, SubscriberJoiningLateGetsSubsequentEventsOnly) {
  SimDomain domain(26);
  auto& n1 = domain.add_node("pub");
  auto pub = std::make_unique<AlarmPublisher>();
  auto* pub_ptr = pub.get();
  (void)n1.add_service(std::move(pub));
  domain.start_all();
  domain.run_for(milliseconds(200));
  (void)pub_ptr->raise(1, "before");  // nobody listening

  auto& n2 = domain.add_node("late");
  auto sub = std::make_unique<AlarmSubscriber>();
  auto* sub_ptr = sub.get();
  (void)n2.add_service(std::move(sub));
  ASSERT_TRUE(n2.start().is_ok());
  domain.run_for(seconds(1.0));
  (void)pub_ptr->raise(2, "after");
  domain.run_for(milliseconds(200));
  ASSERT_EQ(sub_ptr->alarms.size(), 1u);
  EXPECT_EQ(sub_ptr->alarms[0].code, 2u);
}

TEST(EventsTest, EventSeqIncreasesMonotonically) {
  SimDomain domain(27);
  auto& n1 = domain.add_node("pub");
  auto pub = std::make_unique<AlarmPublisher>();
  auto* pub_ptr = pub.get();
  (void)n1.add_service(std::move(pub));
  auto& n2 = domain.add_node("sub");
  auto sub = std::make_unique<AlarmSubscriber>();
  auto* sub_ptr = sub.get();
  (void)n2.add_service(std::move(sub));
  domain.start_all();
  domain.run_for(milliseconds(500));
  for (int i = 0; i < 5; ++i) (void)pub_ptr->raise(1, "x");
  domain.run_for(milliseconds(200));
  ASSERT_EQ(sub_ptr->infos.size(), 5u);
  for (size_t i = 1; i < 5; ++i) {
    EXPECT_EQ(sub_ptr->infos[i].seq, sub_ptr->infos[i - 1].seq + 1);
  }
}

// Event latency p99 over a sparse 4 Hz stream on a 2 ms, 0.5 ms-jitter,
// 3%-loss link between two containers, for 60 virtual seconds. Sparse
// events give fast retransmit nothing to count, so a lost event (or its
// ack) waits for the retransmission timer: the tail is that timer.
double event_p99_ms(const proto::ArqParams& arq) {
  sim::LinkParams lp;
  lp.latency = milliseconds(2);
  lp.jitter = microseconds(500);
  lp.loss = 0.03;
  SimDomain domain(29, lp);
  ContainerConfig config;
  config.arq = arq;
  auto& n1 = domain.add_node("pub", config);
  auto pub = std::make_unique<AlarmPublisher>();
  auto* pub_ptr = pub.get();
  (void)n1.add_service(std::move(pub));
  auto& n2 = domain.add_node("sub", config);
  auto sub = std::make_unique<AlarmSubscriber>();
  auto* sub_ptr = sub.get();
  (void)n2.add_service(std::move(sub));
  domain.start_all();
  domain.run_for(seconds(2.0));

  const int kEvents = 240;
  for (int i = 0; i < kEvents; ++i) {
    EXPECT_TRUE(pub_ptr->raise(static_cast<uint32_t>(i), "e").is_ok());
    domain.run_for(milliseconds(250));
  }
  domain.run_for(seconds(2.0));
  EXPECT_EQ(sub_ptr->infos.size(), static_cast<size_t>(kEvents));
  std::vector<int64_t> ns;
  for (const auto& info : sub_ptr->infos) ns.push_back(info.latency.ns);
  if (ns.empty()) return 0;
  std::sort(ns.begin(), ns.end());
  const size_t rank = (ns.size() * 99 + 99) / 100 - 1;  // ceil(0.99 n) - 1
  return static_cast<double>(ns[rank]) / 1e6;
}

TEST(EventsTest, LossTailFollowsTheMeasuredRtt) {
  const double adaptive = event_p99_ms(proto::ArqParams{});
  proto::ArqParams fixed;  // the paper's fixed 50 ms timer
  fixed.min_rto = fixed.initial_rto;
  const double pinned = event_p99_ms(fixed);
  EXPECT_LE(adaptive, 20.0);
  EXPECT_GE(pinned, 2.5 * adaptive)
      << "adaptive p99 " << adaptive << " ms, fixed-timer p99 " << pinned
      << " ms";
}

}  // namespace
}  // namespace marea::mw
