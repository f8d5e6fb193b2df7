// Variable primitive end-to-end: pub/sub across containers, the
// guaranteed initial snapshot, validity QoS, timeout warnings, multicast
// vs unicast fallback, schema enforcement, local bypass.
#include <gtest/gtest.h>

#include <functional>
#include <memory>
#include <utility>

#include "frame_forge.h"
#include "middleware/domain.h"
#include "encoding/typed.h"
#include "protocol/messages.h"

namespace marea::mw {
namespace {

struct Reading {
  double value = 0;
  int64_t stamp = 0;
};

}  // namespace
}  // namespace marea::mw

MAREA_REFLECT(marea::mw::Reading, value, stamp)

namespace marea::mw {
namespace {

// Publishes `sensor.reading` on demand (or periodically via QoS).
class SensorService final : public Service {
 public:
  explicit SensorService(VariableQoS qos = {.period = milliseconds(50),
                                            .validity = milliseconds(200)})
      : Service("sensor"), qos_(qos) {}

  Status on_start() override {
    auto handle = provide_variable<Reading>("sensor.reading", qos_);
    if (!handle.ok()) return handle.status();
    handle_ = *handle;
    return Status::ok();
  }

  Status push(double v) {
    Reading r;
    r.value = v;
    r.stamp = now().ns;
    return handle_.publish(r);
  }

 private:
  VariableQoS qos_;
  VariableHandle handle_;
};

class ConsumerService final : public Service {
 public:
  explicit ConsumerService(std::string name = "consumer")
      : Service(std::move(name)) {}

  Status on_start() override {
    return subscribe_variable<Reading>(
        "sensor.reading",
        [this](const Reading& r, const SampleInfo& info) {
          readings.push_back(r);
          infos.push_back(info);
        },
        [this](Duration) { ++timeouts; });
  }

  StatusOr<enc::Value> read() { return read_variable("sensor.reading"); }

  std::vector<Reading> readings;
  std::vector<SampleInfo> infos;
  int timeouts = 0;
};

struct VarsFixtureResult {
  SensorService* sensor;
  ConsumerService* consumer;
};

class VarsTest : public ::testing::Test {
 protected:
  VarsFixtureResult make_two_nodes(SimDomain& domain,
                                   ContainerConfig cfg = {}) {
    auto& n1 = domain.add_node("sensor-node", cfg);
    auto sensor = std::make_unique<SensorService>();
    auto* sensor_ptr = sensor.get();
    (void)n1.add_service(std::move(sensor));
    auto& n2 = domain.add_node("consumer-node", cfg);
    auto consumer = std::make_unique<ConsumerService>();
    auto* consumer_ptr = consumer.get();
    (void)n2.add_service(std::move(consumer));
    return {sensor_ptr, consumer_ptr};
  }
};

TEST_F(VarsTest, SamplesFlowAcrossNodes) {
  SimDomain domain(1);
  auto [sensor, consumer] = make_two_nodes(domain);
  domain.start_all();
  domain.run_for(seconds(1.0));  // discovery settles

  size_t before = consumer->readings.size();
  ASSERT_TRUE(sensor->push(42.5).is_ok());
  domain.run_for(milliseconds(50));
  ASSERT_GT(consumer->readings.size(), before);
  EXPECT_EQ(consumer->readings.back().value, 42.5);
  EXPECT_GT(domain.container(1).stats().var_samples_received, 0u);
}

TEST_F(VarsTest, SubscriberAfterPublisherGetsInitialSnapshot) {
  // Publish a value BEFORE the consumer node even exists; the §4.1
  // snapshot mechanism must hand it the last exact value on subscribe.
  SimDomain domain(2);
  auto& n1 = domain.add_node("sensor-node");
  auto sensor = std::make_unique<SensorService>(
      VariableQoS{.period = kDurationZero, .validity = seconds(10.0)});
  auto* sensor_ptr = sensor.get();
  (void)n1.add_service(std::move(sensor));
  domain.start_all();
  domain.run_for(milliseconds(100));
  ASSERT_TRUE(sensor_ptr->push(7.25).is_ok());
  domain.run_for(milliseconds(100));

  // Late node joins.
  auto& n2 = domain.add_node("late-node");
  auto consumer = std::make_unique<ConsumerService>();
  auto* consumer_ptr = consumer.get();
  (void)n2.add_service(std::move(consumer));
  ASSERT_TRUE(n2.start().is_ok());
  domain.run_for(seconds(1.0));

  ASSERT_FALSE(consumer_ptr->readings.empty());
  EXPECT_EQ(consumer_ptr->readings.front().value, 7.25);
  EXPECT_TRUE(consumer_ptr->infos.front().from_snapshot);
}

TEST_F(VarsTest, PeriodicRepublishKeepsSubscriberFresh) {
  SimDomain domain(3);
  auto [sensor, consumer] = make_two_nodes(domain);
  domain.start_all();
  domain.run_for(milliseconds(500));
  ASSERT_TRUE(sensor->push(1.0).is_ok());
  size_t after_push = consumer->readings.size();
  // No further pushes: the 50ms period QoS must keep samples coming.
  domain.run_for(seconds(1.0));
  EXPECT_GT(consumer->readings.size(), after_push + 10);
  EXPECT_EQ(consumer->timeouts, 0);
}

TEST_F(VarsTest, TimeoutWarningWhenPublisherGoesSilent) {
  SimDomain domain(4);
  auto [sensor, consumer] = make_two_nodes(domain);
  domain.start_all();
  domain.run_for(milliseconds(300));
  ASSERT_TRUE(sensor->push(1.0).is_ok());
  domain.run_for(milliseconds(300));
  EXPECT_EQ(consumer->timeouts, 0);

  // Kill the sensor node: samples stop, warnings must fire (§4.1).
  domain.kill_node(0);
  domain.run_for(seconds(1.0));
  EXPECT_GT(consumer->timeouts, 0);
  EXPECT_GT(domain.container(1).stats().var_timeout_warnings, 0u);
}

TEST_F(VarsTest, ReadVariableHonorsValidity) {
  SimDomain domain(5);
  auto [sensor, consumer] = make_two_nodes(domain);
  domain.start_all();
  domain.run_for(milliseconds(300));
  ASSERT_TRUE(sensor->push(3.5).is_ok());
  domain.run_for(milliseconds(50));

  auto fresh = consumer->read();
  ASSERT_TRUE(fresh.ok());

  // Stop the publisher and outlive the 200ms validity window.
  domain.kill_node(0);
  domain.run_for(seconds(1.0));
  auto stale = consumer->read();
  ASSERT_FALSE(stale.ok());
  EXPECT_EQ(stale.status().code(), StatusCode::kTimeout);
}

TEST_F(VarsTest, ReadBeforeAnySampleIsNotFound) {
  SimDomain domain(6);
  auto& n2 = domain.add_node("consumer-only");
  auto consumer = std::make_unique<ConsumerService>();
  auto* consumer_ptr = consumer.get();
  (void)n2.add_service(std::move(consumer));
  domain.start_all();
  domain.run_for(milliseconds(100));
  auto result = consumer_ptr->read();
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kNotFound);
}

TEST_F(VarsTest, UnicastFallbackDeliversToo) {
  SimDomain domain(7);
  ContainerConfig cfg;
  cfg.use_multicast = false;  // §4.1 "when the underlying network allows it"
  auto [sensor, consumer] = make_two_nodes(domain, cfg);
  domain.start_all();
  domain.run_for(milliseconds(500));
  size_t before = consumer->readings.size();
  ASSERT_TRUE(sensor->push(9.0).is_ok());
  domain.run_for(milliseconds(100));
  EXPECT_GT(consumer->readings.size(), before);
}

TEST_F(VarsTest, MulticastUsesFewerWireBytesThanUnicastForFanOut) {
  auto measure = [](bool multicast) {
    SimDomain domain(8);
    ContainerConfig cfg;
    cfg.use_multicast = multicast;
    auto& n1 = domain.add_node("sensor-node", cfg);
    auto sensor = std::make_unique<SensorService>(VariableQoS{
        .period = kDurationZero, .validity = seconds(1.0)});
    auto* sensor_ptr = sensor.get();
    (void)n1.add_service(std::move(sensor));
    std::vector<ConsumerService*> consumers;
    for (int i = 0; i < 5; ++i) {
      auto& n = domain.add_node("c" + std::to_string(i), cfg);
      auto c = std::make_unique<ConsumerService>();
      consumers.push_back(c.get());
      (void)n.add_service(std::move(c));
    }
    domain.start_all();
    domain.run_for(seconds(1.0));
    domain.network().reset_stats();
    for (int i = 0; i < 100; ++i) {
      (void)sensor_ptr->push(i);
    }
    domain.run_for(seconds(1.0));
    for (auto* c : consumers) {
      EXPECT_GE(c->readings.size(), 99u);
    }
    return domain.network().stats().bytes_sent;
  };
  uint64_t multicast_bytes = measure(true);
  uint64_t unicast_bytes = measure(false);
  // 5 subscribers: unicast sends ~5x the sample bytes (§4.1 claim).
  EXPECT_GT(unicast_bytes, multicast_bytes * 3);
}

TEST_F(VarsTest, SchemaMismatchIsRefused) {
  SimDomain domain(9);
  auto& n1 = domain.add_node("sensor-node");
  auto sensor = std::make_unique<SensorService>();
  auto* sensor_ptr = sensor.get();
  (void)n1.add_service(std::move(sensor));

  // A consumer expecting a different structure under the same name.
  class WrongConsumer final : public Service {
   public:
    WrongConsumer() : Service("wrong") {}
    Status on_start() override {
      auto type = enc::TypeDescriptor::struct_of(
          "Other", {{"x", enc::i32_type()}});
      return subscribe_variable(
          "sensor.reading", type,
          [this](const enc::Value&, const SampleInfo&) { ++deliveries; });
    }
    int deliveries = 0;
  };
  auto& n2 = domain.add_node("wrong-node");
  auto wrong = std::make_unique<WrongConsumer>();
  auto* wrong_ptr = wrong.get();
  (void)n2.add_service(std::move(wrong));

  domain.start_all();
  domain.run_for(milliseconds(500));
  (void)sensor_ptr->push(1.0);
  domain.run_for(seconds(1.0));
  EXPECT_EQ(wrong_ptr->deliveries, 0);
}

TEST_F(VarsTest, LocalSubscriberBypassesNetwork) {
  SimDomain domain(10);
  auto& n1 = domain.add_node("solo");
  auto sensor = std::make_unique<SensorService>(
      VariableQoS{.period = kDurationZero, .validity = seconds(1.0)});
  auto* sensor_ptr = sensor.get();
  (void)n1.add_service(std::move(sensor));
  auto consumer = std::make_unique<ConsumerService>();
  auto* consumer_ptr = consumer.get();
  (void)n1.add_service(std::move(consumer));
  domain.start_all();
  domain.run_for(milliseconds(100));
  domain.network().reset_stats();
  ASSERT_TRUE(sensor_ptr->push(5.0).is_ok());
  domain.run_for(milliseconds(100));
  ASSERT_FALSE(consumer_ptr->readings.empty());
  EXPECT_EQ(consumer_ptr->readings.back().value, 5.0);
  // Nothing crossed the wire for the sample itself.
  EXPECT_EQ(domain.network().stats().bytes_sent, 0u);
}

TEST_F(VarsTest, DuplicateProvisionRejected) {
  SimDomain domain(11);
  auto& n1 = domain.add_node("n");
  class Dup final : public Service {
   public:
    Dup() : Service("dup") {}
    Status on_start() override {
      auto a = provide_variable<Reading>("v");
      if (!a.ok()) return a.status();
      auto b = provide_variable<Reading>("v");
      EXPECT_FALSE(b.ok());
      EXPECT_EQ(b.status().code(), StatusCode::kAlreadyExists);
      return Status::ok();
    }
  };
  (void)n1.add_service(std::make_unique<Dup>());
  domain.start_all();
  domain.run_for(milliseconds(10));
}

TEST_F(VarsTest, PublishRejectsWrongShape) {
  SimDomain domain(12);
  auto& n1 = domain.add_node("n");
  class BadPublisher final : public Service {
   public:
    BadPublisher() : Service("bad") {}
    Status on_start() override {
      auto h = provide_variable<Reading>("v");
      if (!h.ok()) return h.status();
      Status s = h->publish(enc::Value::of_string("not a reading"));
      EXPECT_FALSE(s.is_ok());
      return Status::ok();
    }
  };
  (void)n1.add_service(std::make_unique<BadPublisher>());
  domain.start_all();
  domain.run_for(milliseconds(10));
}

TEST_F(VarsTest, StaleOutOfOrderSamplesDropped) {
  SimDomain domain(13);
  sim::LinkParams lp;
  lp.jitter = milliseconds(5);  // heavy reordering
  domain.network().set_default_link(lp);
  auto [sensor, consumer] = make_two_nodes(domain);
  domain.start_all();
  domain.run_for(milliseconds(500));
  for (int i = 0; i < 50; ++i) {
    (void)sensor->push(i);
  }
  domain.run_for(seconds(1.0));
  // Values seen must be non-decreasing despite reordering (stale samples
  // dropped by seq; equal values come from the periodic republish QoS).
  for (size_t i = 1; i < consumer->readings.size(); ++i) {
    EXPECT_LE(consumer->readings[i - 1].value, consumer->readings[i].value);
  }
}

TEST_F(VarsTest, SchemaInvalidSampleLeavesCacheAtLastGoodValue) {
  // Remote samples decode into a per-subscription scratch tree that is
  // swapped into the cache only on success: a fresh-seq sample whose
  // bytes do not fit the schema must not clobber what handlers and
  // read_variable saw last.
  SimDomain domain(14);
  const VariableQoS qos{.period = kDurationZero, .validity = seconds(10.0)};
  auto& n1 = domain.add_node("sensor-node");
  auto sensor = std::make_unique<SensorService>(qos);
  auto* sensor_ptr = sensor.get();
  (void)n1.add_service(std::move(sensor));
  auto& n2 = domain.add_node("consumer-node");
  auto consumer = std::make_unique<ConsumerService>();
  auto* consumer_ptr = consumer.get();
  (void)n2.add_service(std::move(consumer));
  domain.start_all();
  domain.run_for(seconds(1.0));
  ASSERT_TRUE(sensor_ptr->push(42.5).is_ok());
  domain.run_for(milliseconds(50));
  ASSERT_FALSE(consumer_ptr->readings.empty());
  ASSERT_EQ(consumer_ptr->readings.back().value, 42.5);
  const size_t deliveries = consumer_ptr->readings.size();
  const uint64_t dropped = n2.stats().frames_dropped;

  // Newer than anything published, so only the decode can reject them:
  // a truncated Reading and one with trailing bytes.
  const Buffer bodies[] = {Buffer{1, 2, 3}, Buffer(20, 0)};
  uint64_t seq = 1000;
  for (const Buffer& body : bodies) {
    proto::VarSampleMsg msg;
    msg.channel = proto::channel_of("sensor.reading");
    msg.seq = seq++;
    msg.pub_time_ns = domain.sim().now().ns;
    msg.value = body;
    sim::SimNetwork& net = domain.network();
    SharedFrame frame = testutil::forge_frame(
        net.frame_pool(), proto::MsgType::kVarSample, 0xBAD, msg);
    ASSERT_TRUE(net.send(Address{domain.node_id(0), 9999},
                         Address{domain.node_id(1), n2.config().data_port},
                         std::move(frame))
                    .is_ok());
  }
  domain.run_for(milliseconds(50));

  EXPECT_EQ(n2.stats().frames_dropped, dropped + 2);
  EXPECT_EQ(consumer_ptr->readings.size(), deliveries);
  EXPECT_EQ(consumer_ptr->readings.back().value, 42.5);
  auto cached = consumer_ptr->read();
  ASSERT_TRUE(cached.ok());
  Reading r;
  ASSERT_TRUE(enc::from_value(*cached, r));
  EXPECT_EQ(r.value, 42.5);

  // The stream itself is unharmed: the next good sample still lands.
  ASSERT_TRUE(sensor_ptr->push(43.5).is_ok());
  domain.run_for(milliseconds(50));
  EXPECT_EQ(consumer_ptr->readings.back().value, 43.5);
}

TEST_F(VarsTest, BareSubscribeFrameIsDropped) {
  // Subscription control only ever travels inside the reliable link, and
  // types 10 and 11 are unassigned (they were the name query and its
  // reply, forged here in their old layouts). A bare frame of any of them
  // from a container nobody knows is dropped like any unknown type: it
  // must not register the forged source as a peer, nor open a send
  // toward the frame's address.
  SimDomain domain(16);
  (void)make_two_nodes(domain);
  domain.start_all();
  domain.run_for(seconds(1.0));
  ServiceContainer& provider = domain.container(0);

  // The forger listens where it sends from, off the data port, so only
  // a reply addressed to it can land here.
  const Address forger{domain.node_id(1), 9999};
  const Address target{domain.node_id(0), provider.config().data_port};
  sim::SimNetwork& net = domain.network();
  int replies = 0;
  ASSERT_TRUE(net.bind_frames(forger, [&](Address, const SharedFrame&) {
                   ++replies;
                 }).is_ok());

  proto::VarSubscribeMsg subscribe;
  subscribe.name = "sensor.reading";
  subscribe.schema_hash = enc::descriptor_of<Reading>()->structural_hash();
  const std::pair<uint8_t, std::function<void(ByteWriter&)>> forged[] = {
      {static_cast<uint8_t>(proto::MsgType::kVarSubscribe),
       [&](ByteWriter& w) { subscribe.encode(w); }},
      {10,  // query id, kind, name
       [](ByteWriter& w) {
         w.varint(1);
         w.u8(static_cast<uint8_t>(proto::ItemKind::kVariable));
         w.str("sensor.reading");
       }},
      {11,  // query id, found, provider, data port, service
       [](ByteWriter& w) {
         w.varint(1);
         w.u8(1);
         w.u32(0xBAD);
         w.u16(9999);
         w.str("sensor");
       }},
  };
  for (const auto& [type, body] : forged) {
    SCOPED_TRACE(static_cast<int>(type));
    const uint64_t dropped = provider.stats().frames_dropped;
    const uint64_t snapshots = provider.stats().var_snapshots_sent;
    const auto peers = provider.known_peers();

    proto::FrameBuilder fb(
        net.frame_pool(),
        proto::FrameHeader{static_cast<proto::MsgType>(type), 0xBAD});
    body(fb.payload());
    ASSERT_TRUE(net.send(forger, target, std::move(fb).seal()).is_ok());
    domain.run_for(milliseconds(100));  // within the liveness window

    EXPECT_EQ(provider.stats().frames_dropped, dropped + 1);
    EXPECT_EQ(provider.known_peers(), peers);
    EXPECT_EQ(provider.stats().var_snapshots_sent, snapshots);
    EXPECT_EQ(replies, 0);
  }
}

}  // namespace
}  // namespace marea::mw
