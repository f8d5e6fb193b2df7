// Baseline communication models (§3 taxonomy) behave as specified and
// exhibit the wire-cost shapes the comparison benches rely on.
#include <gtest/gtest.h>

#include "baseline/client_server.h"
#include "baseline/point_to_point.h"

namespace marea::baseline {
namespace {

class BaselineTest : public ::testing::Test {
 protected:
  BaselineTest() : net_(sim_, Rng(4)) {
    for (int i = 0; i < 6; ++i) {
      nodes_.push_back(net_.add_node("n" + std::to_string(i)));
    }
  }

  sim::Simulator sim_;
  sim::SimNetwork net_;
  std::vector<sim::NodeId> nodes_;
};

TEST_F(BaselineTest, P2pDeliversToEveryConsumer) {
  P2pProducer producer(net_, {nodes_[0], 1});
  std::vector<std::unique_ptr<P2pConsumer>> consumers;
  for (int i = 1; i <= 3; ++i) {
    consumers.push_back(std::make_unique<P2pConsumer>(
        net_, Address{nodes_[static_cast<size_t>(i)], 1}, nullptr));
    producer.add_consumer({nodes_[static_cast<size_t>(i)], 1});
  }
  Buffer payload(50, 7);
  producer.send(as_bytes_view(payload));
  sim_.run();
  for (auto& c : consumers) {
    EXPECT_EQ(c->received(), 1u);
  }
  // Cost shape: one copy per consumer on the wire.
  EXPECT_EQ(net_.stats().packets_sent, 3u);
  EXPECT_EQ(net_.stats().bytes_sent, 150u);
}

TEST_F(BaselineTest, BrokerForwardsToSubscribers) {
  BrokerServer broker(net_, {nodes_[0], 1});
  BrokerClient producer(net_, {nodes_[1], 1}, {nodes_[0], 1});
  int c2_got = 0;
  int c3_got = 0;
  BrokerClient consumer2(net_, {nodes_[2], 1}, {nodes_[0], 1});
  BrokerClient consumer3(net_, {nodes_[3], 1}, {nodes_[0], 1});
  consumer2.subscribe("telemetry", [&](BytesView) { ++c2_got; });
  consumer3.subscribe("telemetry", [&](BytesView) { ++c3_got; });
  sim_.run();

  Buffer payload(100, 3);
  producer.publish("telemetry", as_bytes_view(payload));
  sim_.run();
  EXPECT_EQ(c2_got, 1);
  EXPECT_EQ(c3_got, 1);
  EXPECT_EQ(broker.published(), 1u);
  EXPECT_EQ(broker.forwarded(), 2u);
  // Cost shape: (1 publish + 2 forwards) copies cross the wire.
  EXPECT_GE(net_.stats().bytes_sent, 3 * payload.size());
}

TEST_F(BaselineTest, BrokerDoesNotEchoToPublisher) {
  BrokerServer broker(net_, {nodes_[0], 1});
  int self_got = 0;
  BrokerClient both(net_, {nodes_[1], 1}, {nodes_[0], 1});
  both.subscribe("t", [&](BytesView) { ++self_got; });
  sim_.run();
  Buffer payload(10, 1);
  both.publish("t", as_bytes_view(payload));
  sim_.run();
  EXPECT_EQ(self_got, 0);
}

TEST_F(BaselineTest, BrokerIgnoresUnknownTopicAndDuplicateSubs) {
  BrokerServer broker(net_, {nodes_[0], 1});
  BrokerClient producer(net_, {nodes_[1], 1}, {nodes_[0], 1});
  int got = 0;
  BrokerClient consumer(net_, {nodes_[2], 1}, {nodes_[0], 1});
  consumer.subscribe("a", [&](BytesView) { ++got; });
  consumer.subscribe("a", [&](BytesView) { ++got; });  // duplicate
  sim_.run();
  Buffer payload(10, 1);
  producer.publish("other", as_bytes_view(payload));  // nobody subscribed
  producer.publish("a", as_bytes_view(payload));
  sim_.run();
  EXPECT_EQ(got, 1);  // duplicate subscription did not double-deliver
  EXPECT_EQ(broker.forwarded(), 1u);
}

TEST_F(BaselineTest, BrokerIsSinglePointOfFailure) {
  BrokerServer broker(net_, {nodes_[0], 1});
  BrokerClient producer(net_, {nodes_[1], 1}, {nodes_[0], 1});
  int got = 0;
  BrokerClient consumer(net_, {nodes_[2], 1}, {nodes_[0], 1});
  consumer.subscribe("t", [&](BytesView) { ++got; });
  sim_.run();
  net_.set_node_up(nodes_[0], false);  // broker dies
  Buffer payload(10, 1);
  producer.publish("t", as_bytes_view(payload));
  sim_.run();
  EXPECT_EQ(got, 0);
}

}  // namespace
}  // namespace marea::baseline
