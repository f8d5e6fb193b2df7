// Selective-repeat ARQ: the reliability engine under events and RPC.
// The harness wires a sender and receiver through the simulated network
// so loss/latency are real, seeded and replayable.
#include <gtest/gtest.h>

#include <set>

#include "protocol/arq.h"
#include "sched/sim_executor.h"
#include "sim/network.h"

namespace marea::proto {
namespace {

class ArqHarness {
 public:
  explicit ArqHarness(double loss, uint64_t seed = 5, ArqParams params = {})
      : net_(sim_, Rng(seed)), exec_(sim_) {
    a_ = net_.add_node("a");
    b_ = net_.add_node("b");
    sim::LinkParams lp;
    lp.loss = loss;
    net_.set_link_symmetric(a_, b_, lp);

    sender_ = std::make_unique<ArqSender>(
        exec_, sched::Priority::kEvent, params,
        [this](const ReliableDataMsg& msg) {
          ByteWriter w;
          msg.encode(w);
          (void)net_.send(Address{a_, 1}, Address{b_, 1},
                          net_.frame_pool().copy_in(w.view()));
        });
    receiver_ = std::make_unique<ArqReceiver>(
        [this](const ReliableAckMsg& ack) {
          ByteWriter w;
          ack.encode(w);
          (void)net_.send(Address{b_, 1}, Address{a_, 1},
                          net_.frame_pool().copy_in(w.view()));
        },
        [this](InnerType type, BytesView inner) {
          delivered_.emplace_back(type, to_buffer(inner));
        });

    (void)net_.bind_frames(
        Address{b_, 1},
        [this](Address, const SharedFrame& frame) {
          ByteReader r(frame.view());
          ReliableDataMsg msg;
          if (ReliableDataMsg::decode(r, msg)) receiver_->on_data(msg);
        });
    (void)net_.bind_frames(
        Address{a_, 1},
        [this](Address, const SharedFrame& frame) {
          ByteReader r(frame.view());
          ReliableAckMsg ack;
          if (ReliableAckMsg::decode(r, ack)) sender_->on_ack(ack);
        });
  }

  sim::Simulator sim_;
  sim::SimNetwork net_;
  sched::SimExecutor exec_;
  sim::NodeId a_, b_;
  std::unique_ptr<ArqSender> sender_;
  std::unique_ptr<ArqReceiver> receiver_;
  std::vector<std::pair<InnerType, Buffer>> delivered_;
};

TEST(ArqTest, LosslessDelivery) {
  ArqHarness h(0.0);
  for (uint8_t i = 0; i < 10; ++i) {
    h.sender_->send(InnerType::kEvent, Buffer{i});
  }
  h.sim_.run();
  ASSERT_EQ(h.delivered_.size(), 10u);
  for (uint8_t i = 0; i < 10; ++i) {
    EXPECT_EQ(h.delivered_[i].second[0], i);
  }
  EXPECT_EQ(h.sender_->stats().retransmits, 0u);
  EXPECT_EQ(h.sender_->stats().delivered, 10u);
  EXPECT_EQ(h.sender_->in_flight(), 0u);
}

// Property sweep: every message is delivered exactly once across loss rates.
class ArqLossTest : public ::testing::TestWithParam<double> {};

TEST_P(ArqLossTest, ExactlyOnceUnderLoss) {
  ArqHarness h(GetParam(), /*seed=*/11);
  const int kMessages = 80;
  for (int i = 0; i < kMessages; ++i) {
    ByteWriter w;
    w.u32(static_cast<uint32_t>(i));
    h.sender_->send(InnerType::kEvent, w.take());
  }
  h.sim_.run();
  ASSERT_EQ(h.delivered_.size(), static_cast<size_t>(kMessages));
  // Exactly once: each payload appears once (order may vary).
  std::set<uint32_t> seen;
  for (auto& [type, payload] : h.delivered_) {
    ByteReader r(as_bytes_view(payload));
    seen.insert(r.u32());
  }
  EXPECT_EQ(seen.size(), static_cast<size_t>(kMessages));
  if (GetParam() > 0.0) {
    EXPECT_GT(h.sender_->stats().retransmits, 0u);
  }
  EXPECT_EQ(h.sender_->stats().failed, 0u);
}

INSTANTIATE_TEST_SUITE_P(LossRates, ArqLossTest,
                         ::testing::Values(0.0, 0.05, 0.2, 0.4));

TEST(ArqTest, DuplicateFramesDeliveredOnce) {
  ArqHarness h(0.0);
  // Force a duplicate by replaying a captured frame through the receiver.
  ReliableDataMsg msg;
  msg.seq = 0;
  msg.inner_type = InnerType::kEvent;
  msg.inner = {42};
  h.receiver_->on_data(msg);
  h.receiver_->on_data(msg);
  EXPECT_EQ(h.delivered_.size(), 1u);
  EXPECT_EQ(h.receiver_->stats().duplicates, 1u);
}

TEST(ArqTest, WindowQueuesExcessMessages) {
  ArqParams params;
  params.window = 4;
  ArqHarness h(0.0, 5, params);
  // Black-hole the receiver so nothing is acked.
  h.net_.set_node_up(h.b_, false);
  for (int i = 0; i < 10; ++i) {
    h.sender_->send(InnerType::kEvent, Buffer{static_cast<uint8_t>(i)});
  }
  EXPECT_EQ(h.sender_->in_flight(), 4u);
  EXPECT_EQ(h.sender_->queued(), 6u);
  // Recover: everything must flow.
  h.net_.set_node_up(h.b_, true);
  h.sim_.run();
  EXPECT_EQ(h.delivered_.size(), 10u);
}

TEST(ArqTest, GivesUpAfterMaxRetries) {
  ArqParams params;
  params.max_retries = 3;
  params.initial_rto = milliseconds(10);
  ArqHarness h(0.0, 5, params);
  h.net_.set_node_up(h.b_, false);

  std::vector<uint64_t> failed;
  h.sender_->set_on_failed(
      [&](uint64_t seq, const Status& s) {
        failed.push_back(seq);
        EXPECT_EQ(s.code(), StatusCode::kTimeout);
      });
  h.sender_->send(InnerType::kEvent, Buffer{1});
  h.sim_.run();
  ASSERT_EQ(failed.size(), 1u);
  EXPECT_EQ(h.sender_->stats().failed, 1u);
  EXPECT_EQ(h.sender_->in_flight(), 0u);
}

TEST(ArqTest, DeliveredCallbackFires) {
  ArqHarness h(0.0);
  std::vector<uint64_t> done;
  h.sender_->set_on_delivered([&](uint64_t seq) { done.push_back(seq); });
  h.sender_->send(InnerType::kEvent, Buffer{1});
  h.sender_->send(InnerType::kEvent, Buffer{2});
  h.sim_.run();
  EXPECT_EQ(done, (std::vector<uint64_t>{0, 1}));
}

TEST(ArqTest, FastRetransmitBeatsRtoOnSingleGap) {
  // Drop exactly one frame, then measure that recovery happened well
  // before the (huge) RTO.
  ArqParams params;
  params.initial_rto = seconds(10.0);  // RTO effectively disabled
  ArqHarness h(0.0, 5, params);

  // Intercept: drop the first data frame only.
  // Rebind b's endpoint with a dropping filter.
  h.net_.unbind(Address{h.b_, 1});
  bool dropped = false;
  (void)h.net_.bind_frames(
      Address{h.b_, 1},
      [&](Address, const SharedFrame& frame) {
        ByteReader r(frame.view());
        ReliableDataMsg msg;
        if (!ReliableDataMsg::decode(r, msg)) return;
        if (!dropped && msg.seq == 0) {
          dropped = true;
          return;  // lost
        }
        h.receiver_->on_data(msg);
      });

  for (uint8_t i = 0; i < 6; ++i) {
    h.sender_->send(InnerType::kEvent, Buffer{i});
  }
  h.sim_.run_for(seconds(1.0));  // far less than the RTO
  EXPECT_EQ(h.delivered_.size(), 6u);
  EXPECT_GE(h.sender_->stats().fast_retransmits, 1u);
  // All retransmissions were ack-triggered, none timer-triggered.
  EXPECT_EQ(h.sender_->stats().retransmits,
            h.sender_->stats().fast_retransmits);
}

TEST(ArqTest, AckCarriesCompactRunSet) {
  // Receiver with a gap: floor stays, above compresses.
  ReliableAckMsg captured;
  ArqReceiver rx([&](const ReliableAckMsg& ack) { captured = ack; },
                 [](InnerType, BytesView) {});
  ReliableDataMsg m;
  m.inner_type = InnerType::kEvent;
  m.inner = {1};
  m.seq = 1;  // skip 0
  rx.on_data(m);
  m.seq = 2;
  rx.on_data(m);
  EXPECT_EQ(captured.floor, 0u);
  EXPECT_TRUE(captured.above.contains(1));
  EXPECT_TRUE(captured.above.contains(2));
  EXPECT_FALSE(captured.above.contains(0));

  m.seq = 0;  // fill the gap: floor advances over the whole prefix
  rx.on_data(m);
  EXPECT_EQ(captured.floor, 3u);
  EXPECT_TRUE(captured.above.empty());
}

}  // namespace
}  // namespace marea::proto
