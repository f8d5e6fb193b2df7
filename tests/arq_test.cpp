// Selective-repeat ARQ: the reliability engine under events and RPC.
// The harness wires a sender and receiver through the simulated network
// so loss/latency are real, seeded and replayable.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>
#include <optional>
#include <set>

#include "protocol/arq.h"
#include "sched/sim_executor.h"
#include "sim/network.h"
#include "util/rng.h"

// Global allocation counter for the warm send/ack cycle test.
namespace {
std::atomic<uint64_t> g_allocs{0};
}  // namespace

void* operator new(size_t size) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}
void* operator new[](size_t size) { return ::operator new(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, size_t) noexcept { std::free(p); }
void operator delete[](void* p, size_t) noexcept { std::free(p); }

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
          sends_.emplace_back(msg.seq, sim_.now());
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
  std::vector<std::pair<uint64_t, TimePoint>> sends_;  // (seq, when)

  // Sets both directions' one-way latency (no jitter).
  void set_latency(Duration latency) {
    sim::LinkParams lp;
    lp.latency = latency;
    net_.set_link_symmetric(a_, b_, lp);
  }
  // Sends one message and runs until the link is idle.
  void exchange() {
    sender_->send(InnerType::kEvent, Buffer{0});
    sim_.run();
  }
  // Offsets of `seq`'s transmissions from its first one.
  std::vector<Duration> send_offsets(uint64_t seq) const {
    std::vector<Duration> out;
    std::optional<TimePoint> first;
    for (const auto& [s, at] : sends_) {
      if (s != seq) continue;
      if (!first) first = at;
      out.push_back(at - *first);
    }
    return out;
  }
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

TEST(ArqTest, SendFromDeliveredCallbackQueuesBehindWaitingMessages) {
  // A handler that sends while an ack is being processed sees the window
  // short of full with older messages still queued. Its message must
  // wait behind them: messages start, travel and arrive in seq order,
  // and the window is never exceeded.
  ArqParams params;
  params.window = 2;
  ArqHarness h(0.0, 5, params);
  int extra = 0;
  size_t peak_in_flight = 0;
  h.sender_->set_on_delivered([&](uint64_t) {
    peak_in_flight = std::max(peak_in_flight, h.sender_->in_flight());
    if (extra < 3) {
      const uint64_t seq = h.sender_->send(
          InnerType::kEvent, Buffer{static_cast<uint8_t>(4 + extra)});
      EXPECT_EQ(seq, static_cast<uint64_t>(4 + extra));
      ++extra;
    }
  });
  for (uint8_t i = 0; i < 4; ++i) {
    h.sender_->send(InnerType::kEvent, Buffer{i});
  }
  EXPECT_EQ(h.sender_->in_flight(), 2u);
  EXPECT_EQ(h.sender_->queued(), 2u);
  h.sim_.run();

  ASSERT_EQ(h.delivered_.size(), 7u);
  for (uint8_t i = 0; i < 7; ++i) EXPECT_EQ(h.delivered_[i].second[0], i);
  // First transmissions in seq order, no retransmissions.
  ASSERT_EQ(h.sends_.size(), 7u);
  for (uint64_t i = 0; i < 7; ++i) EXPECT_EQ(h.sends_[i].first, i);
  EXPECT_LE(peak_in_flight, params.window);
  EXPECT_EQ(h.sender_->stats().delivered, 7u);
  EXPECT_EQ(h.sender_->in_flight(), 0u);
  EXPECT_EQ(h.sender_->queued(), 0u);
}

// The receive window as it was computed before the in-place rebase:
// insert the offset, then rebuild the set rebased past the prefix at 0.
struct ReferenceWindow {
  uint64_t floor = 0;
  RunSet above;

  // False for a duplicate.
  bool on_seq(uint64_t seq) {
    if (seq < floor || above.contains(static_cast<uint32_t>(seq - floor))) {
      return false;
    }
    above.insert(static_cast<uint32_t>(seq - floor));
    if (!above.runs().empty() && above.runs().front().first == 0) {
      const uint32_t advance = above.runs().front().count;
      RunSet rebased;
      for (const auto& run : above.runs()) {
        if (run.first == 0) continue;
        rebased.insert_run(run.first - advance, run.count);
      }
      above = std::move(rebased);
      floor += advance;
    }
    return true;
  }
};

TEST(ArqTest, ShuffledArrivalsAckLikeTheRebuildingWindow) {
  // Seqs arrive shuffled within a sliding span, with duplicates of
  // recent ones mixed in: every ack carries the same (floor, above) as
  // the old insert-and-rebuild window, and the same arrivals deliver.
  std::vector<std::pair<uint64_t, RunSet>> acks;
  std::vector<uint64_t> delivered;
  uint64_t current = 0;
  ArqReceiver rx(
      [&](const ReliableAckMsg& ack) { acks.emplace_back(ack.floor, ack.above); },
      [&](InnerType, BytesView) { delivered.push_back(current); });

  Rng rng(11);
  std::vector<uint64_t> arrivals;
  constexpr uint64_t kSeqs = 400;
  for (uint64_t base = 0; base < kSeqs; base += 16) {
    std::vector<uint64_t> block;
    for (uint64_t s = base; s < base + 16; ++s) block.push_back(s);
    for (size_t i = block.size() - 1; i > 0; --i) {
      std::swap(block[i], block[rng.uniform(0, i)]);
    }
    for (uint64_t s : block) {
      arrivals.push_back(s);
      if (rng.bernoulli(0.2)) {
        arrivals.push_back(base + rng.uniform(0, 15));  // a duplicate
      }
    }
  }

  ReferenceWindow ref;
  std::vector<uint64_t> ref_delivered;
  ReliableDataMsg m;
  m.inner_type = InnerType::kEvent;
  m.inner = {1};
  for (size_t i = 0; i < arrivals.size(); ++i) {
    current = m.seq = arrivals[i];
    if (ref.on_seq(m.seq)) ref_delivered.push_back(m.seq);
    rx.on_data(m);
    ASSERT_EQ(acks.size(), i + 1);
    ASSERT_EQ(acks.back().first, ref.floor) << "arrival " << i;
    ASSERT_EQ(acks.back().second, ref.above) << "arrival " << i;
  }
  EXPECT_EQ(delivered, ref_delivered);
  EXPECT_EQ(delivered.size(), kSeqs);
  EXPECT_EQ(rx.floor(), kSeqs);
  EXPECT_EQ(rx.stats().duplicates, arrivals.size() - kSeqs);
}

TEST(ArqTest, WarmSendAckCycleAllocatesNothing) {
  // Sender and receiver wired by hand, with no network between them.
  // Each cycle sends three messages and delivers them out of order, so
  // the receiver holds a run above its floor and the sender erases from
  // the middle of its window. Once warm, the only allocation is each
  // message's inner buffer, which the caller makes.
  sim::Simulator sim;
  sched::SimExecutor exec(sim);
  std::vector<ReliableDataMsg> wire;
  wire.reserve(16);
  ArqSender tx(exec, sched::Priority::kEvent, ArqParams{},
               [&](const ReliableDataMsg& msg) {
                 ReliableDataMsg& out = wire.emplace_back();
                 out.seq = msg.seq;
                 out.inner_type = msg.inner_type;
                 out.inner = Bytes::borrow(msg.inner.view());
               });
  ReliableAckMsg* ack = nullptr;
  uint64_t delivered = 0;
  ArqReceiver rx([&](ReliableAckMsg& a) { ack = &a; },
                 [&](InnerType, BytesView) { ++delivered; });
  auto cycle = [&] {
    for (uint8_t k = 0; k < 3; ++k) {
      tx.send(InnerType::kEvent, Buffer(16, k));
    }
    ASSERT_GE(wire.size(), 3u);
    for (size_t i : {2, 0, 1}) {
      rx.on_data(wire[i]);
      tx.on_ack(*ack);
    }
    wire.clear();
  };
  for (int i = 0; i < 50; ++i) cycle();  // warm-up
  ASSERT_EQ(tx.in_flight(), 0u);

  constexpr int kCycles = 100;
  const uint64_t delivered_before = delivered;
  const uint64_t allocs_before = g_allocs.load(std::memory_order_relaxed);
  for (int i = 0; i < kCycles; ++i) cycle();
  const uint64_t allocs =
      g_allocs.load(std::memory_order_relaxed) - allocs_before;
  EXPECT_EQ(delivered - delivered_before, uint64_t{3 * kCycles});
  EXPECT_EQ(tx.in_flight(), 0u);
  EXPECT_EQ(allocs, uint64_t{3 * kCycles})
      << "heap allocations beyond the inner buffers over " << kCycles
      << " warm send/ack cycles";
}

TEST(ArqTest, FastRetransmitBeatsRtoOnSingleGap) {
  // Drop exactly one frame, then measure that recovery happened well
  // before the (huge) RTO.
  ArqParams params;
  params.initial_rto = seconds(10.0);  // RTO effectively disabled,
  params.min_rto = seconds(10.0);      // also once RTT samples arrive
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

// --- retransmission timeout from the measured RTT (RFC 6298) ---------------

TEST(ArqEstimatorTest, RtoConvergesToRfc6298OnFixedLatencyLink) {
  ArqHarness h(0.0);
  h.set_latency(milliseconds(5));
  EXPECT_EQ(h.sender_->srtt(), kDurationZero);
  EXPECT_EQ(h.sender_->rto(), ArqParams{}.initial_rto);

  // First sample: SRTT = R, RTTVAR = R/2, RTO = SRTT + 4·RTTVAR = 3R.
  h.exchange();
  const Duration r = h.sender_->srtt();
  ASSERT_GT(r, milliseconds(10));  // two 5 ms hops plus serialization
  int64_t rttvar = r.ns / 2;
  EXPECT_EQ(h.sender_->rto(), Duration{r.ns + 4 * rttvar});

  // Every later sample equals SRTT, so SRTT holds and RTTVAR decays by
  // 3/4 per sample (integer arithmetic) until the RTO is SRTT itself.
  for (int i = 1; i < 80; ++i) {
    h.exchange();
    rttvar = 3 * rttvar / 4;
    ASSERT_EQ(h.sender_->srtt(), r) << "sample " << i;
    ASSERT_EQ(h.sender_->rto(), Duration{r.ns + 4 * rttvar}) << "sample " << i;
  }
  EXPECT_EQ(rttvar, 0);
  EXPECT_EQ(h.sender_->rto(), r);
  EXPECT_EQ(h.sender_->stats().retransmits, 0u);
}

TEST(ArqEstimatorTest, RtoNeverFallsBelowMinRto) {
  ArqHarness h(0.0);  // 0.2 ms hops: the RTT is well under the 1 ms floor
  for (int i = 0; i < 80; ++i) h.exchange();
  EXPECT_LT(h.sender_->srtt(), microseconds(500));
  EXPECT_EQ(h.sender_->rto(), ArqParams{}.min_rto);
}

TEST(ArqEstimatorTest, KarnRetransmittedSeqAddsNoSample) {
  ArqHarness h(0.0);
  h.set_latency(milliseconds(5));
  for (int i = 0; i < 3; ++i) h.exchange();
  const Duration srtt = h.sender_->srtt();
  const Duration rto = h.sender_->rto();

  // Lose seq 3's first transmission: it arrives only when re-sent, so
  // its ack measures first-send-to-ack across a retransmit and must not
  // be sampled. Any sample would move the RTO (RTTVAR still decays).
  h.net_.unbind(Address{h.b_, 1});
  bool dropped = false;
  (void)h.net_.bind_frames(
      Address{h.b_, 1}, [&](Address, const SharedFrame& frame) {
        ByteReader r(frame.view());
        ReliableDataMsg msg;
        if (!ReliableDataMsg::decode(r, msg)) return;
        if (!dropped && msg.seq == 3) {
          dropped = true;
          return;
        }
        h.receiver_->on_data(msg);
      });
  h.exchange();
  ASSERT_TRUE(dropped);
  EXPECT_EQ(h.delivered_.size(), 4u);
  EXPECT_EQ(h.sender_->stats().retransmits, 1u);
  EXPECT_EQ(h.sender_->srtt(), srtt);
  EXPECT_EQ(h.sender_->rto(), rto);
}

TEST(ArqEstimatorTest, TailProbeFiresOnceWithoutDoublingOrCounting) {
  ArqParams params;
  params.max_retries = 3;
  ArqHarness h(0.0, 5, params);
  h.set_latency(milliseconds(5));
  h.exchange();  // one sample: SRTT = R, RTO ≈ 3R, probe after 2R
  const Duration r = h.sender_->srtt();
  const Duration rto = h.sender_->rto();
  ASSERT_EQ(rto, Duration{r.ns + 4 * (r.ns / 2)});

  std::vector<TimePoint> failed_at;
  h.sender_->set_on_failed(
      [&](uint64_t, const Status&) { failed_at.push_back(h.sim_.now()); });
  h.net_.set_node_up(h.b_, false);
  h.exchange();

  // Probe at 2R; then the full RTO, not a doubled probe; then three
  // doubling timeouts (max_retries), and the fourth gives up.
  const std::vector<Duration> expected = {kDurationZero, r * 2, r * 2 + rto,
                                          r * 2 + rto * 3, r * 2 + rto * 7};
  EXPECT_EQ(h.send_offsets(1), expected);
  EXPECT_EQ(h.sender_->stats().retransmits, 4u);
  ASSERT_EQ(failed_at.size(), 1u);
  EXPECT_EQ(failed_at[0] - h.sends_.back().second, rto * 8);
  EXPECT_EQ(h.sender_->in_flight(), 0u);
}

TEST(ArqEstimatorTest, MinRtoAtInitialRtoKeepsTheFixedTimerSchedule) {
  ArqParams params;
  params.min_rto = params.initial_rto;
  ArqHarness h(0.0, 5, params);
  for (int i = 0; i < 5; ++i) h.exchange();  // samples taken, none bite
  EXPECT_GT(h.sender_->srtt(), kDurationZero);
  EXPECT_EQ(h.sender_->rto(), params.initial_rto);

  TimePoint failed_at{};
  h.sender_->set_on_failed(
      [&](uint64_t, const Status&) { failed_at = h.sim_.now(); });
  h.net_.set_node_up(h.b_, false);
  h.exchange();

  // No probe: 50 ms doubling to the 800 ms cap, 12 re-sends, give-up at
  // 7.95 s — the fixed-timer schedule.
  std::vector<Duration> expected = {kDurationZero};
  Duration interval = params.initial_rto;
  Duration at = kDurationZero;
  for (int i = 0; i < params.max_retries; ++i) {
    at = at + interval;
    expected.push_back(at);
    interval = std::min(interval * 2, params.max_rto);
  }
  EXPECT_EQ(h.send_offsets(5), expected);
  EXPECT_EQ(failed_at - h.sends_[5].second, milliseconds(7950));
}

}  // namespace
}  // namespace marea::proto
