#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <filesystem>
#include <memory>
#include <thread>

#include "obs/obs.h"
#include "sim/network.h"
#include "transport/send_retry.h"
#include "transport/sim_transport.h"
#include "transport/tcp_model.h"
#include "transport/udp_transport.h"
#include "transport/uring_transport.h"

namespace marea::transport {
namespace {

class SimTransportTest : public ::testing::Test {
 protected:
  SimTransportTest() : net_(sim_, Rng(3)) {
    a_node_ = net_.add_node("a");
    b_node_ = net_.add_node("b");
    a_ = std::make_unique<SimTransport>(net_, a_node_);
    b_ = std::make_unique<SimTransport>(net_, b_node_);
  }

  sim::Simulator sim_;
  sim::SimNetwork net_;
  sim::NodeId a_node_, b_node_;
  std::unique_ptr<SimTransport> a_, b_;
};

TEST_F(SimTransportTest, BindSendReceive) {
  Buffer got;
  Address from_seen{};
  ASSERT_TRUE(b_->bind_frames(10, [&](Address from, SharedFrame frame) {
                  from_seen = from;
                  got = to_buffer(frame.view());
                }).is_ok());
  Buffer payload = {1, 2, 3};
  ASSERT_TRUE(a_->send_frame(20, Address{b_node_, 10},
                             a_->frame_pool().copy_in(payload))
                  .is_ok());
  sim_.run();
  EXPECT_EQ(got, payload);
  EXPECT_EQ(from_seen.host, a_node_);
  EXPECT_EQ(from_seen.port, 20);
}

TEST_F(SimTransportTest, MulticastGroupDelivery) {
  int got = 0;
  ASSERT_TRUE(
      b_->bind_frames(10, [&](Address, SharedFrame) { ++got; }).is_ok());
  ASSERT_TRUE(b_->join_group(500, 10).is_ok());
  Buffer payload = {9};
  ASSERT_TRUE(
      a_->send_frame_multicast(10, 500, a_->frame_pool().copy_in(payload))
          .is_ok());
  sim_.run();
  EXPECT_EQ(got, 1);
  b_->leave_group(500, 10);
  (void)a_->send_frame_multicast(10, 500, a_->frame_pool().copy_in(payload));
  sim_.run();
  EXPECT_EQ(got, 1);
}

TEST_F(SimTransportTest, BroadcastDelivery) {
  int got = 0;
  ASSERT_TRUE(
      b_->bind_frames(10, [&](Address, SharedFrame) { ++got; }).is_ok());
  Buffer payload = {7};
  ASSERT_TRUE(
      a_->send_frame_broadcast(10, 10, a_->frame_pool().copy_in(payload))
          .is_ok());
  sim_.run();
  EXPECT_EQ(got, 1);
}

TEST_F(SimTransportTest, SendToManySharesOneFrame) {
  const sim::NodeId c_node = net_.add_node("c");
  SimTransport c(net_, c_node);
  std::vector<std::pair<Address, Address>> got;  // (receiver, sender)
  std::vector<const uint8_t*> bytes;
  auto receiver = [&](Transport& t, uint16_t port) {
    ASSERT_TRUE(t.bind_frames(port, [&, host = t.local_host(),
                                     port](Address from, SharedFrame frame) {
                   got.push_back({Address{host, port}, from});
                   bytes.push_back(frame.view().data());
                 }).is_ok());
  };
  receiver(*b_, 10);
  receiver(*b_, 11);
  receiver(c, 10);
  const Address dst[] = {{b_node_, 10}, {b_node_, 11}, {c_node, 10},
                         {c_node, 99}};
  const uint64_t copies = net_.stats().payload_copies;

  // SimTransport keeps the base fan-out: one send_frame per destination,
  // every one sharing the same pooled frame.
  Transport& sender = *a_;
  const Buffer payload = {4, 5, 6};
  ASSERT_TRUE(sender.send_frame_to_many(20, dst, 4,
                                        a_->frame_pool().copy_in(payload))
                  .is_ok());
  sim_.run();

  const Address from{a_node_, 20};
  ASSERT_EQ(got.size(), 3u);
  EXPECT_EQ(got[0], (std::pair{dst[0], from}));
  EXPECT_EQ(got[1], (std::pair{dst[1], from}));
  EXPECT_EQ(got[2], (std::pair{dst[2], from}));
  EXPECT_EQ(bytes[1], bytes[0]);
  EXPECT_EQ(bytes[2], bytes[0]);
  EXPECT_EQ(net_.stats().payload_copies, copies);
  EXPECT_EQ(net_.stats().packets_unroutable, 1u);
  EXPECT_EQ(to_string(dst[3]), std::to_string(c_node) + ":99");
}

TEST_F(SimTransportTest, MtuAndHostAccessors) {
  EXPECT_EQ(a_->local_host(), a_node_);
  EXPECT_EQ(a_->mtu(), net_.mtu());
}

// --- TCP model ---------------------------------------------------------------

class TcpModelTest : public ::testing::Test {
 protected:
  TcpModelTest() : net_(sim_, Rng(17)) {
    a_node_ = net_.add_node("a");
    b_node_ = net_.add_node("b");
    a_ = std::make_unique<SimTransport>(net_, a_node_);
    b_ = std::make_unique<SimTransport>(net_, b_node_);
  }

  void make_endpoints(TcpParams params = {}) {
    ea_ = std::make_unique<TcpModelEndpoint>(
        sim_, *a_, 100, Address{b_node_, 100}, params,
        [&](BytesView msg) { a_received_.push_back(to_buffer(msg)); });
    eb_ = std::make_unique<TcpModelEndpoint>(
        sim_, *b_, 100, Address{a_node_, 100}, params,
        [&](BytesView msg) { b_received_.push_back(to_buffer(msg)); });
  }

  Buffer msg(uint8_t tag, size_t n = 100) { return Buffer(n, tag); }

  sim::Simulator sim_;
  sim::SimNetwork net_;
  sim::NodeId a_node_, b_node_;
  std::unique_ptr<SimTransport> a_, b_;
  std::unique_ptr<TcpModelEndpoint> ea_, eb_;
  std::vector<Buffer> a_received_, b_received_;
};

TEST_F(TcpModelTest, LosslessDeliveryInOrder) {
  make_endpoints();
  for (uint8_t i = 0; i < 20; ++i) {
    ASSERT_TRUE(ea_->send_message(as_bytes_view(msg(i))).is_ok());
  }
  sim_.run();
  ASSERT_EQ(b_received_.size(), 20u);
  for (uint8_t i = 0; i < 20; ++i) {
    EXPECT_EQ(b_received_[i][0], i);  // strict order
  }
  EXPECT_EQ(eb_->stats().messages_delivered, 20u);
  EXPECT_EQ(ea_->unacked_bytes(), 0u);
}

TEST_F(TcpModelTest, BidirectionalTraffic) {
  make_endpoints();
  ASSERT_TRUE(ea_->send_message(as_bytes_view(msg(1))).is_ok());
  ASSERT_TRUE(eb_->send_message(as_bytes_view(msg(2))).is_ok());
  sim_.run();
  ASSERT_EQ(b_received_.size(), 1u);
  ASSERT_EQ(a_received_.size(), 1u);
  EXPECT_EQ(b_received_[0][0], 1);
  EXPECT_EQ(a_received_[0][0], 2);
}

TEST_F(TcpModelTest, LargeMessageSegmentsAndReassembles) {
  TcpParams params;
  params.mss = 500;
  make_endpoints(params);
  Buffer big(5000);
  for (size_t i = 0; i < big.size(); ++i) {
    big[i] = static_cast<uint8_t>(i * 31);
  }
  ASSERT_TRUE(ea_->send_message(as_bytes_view(big)).is_ok());
  sim_.run();
  ASSERT_EQ(b_received_.size(), 1u);
  EXPECT_EQ(b_received_[0], big);
  EXPECT_GE(ea_->stats().segments_sent, 10u);
}

TEST_F(TcpModelTest, RecoversFromLossViaRetransmission) {
  sim::LinkParams lossy;
  lossy.loss = 0.2;
  net_.set_link_symmetric(a_node_, b_node_, lossy);
  make_endpoints();
  for (uint8_t i = 0; i < 50; ++i) {
    ASSERT_TRUE(ea_->send_message(as_bytes_view(msg(i, 600))).is_ok());
  }
  sim_.run();
  ASSERT_EQ(b_received_.size(), 50u);
  for (uint8_t i = 0; i < 50; ++i) EXPECT_EQ(b_received_[i][0], i);
  EXPECT_GT(ea_->stats().retransmits, 0u);
}

TEST_F(TcpModelTest, HeadOfLineBlockingDelaysLaterMessages) {
  // Deterministically drop exactly the first data segment.
  make_endpoints();
  bool dropped_one = false;
  // Wrap: deliver by sending through a transport whose first segment we
  // kill by taking the node down for an instant is complex; instead use a
  // very lossy then clean link and just assert ordering was preserved
  // despite retransmits (order IS the head-of-line property).
  sim::LinkParams lossy;
  lossy.loss = 0.5;
  net_.set_link(a_node_, b_node_, lossy);
  for (uint8_t i = 0; i < 10; ++i) {
    ASSERT_TRUE(ea_->send_message(as_bytes_view(msg(i))).is_ok());
  }
  sim_.run_for(seconds(0.5));
  net_.set_link(a_node_, b_node_, sim::LinkParams{});
  sim_.run();
  ASSERT_EQ(b_received_.size(), 10u);
  for (uint8_t i = 0; i < 10; ++i) EXPECT_EQ(b_received_[i][0], i);
  (void)dropped_one;
}

TEST_F(TcpModelTest, RtoBacksOffAndFires) {
  make_endpoints();
  // Take the receiver down: every segment is lost, RTO must fire and back
  // off rather than spin.
  net_.set_node_up(b_node_, false);
  ASSERT_TRUE(ea_->send_message(as_bytes_view(msg(1))).is_ok());
  sim_.run_for(seconds(3.0));
  EXPECT_GE(ea_->stats().rto_fires, 2u);
  EXPECT_LE(ea_->stats().rto_fires, 12u);  // backoff caps the rate
  EXPECT_EQ(b_received_.size(), 0u);

  // Bring it back: delivery completes.
  net_.set_node_up(b_node_, true);
  sim_.run_for(seconds(3.0));
  EXPECT_EQ(b_received_.size(), 1u);
}

// --- real UDP (environment permitting) ----------------------------------------

TEST(UdpTransportTest, Ipv4Parsing) {
  EXPECT_EQ(ipv4_host("127.0.0.1"), 0x7F000001u);
  EXPECT_EQ(host_to_ipv4(0x7F000001u), "127.0.0.1");
  EXPECT_EQ(ipv4_host("not-an-ip"), 0u);
}

TEST(UdpTransportTest, BackendParsingAndSelection) {
  TransportBackend b = TransportBackend::kAuto;
  EXPECT_TRUE(parse_backend("epoll", &b));
  EXPECT_EQ(b, TransportBackend::kEpoll);
  EXPECT_TRUE(parse_backend("uring", &b));
  EXPECT_EQ(b, TransportBackend::kUring);
  EXPECT_TRUE(parse_backend("auto", &b));
  EXPECT_EQ(b, TransportBackend::kAuto);
  EXPECT_FALSE(parse_backend("kqueue", &b));
  // Explicit backends resolve to themselves regardless of environment.
  EXPECT_EQ(resolve_backend(TransportBackend::kEpoll),
            TransportBackend::kEpoll);
  EXPECT_EQ(resolve_backend(TransportBackend::kUring),
            TransportBackend::kUring);
  // Auto resolves to a concrete backend, uring only when supported.
  const TransportBackend resolved = resolve_backend(TransportBackend::kAuto);
  EXPECT_NE(resolved, TransportBackend::kAuto);
  if (!uring_supported()) {
    EXPECT_EQ(resolved, TransportBackend::kEpoll);
  }
}

// --- shared send-retry contract (send_retry.h) --------------------------------
// Scripted submit functions prove the semantics both kernel backends
// inherit: short accepts resubmit the tail without burning attempts,
// progress resets the transient budget, and EINTR is bounded on its own
// budget instead of spinning or consuming transient attempts.

TEST(SendRetryTest, ShortAcceptResubmitsTailWithoutBurningBudget) {
  SendRetryPolicy policy;
  policy.transient_attempts = 1;  // any "attempt" charged would abort
  std::vector<std::pair<size_t, size_t>> calls;
  const SendRetryResult r = retry_send_batches(
      8, policy, [&](size_t done, size_t remaining) -> int {
        calls.emplace_back(done, remaining);
        return remaining > 2 ? 3 : static_cast<int>(remaining);
      });
  EXPECT_EQ(r.accepted, 8u);
  EXPECT_EQ(r.error, 0);
  EXPECT_EQ(r.short_accepts, 2u);  // 3, 3, then the final 2 completes
  ASSERT_EQ(calls.size(), 3u);
  EXPECT_EQ(calls[1], (std::pair<size_t, size_t>{3, 5}));
  EXPECT_EQ(calls[2], (std::pair<size_t, size_t>{6, 2}));
}

TEST(SendRetryTest, ProgressResetsTransientBudget) {
  // Pattern: accept 1, then EAGAIN x2, repeatedly. With a budget of 3
  // the old non-resetting loop would abandon the tail after the second
  // pushback pair; the contract requires completion.
  SendRetryPolicy policy;
  policy.transient_attempts = 3;
  int phase = 0;
  const SendRetryResult r =
      retry_send_batches(4, policy, [&](size_t, size_t) -> int {
        if (phase++ % 3 == 0) return 1;
        return -EAGAIN;
      });
  EXPECT_EQ(r.accepted, 4u);
  EXPECT_EQ(r.error, 0);
}

TEST(SendRetryTest, ExhaustedTransientBudgetAbandonsTailLoudly) {
  SendRetryPolicy policy;
  policy.transient_attempts = 3;
  int calls = 0;
  const SendRetryResult r =
      retry_send_batches(5, policy, [&](size_t, size_t) -> int {
        ++calls;
        return calls == 1 ? 2 : -ENOBUFS;
      });
  EXPECT_EQ(r.accepted, 2u);
  EXPECT_EQ(r.error, ENOBUFS);
  EXPECT_EQ(calls, 1 + 3);  // one accept + exactly the transient budget
}

TEST(SendRetryTest, EintrBoundedSeparatelyFromTransientBudget) {
  // A long EINTR run must neither spin forever (the audit finding: the
  // retry loop 'continue'd on EINTR with no bound) nor consume the
  // transient budget meant for kernel pushback.
  SendRetryPolicy policy;
  policy.transient_attempts = 2;
  policy.eintr_attempts = 10;
  int eintrs = 0;
  const SendRetryResult ok =
      retry_send_batches(1, policy, [&](size_t, size_t) -> int {
        if (eintrs < 8) {
          ++eintrs;
          return -EINTR;
        }
        return 1;
      });
  EXPECT_EQ(ok.accepted, 1u);  // 8 EINTRs < budget: still completes
  EXPECT_EQ(ok.error, 0);

  int calls = 0;
  const SendRetryResult storm =
      retry_send_batches(1, policy, [&](size_t, size_t) -> int {
        ++calls;
        return -EINTR;
      });
  EXPECT_EQ(storm.accepted, 0u);
  EXPECT_EQ(storm.error, EINTR);  // bounded: fails instead of spinning
  EXPECT_EQ(calls, policy.eintr_attempts);
}

TEST(SendRetryTest, ZeroReturnTreatedAsTransient) {
  SendRetryPolicy policy;
  policy.transient_attempts = 2;
  int calls = 0;
  const SendRetryResult r = retry_send_batches(
      3, policy, [&](size_t, size_t) -> int {
        ++calls;
        return 0;
      });
  EXPECT_EQ(r.accepted, 0u);
  EXPECT_EQ(r.error, EAGAIN);
  EXPECT_EQ(calls, policy.transient_attempts);
}

// --- live kernel-backend concurrency / parity suite ---------------------------
// Every test runs against both kernel datapaths (epoll and io_uring);
// the uring leg skips cleanly on kernels without io_uring support, and
// MAREA_TRANSPORT=<backend> filters to a single leg.

namespace {

class LiveBackendTest : public ::testing::TestWithParam<const char*> {
 protected:
  void SetUp() override {
    const std::string_view backend = GetParam();
    if (backend == "uring" && !uring_supported()) {
      GTEST_SKIP() << "io_uring unsupported on this kernel";
    }
    if (const char* only = std::getenv("MAREA_TRANSPORT")) {
      if (std::string_view(only) != backend) {
        GTEST_SKIP() << "MAREA_TRANSPORT=" << only << " filters this leg";
      }
    }
  }

  std::unique_ptr<LiveTransport> make_live(const char* ip,
                                           LiveTransportOptions options = {}) {
    TransportConfig config;
    EXPECT_TRUE(parse_backend(GetParam(), &config.backend));
    config.options = options;
    try {
      return make_live_transport(ip, config);
    } catch (const std::exception&) {
      return nullptr;
    }
  }
};

INSTANTIATE_TEST_SUITE_P(Backends, LiveBackendTest,
                         ::testing::Values("epoll", "uring"),
                         [](const auto& info) {
                           return std::string(info.param);
                         });

TEST_P(LiveBackendTest, LoopbackSendReceive) {
  auto t1 = make_live("127.0.0.1");
  auto t2 = make_live("127.0.0.2");
  if (!t1 || !t2) GTEST_SKIP() << "UDP sockets unavailable";
  EXPECT_STREQ(t1->backend(), GetParam());

  std::atomic<int> got{0};
  Status s = t2->bind_frames(9100, [&](Address, SharedFrame frame) {
    if (frame.size() == 3) got.fetch_add(1);
  });
  if (!s.is_ok()) GTEST_SKIP() << "bind failed: " << s.to_string();

  Buffer payload = {1, 2, 3};
  for (int i = 0; i < 5 && got.load() == 0; ++i) {
    (void)t1->send_frame(9100, Address{ipv4_host("127.0.0.2"), 9100},
                         t1->frame_pool().copy_in(payload));
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
  EXPECT_GT(got.load(), 0);

  // The backend-specific counters witness which datapath actually ran:
  // nonzero ring counters on uring, all-zero on epoll.
  const auto txc = t1->net_counters();
  const auto rxc = t2->net_counters();
  EXPECT_GE(txc.frames_sent, 1u);
  EXPECT_GE(rxc.frames_received, 1u);
  if (std::string_view(GetParam()) == "uring") {
    EXPECT_GT(txc.uring_sqe_submitted, 0u);
    EXPECT_GT(rxc.uring_buf_ring_refills, 0u);
    EXPECT_GT(rxc.uring_cqe_batch, 0u);
  } else {
    EXPECT_EQ(txc.uring_sqe_submitted, 0u);
    EXPECT_EQ(rxc.uring_buf_ring_refills, 0u);
  }
}

// Payloads carry their logical destination tag in the first two bytes so
// a misrouted delivery (fd reuse, handler mixup) is detectable by the
// handler that receives it.
Buffer tagged_payload(uint16_t tag, size_t n = 32) {
  Buffer b(n, 0xAB);
  b[0] = static_cast<uint8_t>(tag & 0xFF);
  b[1] = static_cast<uint8_t>(tag >> 8);
  return b;
}

uint16_t tag_of(BytesView d) {
  return d.size() >= 2 ? static_cast<uint16_t>(d[0] | (d[1] << 8)) : 0;
}

}  // namespace

TEST_P(LiveBackendTest, MulticastPortCollisionRejected) {
  auto t = make_live("127.0.0.1");
  if (!t) GTEST_SKIP() << "UDP sockets unavailable in this environment";

  // Direction 1: the canonical port of group 700 is already bound as a
  // plain unicast port -> joining the group must be rejected, not masked
  // by SO_REUSEPORT.
  ASSERT_TRUE(t->bind_frames(9200, [](Address, SharedFrame) {}).is_ok());
  Status s = t->bind_frames(multicast_port(700), [](Address, SharedFrame) {});
  if (!s.is_ok()) GTEST_SKIP() << "bind failed: " << s.to_string();
  Status join = t->join_group(700, 9200);
  EXPECT_FALSE(join.is_ok());
  EXPECT_TRUE(join.to_string().find("collides") != std::string::npos)
      << join.to_string();

  // Direction 2: group joined first -> binding its canonical port as a
  // unicast port must be rejected.
  auto t2 = make_live("127.0.0.2");
  if (!t2) GTEST_SKIP() << "UDP sockets unavailable";
  ASSERT_TRUE(t2->bind_frames(9300, [](Address, SharedFrame) {}).is_ok());
  Status join2 = t2->join_group(701, 9300);
  if (!join2.is_ok()) GTEST_SKIP() << "join failed: " << join2.to_string();
  Status bind2 =
      t2->bind_frames(multicast_port(701), [](Address, SharedFrame) {});
  EXPECT_FALSE(bind2.is_ok());
  EXPECT_TRUE(bind2.to_string().find("collides") != std::string::npos)
      << bind2.to_string();
}

TEST_P(LiveBackendTest, TruncatedDatagramDroppedWithCounterAndTrace) {
  // Declared before the transports: the registry must outlive the
  // transport whose collector is registered in it.
  obs::Observability obs;

  LiveTransportOptions small;
  small.recv_buffer = 512;
  auto rx = make_live("127.0.0.2", small);
  auto tx = make_live("127.0.0.1");
  if (!rx || !tx) GTEST_SKIP() << "UDP sockets unavailable";

  rx->set_obs(&obs, "net");

  // One port per backend: under parallel ctest both instances run at
  // once, and a shared reusable port would split the datagrams between
  // them.
  const uint16_t port = std::string_view(GetParam()) == "uring" ? 9901 : 9900;
  std::atomic<int> delivered{0};
  std::atomic<size_t> last_size{0};
  Status s = rx->bind_frames(port, [&](Address, SharedFrame frame) {
    delivered.fetch_add(1);
    last_size.store(frame.size());
  });
  if (!s.is_ok()) GTEST_SKIP() << "bind failed: " << s.to_string();

  Address dst{ipv4_host("127.0.0.2"), port};
  Buffer big(1000, 0x5A);
  for (int i = 0; i < 5 && rx->net_counters().drops_truncated == 0; ++i) {
    (void)tx->send_frame(port, dst, tx->frame_pool().copy_in(big));
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
  EXPECT_GE(rx->net_counters().drops_truncated, 1u);
  EXPECT_EQ(delivered.load(), 0) << "clipped frame must not be delivered";

  // A fitting datagram still flows afterwards (the batch slot recovered).
  Buffer small_payload(100, 0x11);
  for (int i = 0; i < 5 && delivered.load() == 0; ++i) {
    (void)tx->send_frame(port, dst, tx->frame_pool().copy_in(small_payload));
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
  EXPECT_GT(delivered.load(), 0);
  EXPECT_EQ(last_size.load(), 100u);

  // The drop is visible through the registry and the flight recorder.
  obs.metrics.collect();
  EXPECT_GE(obs.metrics.counter_value("net.drops_truncated"), 1u);
  bool saw_drop_trace = false;
  for (const auto& r : obs.trace.snapshot()) {
    if (r.event == static_cast<uint16_t>(obs::TraceEvent::kDrop) &&
        r.kind == static_cast<uint16_t>(obs::TraceKind::kNet)) {
      saw_drop_trace = true;
    }
  }
  EXPECT_TRUE(saw_drop_trace);
}

TEST_P(LiveBackendTest, BroadcastReachesPeersNotSelf) {
  auto t1 = make_live("127.0.0.1");
  auto t2 = make_live("127.0.0.2");
  auto t3 = make_live("127.0.0.3");
  if (!t1 || !t2 || !t3) GTEST_SKIP() << "UDP sockets unavailable";
  HostId h1 = ipv4_host("127.0.0.1");
  HostId h2 = ipv4_host("127.0.0.2");
  HostId h3 = ipv4_host("127.0.0.3");
  t1->set_peers({h1, h2, h3});  // includes self: must be skipped

  std::atomic<int> self_got{0}, got2{0}, got3{0};
  Status s1 = t1->bind_frames(9210, [&](Address, SharedFrame) { self_got++; });
  Status s2 = t2->bind_frames(9210, [&](Address, SharedFrame) { got2++; });
  Status s3 = t3->bind_frames(9210, [&](Address, SharedFrame) { got3++; });
  if (!s1.is_ok() || !s2.is_ok() || !s3.is_ok()) {
    GTEST_SKIP() << "bind failed";
  }

  Buffer payload = tagged_payload(9210);
  for (int i = 0; i < 10 && (got2.load() == 0 || got3.load() == 0); ++i) {
    ASSERT_TRUE(t1->send_frame_broadcast(9210, 9210,
                                         t1->frame_pool().copy_in(payload))
                    .is_ok());
    std::this_thread::sleep_for(std::chrono::milliseconds(30));
  }
  EXPECT_GT(got2.load(), 0);
  EXPECT_GT(got3.load(), 0);
  EXPECT_EQ(self_got.load(), 0) << "broadcast must skip the local host";
  EXPECT_GE(t1->net_counters().frames_sent, 2u);
}

TEST_P(LiveBackendTest, MulticastOwnLoopbackCopyFiltered) {
  auto t1 = make_live("127.0.0.1");
  auto t2 = make_live("127.0.0.2");
  if (!t1 || !t2) GTEST_SKIP() << "UDP sockets unavailable";

  std::atomic<int> got1{0}, got2{0};
  Status s1 = t1->bind_frames(9220, [&](Address, SharedFrame) { got1++; });
  Status s2 = t2->bind_frames(9220, [&](Address, SharedFrame) { got2++; });
  if (!s1.is_ok() || !s2.is_ok()) GTEST_SKIP() << "bind failed";
  Status j1 = t1->join_group(930, 9220);
  Status j2 = t2->join_group(930, 9220);
  if (!j1.is_ok() || !j2.is_ok()) {
    GTEST_SKIP() << "multicast unavailable: " << j1.to_string() << " / "
                 << j2.to_string();
  }

  Buffer payload = tagged_payload(multicast_port(930));
  for (int i = 0; i < 10 && got2.load() == 0; ++i) {
    ASSERT_TRUE(t1->send_frame_multicast(9220, 930,
                                         t1->frame_pool().copy_in(payload))
                    .is_ok());
    std::this_thread::sleep_for(std::chrono::milliseconds(30));
  }
  if (got2.load() == 0) GTEST_SKIP() << "no multicast traffic on loopback";
  EXPECT_EQ(got1.load(), 0) << "sender's own loopback copy must be filtered";
  EXPECT_GE(t1->net_counters().own_copies_filtered, 1u);
}

TEST_P(LiveBackendTest, FrameBindDeliversRetainablePooledFrame) {
  auto tx = make_live("127.0.0.1");
  auto rx = make_live("127.0.0.2");
  if (!tx || !rx) GTEST_SKIP() << "UDP sockets unavailable";

  std::mutex mu;
  SharedFrame kept;
  std::atomic<int> got{0};
  Status s = rx->bind_frames(9230, [&](Address, SharedFrame frame) {
    std::lock_guard lock(mu);
    kept = std::move(frame);  // retained past the callback, no copy
    got.fetch_add(1);
  });
  if (!s.is_ok()) GTEST_SKIP() << "bind failed: " << s.to_string();

  // Build the outgoing frame in the sender's pool and fan it out.
  FrameLease lease = tx->frame_pool().acquire(64);
  Buffer& buf = lease.buffer();
  Buffer payload = tagged_payload(9230, 48);
  buf.assign(payload.begin(), payload.end());
  SharedFrame out = std::move(lease).freeze();
  for (int i = 0; i < 5 && got.load() == 0; ++i) {
    ASSERT_TRUE(
        tx->send_frame(9230, Address{ipv4_host("127.0.0.2"), 9230}, out)
            .is_ok());
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
  ASSERT_GT(got.load(), 0);

  std::lock_guard lock(mu);
  ASSERT_EQ(kept.size(), payload.size());
  EXPECT_TRUE(std::equal(payload.begin(), payload.end(),
                         kept.view().begin()));
  EXPECT_EQ(tag_of(kept.view()), 9230);
  // The whole receive path moved pooled slabs around: zero user-space
  // payload copies.
  EXPECT_EQ(rx->net_counters().payload_bytes_copied, 0u);
}

// Regression for the two seed concurrency bugs: send() serialized under
// the poll loop's mutex across the sendto syscall, and handler lookup by
// raw fd could misroute a datagram to a just-rebound socket after fd
// reuse. N sender threads hammer tagged traffic at a stable port and at
// churning ports while another thread binds/unbinds them; every handler
// checks the tag of what it received.
TEST_P(LiveBackendTest, ConcurrentSendersAndBindChurnNoMisroute) {
  auto tx = make_live("127.0.0.1");
  auto rx = make_live("127.0.0.2");
  if (!tx || !rx) GTEST_SKIP() << "UDP sockets unavailable";

  std::atomic<int> misroutes{0};
  std::atomic<int> stable_got{0};
  std::atomic<int> churn_got{0};

  auto checker = [&](uint16_t port, std::atomic<int>& counter) {
    return [&, port](Address, SharedFrame frame) {
      if (tag_of(frame.view()) != port) {
        misroutes.fetch_add(1);
      } else {
        counter.fetch_add(1);
      }
    };
  };

  // One port range per backend, so the two instances can run at once
  // under parallel ctest without feeding each other's sockets.
  const uint16_t base_port =
      std::string_view(GetParam()) == "uring" ? 9340 : 9240;
  const uint16_t kStable = base_port;
  const uint16_t kChurnA = base_port + 1;
  const uint16_t kChurnB = base_port + 2;
  const uint16_t kSrc = base_port + 10;
  Status s = rx->bind_frames(kStable, checker(kStable, stable_got));
  if (!s.is_ok()) GTEST_SKIP() << "bind failed: " << s.to_string();

  std::atomic<bool> stop{false};
  Address base{ipv4_host("127.0.0.2"), 0};

  std::thread churn([&] {
    // Alternate the two churn ports so a freed fd is immediately
    // recycled into a socket with a DIFFERENT expected tag — the exact
    // shape of the seed's fd-reuse misroute.
    while (!stop.load()) {
      (void)rx->bind_frames(kChurnA, checker(kChurnA, churn_got));
      std::this_thread::sleep_for(std::chrono::microseconds(200));
      rx->unbind(kChurnA);
      (void)rx->bind_frames(kChurnB, checker(kChurnB, churn_got));
      std::this_thread::sleep_for(std::chrono::microseconds(200));
      rx->unbind(kChurnB);
    }
  });

  std::vector<std::thread> senders;
  for (int t = 0; t < 3; ++t) {
    senders.emplace_back([&, t] {
      Buffer stable_pay = tagged_payload(kStable);
      Buffer a_pay = tagged_payload(kChurnA);
      Buffer b_pay = tagged_payload(kChurnB);
      uint16_t src = static_cast<uint16_t>(kSrc + t);
      while (!stop.load()) {
        FramePool& pool = tx->frame_pool();
        (void)tx->send_frame(src, Address{base.host, kStable},
                             pool.copy_in(stable_pay));
        (void)tx->send_frame(src, Address{base.host, kChurnA},
                             pool.copy_in(a_pay));
        (void)tx->send_frame(src, Address{base.host, kChurnB},
                             pool.copy_in(b_pay));
        std::this_thread::sleep_for(std::chrono::microseconds(100));
      }
    });
  }

  // Let the storm run; completing at all proves send no longer
  // serializes receive dispatch to death.
  std::this_thread::sleep_for(std::chrono::milliseconds(600));
  stop.store(true);
  churn.join();
  for (auto& th : senders) th.join();

  EXPECT_EQ(misroutes.load(), 0)
      << "datagram delivered to a handler with the wrong tag";
  EXPECT_GT(stable_got.load(), 50);
  // Unbind barrier: after unbind() returns no further deliveries occur.
  // The snapshot is taken after unbind() returns: a datagram the senders
  // left in flight may still land while unbind() runs.
  rx->unbind(kStable);
  const int snapshot = stable_got.load();
  Buffer pay = tagged_payload(kStable);
  for (int i = 0; i < 3; ++i) {
    (void)tx->send_frame(kSrc, Address{base.host, kStable},
                         tx->frame_pool().copy_in(pay));
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  EXPECT_EQ(stable_got.load(), snapshot);
}

// Waits up to ~2 s for `done()`, polling every 10 ms.
template <typename Pred>
bool wait_until(Pred done) {
  for (int i = 0; i < 200 && !done(); ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  return done();
}

size_t open_fd_count() {
  size_t n = 0;
  for (const auto& e : std::filesystem::directory_iterator("/proc/self/fd")) {
    (void)e;
    ++n;
  }
  return n;
}

// The socket-table contract both backends share: bind collisions,
// join preconditions, rebind handler replacement, leave, and batched
// fan-out beyond one 32-message batch.
TEST_P(LiveBackendTest, SocketTableContract) {
  auto tx = make_live("127.0.0.1");
  auto rx = make_live("127.0.0.2");
  if (!tx || !rx) GTEST_SKIP() << "UDP sockets unavailable";
  const HostId rx_host = ipv4_host("127.0.0.2");
  Buffer payload = tagged_payload(1);
  // One port range per backend: both legs may run at once under ctest.
  const bool uring = std::string_view(GetParam()) == "uring";
  const uint16_t base = uring ? 11700 : 11600;

  // A duplicate bind of a live port is rejected.
  ASSERT_TRUE(rx->bind_frames(base, [](Address, SharedFrame) {}).is_ok());
  EXPECT_EQ(rx->bind_frames(base, [](Address, SharedFrame) {}).code(),
            StatusCode::kAlreadyExists);

  // A group member port must be bound before the join.
  const GroupId group = uring ? 941 : 940;
  EXPECT_EQ(rx->join_group(group, 1).code(), StatusCode::kFailedPrecondition);

  // After unbind and a rebind of the same port only the new handler runs.
  std::atomic<int> old_got{0}, new_got{0};
  const uint16_t port = base + 1;
  ASSERT_TRUE(
      rx->bind_frames(port, [&](Address, SharedFrame) { old_got++; }).is_ok());
  rx->unbind(port);
  ASSERT_TRUE(
      rx->bind_frames(port, [&](Address, SharedFrame) { new_got++; }).is_ok());
  ASSERT_TRUE(wait_until([&] {
    (void)tx->send_frame(0, Address{rx_host, port},
                         tx->frame_pool().copy_in(payload));
    return new_got.load() > 0;
  }));
  EXPECT_EQ(old_got.load(), 0);

  // leave_group stops group delivery.
  std::atomic<int> group_got{0};
  const uint16_t member = base + 2;
  ASSERT_TRUE(rx->bind_frames(member, [&](Address, SharedFrame) {
                  group_got++;
                }).is_ok());
  Status join = rx->join_group(group, member);
  if (join.is_ok()) {
    const bool flowed = wait_until([&] {
      (void)tx->send_frame_multicast(0, group,
                                     tx->frame_pool().copy_in(payload));
      return group_got.load() > 0;
    });
    rx->leave_group(group, member);
    if (flowed) {
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
      const int before = group_got.load();
      for (int i = 0; i < 3; ++i) {
        (void)tx->send_frame_multicast(0, group,
                                       tx->frame_pool().copy_in(payload));
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(100));
      EXPECT_EQ(group_got.load(), before);
    }
  }

  // send_frame_to_many past one 32-message batch reaches each sink once.
  constexpr size_t kSinks = 40;
  std::atomic<int> sink_got[kSinks] = {};
  std::vector<Address> sinks;
  for (size_t i = 0; i < kSinks; ++i) {
    const auto sink = static_cast<uint16_t>(base + 10 + i);
    ASSERT_TRUE(rx->bind_frames(sink, [&, i](Address, SharedFrame) {
                    sink_got[i]++;
                  }).is_ok());
    sinks.push_back(Address{rx_host, sink});
  }
  FrameLease lease = tx->frame_pool().acquire(payload.size());
  lease.buffer().assign(payload.begin(), payload.end());
  ASSERT_TRUE(tx->send_frame_to_many(0, sinks.data(), sinks.size(),
                                     std::move(lease).freeze())
                  .is_ok());
  EXPECT_TRUE(wait_until([&] {
    for (const auto& g : sink_got) {
      if (g.load() == 0) return false;
    }
    return true;
  }));
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  for (size_t i = 0; i < kSinks; ++i) {
    EXPECT_EQ(sink_got[i].load(), 1) << "sink " << i;
  }
}

// The one user-space payload copy on a live transport's send side is a
// bytes sender's copy_in into the transport's pool; it is counted, and
// the frame send path makes none.
TEST_P(LiveBackendTest, BytesSendCountsOneIngressCopy) {
  auto tx = make_live("127.0.0.1");
  if (!tx) GTEST_SKIP() << "UDP sockets unavailable";
  // Nobody listens at the destination: only the sender's counters count.
  const Address dst{ipv4_host("127.0.0.2"), 9};
  Buffer payload = tagged_payload(2, 100);

  auto before = tx->net_counters();
  ASSERT_TRUE(
      tx->send_frame(0, dst, tx->frame_pool().copy_in(payload)).is_ok());
  auto after = tx->net_counters();
  EXPECT_EQ(after.payload_copies - before.payload_copies, 1u);
  EXPECT_EQ(after.payload_bytes_copied - before.payload_bytes_copied,
            payload.size());

  FrameLease lease = tx->frame_pool().acquire(payload.size());
  lease.buffer().assign(payload.begin(), payload.end());
  SharedFrame frame = std::move(lease).freeze();
  before = tx->net_counters();
  ASSERT_TRUE(tx->send_frame(0, dst, frame).is_ok());
  after = tx->net_counters();
  EXPECT_EQ(after.payload_copies, before.payload_copies);
  EXPECT_EQ(after.payload_bytes_copied, before.payload_bytes_copied);
  EXPECT_EQ(after.frames_sent - before.frames_sent, 1u);
}

// More binds in one burst than the receive ring has SQ entries: every
// socket still gets armed (each receives a datagram), and unbinding them
// all releases every fd.
TEST_P(LiveBackendTest, BindBurstBeyondRingDepthArmsAndReleasesAll) {
  auto tx = make_live("127.0.0.1");
  auto rx = make_live("127.0.0.2");
  if (!tx || !rx) GTEST_SKIP() << "UDP sockets unavailable";
  const HostId rx_host = ipv4_host("127.0.0.2");
  Buffer payload = tagged_payload(3);
  // Opens the sender's lazily created send socket before the baseline.
  (void)tx->send_frame(0, Address{rx_host, 9},
                       tx->frame_pool().copy_in(payload));
  const size_t fds_before = open_fd_count();

  constexpr size_t kSockets = 300;
  std::vector<std::atomic<int>> got(kSockets);
  std::vector<uint16_t> ports;
  for (size_t i = 0; i < kSockets; ++i) {
    Status s = rx->bind_frames(0, [&, i](Address, SharedFrame) { got[i]++; });
    ASSERT_TRUE(s.is_ok()) << i << ": " << s.to_string();
    ports.push_back(rx->bound_port(0));
  }
  EXPECT_TRUE(wait_until([&] {
    bool all = true;
    for (size_t i = 0; i < kSockets; ++i) {
      if (got[i].load() > 0) continue;
      all = false;
      (void)tx->send_frame(0, Address{rx_host, ports[i]},
                           tx->frame_pool().copy_in(payload));
    }
    return all;
  }));
  size_t deaf = 0;
  for (const auto& g : got) deaf += g.load() == 0 ? 1 : 0;
  EXPECT_EQ(deaf, 0u) << "sockets never armed";

  for (uint16_t p : ports) rx->unbind(p);
  EXPECT_TRUE(wait_until([&] { return open_fd_count() == fds_before; }))
      << open_fd_count() << " fds open, " << fds_before << " before";
}

}  // namespace
}  // namespace marea::transport
