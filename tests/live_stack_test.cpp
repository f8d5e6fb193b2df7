// The non-simulated stack: ServiceContainer on a single-worker
// ThreadPoolExecutor over real loopback UDP sockets, parameterized over
// both kernel transport backends (epoll and io_uring). Skipped cleanly
// when the environment forbids sockets or lacks io_uring. All container
// interaction happens on the container's own executor, matching the
// documented threading model.
#include <gtest/gtest.h>

#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <memory>
#include <string_view>
#include <thread>
#include <vector>

#include "encoding/typed.h"
#include "middleware/container.h"
#include "sched/thread_pool.h"
#include "transport/live_transport.h"

namespace marea::mw {
namespace {

struct Ping {
  int32_t n = 0;
};

}  // namespace
}  // namespace marea::mw

MAREA_REFLECT(marea::mw::Ping, n)

namespace marea::mw {
namespace {

class LivePublisher final : public Service {
 public:
  LivePublisher() : Service("live_pub") {}
  Status on_start() override {
    auto v = provide_variable<Ping>(
        "live.ping", {.period = milliseconds(20), .validity = seconds(1.0)});
    if (!v.ok()) return v.status();
    var_ = *v;
    auto e = provide_event<Ping>("live.evt");
    if (!e.ok()) return e.status();
    evt_ = *e;
    Status s = provide_function(
        "live.echo", enc::bytes_type(), enc::bytes_type(),
        [](const enc::Value& v) -> StatusOr<enc::Value> { return v; });
    if (!s.is_ok()) return s;
    tick();
    return Status::ok();
  }
  void tick() {
    Ping p;
    p.n = n_++;
    (void)var_.publish(p);
    if (n_ % 5 == 0) (void)evt_.publish(p);
    schedule(milliseconds(20), [this] { tick(); },
             sched::Priority::kVariable);
  }

 private:
  VariableHandle var_;
  EventHandle evt_;
  int n_ = 0;
};

class LiveConsumer final : public Service {
 public:
  LiveConsumer() : Service("live_sub") {}
  Status on_start() override {
    Status s = subscribe_variable<Ping>(
        "live.ping",
        [this](const Ping&, const SampleInfo&) { samples.fetch_add(1); });
    if (!s.is_ok()) return s;
    s = subscribe_event<Ping>(
        "live.evt",
        [this](const Ping&, const EventInfo&) { events.fetch_add(1); });
    if (!s.is_ok()) return s;
    try_echo();
    return Status::ok();
  }
  // Real network + loaded host: retry the call until it lands.
  void try_echo() {
    if (rpc_ok.load()) return;
    call("live.echo", enc::Value::of_bytes({1, 2, 3}),
         [this](StatusOr<enc::Value> r) {
           if (r.ok() && r->as_bytes().size() == 3) {
             rpc_ok.store(true);
           } else {
             schedule(milliseconds(200), [this] { try_echo(); },
                      sched::Priority::kRpc);
           }
         },
         {.timeout = seconds(1.0)});
  }
  std::atomic<int> samples{0};
  std::atomic<int> events{0};
  std::atomic<bool> rpc_ok{false};
};

class LiveStackTest : public ::testing::TestWithParam<const char*> {
 protected:
  void SetUp() override {
    const std::string_view backend = GetParam();
    if (backend == "uring" && !transport::uring_supported()) {
      GTEST_SKIP() << "io_uring unsupported on this kernel";
    }
    if (const char* only = std::getenv("MAREA_TRANSPORT")) {
      if (std::string_view(only) != backend) {
        GTEST_SKIP() << "MAREA_TRANSPORT=" << only << " filters this leg";
      }
    }
  }

  std::unique_ptr<transport::LiveTransport> make_live(const char* ip) {
    transport::TransportConfig config;
    EXPECT_TRUE(transport::parse_backend(GetParam(), &config.backend));
    try {
      return transport::make_live_transport(ip, config);
    } catch (const std::exception&) {
      return nullptr;
    }
  }
};

INSTANTIATE_TEST_SUITE_P(Backends, LiveStackTest,
                         ::testing::Values("epoll", "uring"),
                         [](const auto& info) {
                           return std::string(info.param);
                         });

TEST_P(LiveStackTest, AllPrimitivesOverRealUdpAndThreads) {
  std::unique_ptr<transport::LiveTransport> t1 = make_live("127.0.0.1");
  std::unique_ptr<transport::LiveTransport> t2 = make_live("127.0.0.2");
  if (!t1 || !t2) GTEST_SKIP() << "UDP sockets unavailable";
  transport::HostId h1 = transport::ipv4_host("127.0.0.1");
  transport::HostId h2 = transport::ipv4_host("127.0.0.2");

  sched::ThreadPoolExecutor e1(1), e2(1);

  // data_port 0: the kernel picks free ports, so concurrently running
  // test binaries can never collide. The resolved ports propagate into
  // config().data_port via bind_transport() and from there into the
  // broadcast peer list below.
  ContainerConfig c1;
  c1.id = 1;
  c1.node_name = "live-a";
  c1.data_port = 0;
  c1.use_multicast = false;
  ServiceContainer pub(c1, *t1, e1);
  (void)pub.add_service(std::make_unique<LivePublisher>());

  ContainerConfig c2;
  c2.id = 2;
  c2.node_name = "live-b";
  c2.data_port = 0;
  c2.use_multicast = false;
  ServiceContainer sub(c2, *t2, e2);
  auto consumer = std::make_unique<LiveConsumer>();
  auto* consumer_ptr = consumer.get();
  (void)sub.add_service(std::move(consumer));

  std::atomic<bool> bound1{false}, bound2{false};
  e1.post(sched::Priority::kBackground,
          [&] { bound1 = pub.bind_transport().is_ok(); });
  e2.post(sched::Priority::kBackground,
          [&] { bound2 = sub.bind_transport().is_ok(); });
  e1.drain();
  e2.drain();
  ASSERT_TRUE(bound1.load());
  ASSERT_TRUE(bound2.load());
  std::vector<transport::Address> peers = {
      {h1, pub.config().data_port}, {h2, sub.config().data_port}};
  t1->set_peers(peers);
  t2->set_peers(peers);

  std::atomic<bool> started1{false}, started2{false};
  e1.post(sched::Priority::kBackground, [&] {
    started1 = pub.start().is_ok();
  });
  e2.post(sched::Priority::kBackground, [&] {
    started2 = sub.start().is_ok();
  });

  // Bind-while-polling churn: unrelated ports on both transports come and
  // go under full middleware traffic. The epoll dispatch loop must keep
  // routing container datagrams to the right handler throughout (the seed
  // transport's fd-reuse lookup made this window dangerous).
  std::atomic<bool> churn_stop{false};
  std::atomic<int> churn_misroutes{0};
  // pid-spread base keeps concurrent test binaries off each other's ports.
  const uint16_t churn_base =
      static_cast<uint16_t>(20000 + (::getpid() % 2000) * 4);
  std::thread churn([&] {
    int k = 0;
    while (!churn_stop.load()) {
      uint16_t port = static_cast<uint16_t>(churn_base + (k++ % 4));
      auto* t = (k % 2) ? t1.get() : t2.get();
      (void)t->bind_frames(port, [&, port](transport::Address,
                                           SharedFrame frame) {
        BytesView data = frame.view();
        if (data.size() >= 2 &&
            (data[0] | (data[1] << 8)) != port) {
          churn_misroutes.fetch_add(1);
        }
      });
      std::this_thread::sleep_for(std::chrono::microseconds(300));
      t->unbind(port);
    }
  });

  auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(8);
  while (std::chrono::steady_clock::now() < deadline) {
    if (consumer_ptr->samples.load() > 20 &&
        consumer_ptr->events.load() > 2 && consumer_ptr->rpc_ok.load()) {
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
  churn_stop.store(true);
  churn.join();
  EXPECT_EQ(churn_misroutes.load(), 0);

  EXPECT_TRUE(started1.load());
  EXPECT_TRUE(started2.load());
  if (consumer_ptr->samples.load() == 0) {
    consumer_ptr->rpc_ok.store(true);  // silence the retry loop
    e1.post(sched::Priority::kBackground, [&] { pub.stop(); });
    e2.post(sched::Priority::kBackground, [&] { sub.stop(); });
    e1.drain();
    e2.drain();
    std::this_thread::sleep_for(std::chrono::milliseconds(300));
    e1.drain();
    e2.drain();
    GTEST_SKIP() << "no UDP traffic crossed loopback (restricted net)";
  }
  EXPECT_GT(consumer_ptr->samples.load(), 20);
  EXPECT_GT(consumer_ptr->events.load(), 2);
  EXPECT_TRUE(consumer_ptr->rpc_ok.load());

  // Teardown: silence the retry loop, stop containers, then give any
  // already-armed timer a chance to fire harmlessly while the services
  // still exist (executors outlive containers in this scope).
  consumer_ptr->rpc_ok.store(true);
  e1.post(sched::Priority::kBackground, [&] { pub.stop(); });
  e2.post(sched::Priority::kBackground, [&] { sub.stop(); });
  e1.drain();
  e2.drain();
  std::this_thread::sleep_for(std::chrono::milliseconds(300));
  e1.drain();
  e2.drain();
}

}  // namespace
}  // namespace marea::mw
