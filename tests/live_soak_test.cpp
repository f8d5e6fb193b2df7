// Live-transport soak: three loopback-alias "nodes" exchange unicast,
// multicast and broadcast traffic from several threads while sockets are
// bound/unbound and groups joined/left the whole time. Parameterized over
// both kernel backends (epoll and io_uring) — run under ASan in CI, this
// is the lifetime/misroute gauntlet for each backend's dispatch loop:
//   * every payload carries the tag of its logical destination, and every
//     handler checks it — one frame handed to the wrong handler fails the
//     test (the seed transport's fd-reuse race);
//   * sends run concurrently from multiple threads while the poll thread
//     dispatches — a send serialized under the dispatch lock (the seed's
//     other bug) collapses throughput and trips the delivery floor;
//   * churn guarantees fd numbers are recycled into sockets with
//     different tags while traffic is in flight.
#include <gtest/gtest.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <memory>
#include <string_view>
#include <thread>
#include <vector>

#include "obs/obs.h"
#include "transport/live_transport.h"

namespace marea::transport {
namespace {

Buffer tagged(uint16_t tag, size_t n = 64) {
  Buffer b(n, 0xC3);
  b[0] = static_cast<uint8_t>(tag & 0xFF);
  b[1] = static_cast<uint8_t>(tag >> 8);
  return b;
}

uint16_t tag_of(BytesView d) {
  return d.size() >= 2 ? static_cast<uint16_t>(d[0] | (d[1] << 8)) : 0;
}

// Logical payload tags, decoupled from port numbers: the stable/member
// sockets now bind port 0 (kernel-assigned, collision-free under
// `ctest -j` with other test binaries), so a fixed tag can no longer be
// "the port".
constexpr uint16_t kStableTag = 0xA001;   // broadcast traffic
constexpr uint16_t kUnicastTag = 0xA002;  // t1 -> t2 unicast hammer

class LiveSoakTest : public ::testing::TestWithParam<const char*> {
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

  std::unique_ptr<LiveTransport> make_live(const char* ip) {
    TransportConfig config;
    EXPECT_TRUE(parse_backend(GetParam(), &config.backend));
    try {
      return make_live_transport(ip, config);
    } catch (const std::exception&) {
      return nullptr;
    }
  }
};

INSTANTIATE_TEST_SUITE_P(Backends, LiveSoakTest,
                         ::testing::Values("epoll", "uring"),
                         [](const auto& info) {
                           return std::string(info.param);
                         });

TEST_P(LiveSoakTest, ChurnUnderMultiNodeTrafficNoMisroute) {
  std::unique_ptr<LiveTransport> t1 = make_live("127.0.0.1");
  std::unique_ptr<LiveTransport> t2 = make_live("127.0.0.2");
  std::unique_ptr<LiveTransport> t3 = make_live("127.0.0.3");
  if (!t1 || !t2 || !t3) {
    GTEST_SKIP() << "UDP sockets unavailable in this environment";
  }
  HostId h1 = ipv4_host("127.0.0.1");
  HostId h2 = ipv4_host("127.0.0.2");
  HostId h3 = ipv4_host("127.0.0.3");

  // pid-spread identifiers for everything that cannot be kernel-assigned:
  // the multicast group (its port is derived from the id) and the churn /
  // sender port ranges.
  const GroupId kGroup = static_cast<GroupId>(77 + (::getpid() % 1000));
  const uint16_t kChurnBase =
      static_cast<uint16_t>(24000 + (::getpid() % 2000) * 8);
  const uint16_t kSrcBase = static_cast<uint16_t>(kChurnBase + 4);

  obs::Observability obs;
  t2->set_obs(&obs, "n2");

  std::atomic<int> misroutes{0};
  std::atomic<int> stable_got{0};
  std::atomic<int> unicast_got{0};
  std::atomic<int> group_got{0};
  std::atomic<int> churn_got{0};

  // The member-port handler also serves group traffic (join_group hands
  // the group socket the member's handler), so it accepts either tag.
  auto member_handler = [&](uint16_t own_tag, std::atomic<int>& unicast,
                            std::atomic<int>& group) {
    return [&, own_tag](Address, SharedFrame frame) {
      uint16_t tag = tag_of(frame.view());
      if (tag == own_tag) {
        unicast.fetch_add(1);
      } else if (tag == multicast_port(kGroup)) {
        group.fetch_add(1);
      } else {
        misroutes.fetch_add(1);
      }
    };
  };

  // Port-0 stable binds; bound_port(0) reports each kernel-assigned port
  // so the peer list below can carry real per-node addresses (the same
  // resolved-ephemeral flow containers use via bind_transport()).
  uint16_t stable_port[3] = {0, 0, 0};
  LiveTransport* nodes[3] = {t1.get(), t2.get(), t3.get()};
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(
        nodes[i]
            ->bind_frames(0, member_handler(kStableTag, stable_got, group_got))
            .is_ok());
    stable_port[i] = nodes[i]->bound_port(0);
    ASSERT_NE(stable_port[i], 0);
  }
  ASSERT_TRUE(
      t2->bind_frames(0, member_handler(kUnicastTag, unicast_got, group_got))
          .is_ok());
  const uint16_t unicast_port = t2->bound_port(0);
  ASSERT_NE(unicast_port, 0);

  std::vector<Address> peers = {{h1, stable_port[0]},
                                {h2, stable_port[1]},
                                {h3, stable_port[2]}};
  t1->set_peers(peers);
  t2->set_peers(peers);
  t3->set_peers(peers);

  Status j2 = t2->join_group(kGroup, stable_port[1]);
  Status j3 = t3->join_group(kGroup, stable_port[2]);
  bool multicast_ok = j2.is_ok() && j3.is_ok();

  std::atomic<bool> stop{false};

  // Churn: bind/unbind tagged ports on t2 and t3, and flap t3's group
  // membership, while all traffic threads run.
  std::thread churn([&] {
    int k = 0;
    while (!stop.load()) {
      uint16_t port = static_cast<uint16_t>(kChurnBase + (k % 4));
      LiveTransport* t = (k % 2) ? t2.get() : t3.get();
      (void)t->bind_frames(port, [&, port](Address, SharedFrame frame) {
        if (tag_of(frame.view()) != port) {
          misroutes.fetch_add(1);
        } else {
          churn_got.fetch_add(1);
        }
      });
      std::this_thread::sleep_for(std::chrono::microseconds(300));
      t->unbind(port);
      if (multicast_ok && k % 8 == 0) {
        t3->leave_group(kGroup, stable_port[2]);
        (void)t3->join_group(kGroup, stable_port[2]);
      }
      ++k;
    }
  });

  std::vector<std::thread> traffic;
  // Unicast hammer: t1 -> t2's ephemeral member port from two threads.
  for (int i = 0; i < 2; ++i) {
    traffic.emplace_back([&, i] {
      Buffer pay = tagged(kUnicastTag);
      uint16_t src = static_cast<uint16_t>(kSrcBase + i);
      while (!stop.load()) {
        (void)t1->send_frame(src, Address{h2, unicast_port},
                             t1->frame_pool().copy_in(pay));
        std::this_thread::sleep_for(std::chrono::microseconds(150));
      }
    });
  }
  // Broadcast: t1 -> every peer's own stable port (carried in the
  // Address peer list, exactly how discovery propagates resolved ports).
  traffic.emplace_back([&] {
    Buffer pay = tagged(kStableTag);
    while (!stop.load()) {
      (void)t1->send_frame_broadcast(stable_port[0], 0,
                                     t1->frame_pool().copy_in(pay));
      std::this_thread::sleep_for(std::chrono::microseconds(300));
    }
  });
  // Multicast: t1 -> group.
  if (multicast_ok) {
    traffic.emplace_back([&] {
      Buffer pay = tagged(multicast_port(kGroup));
      while (!stop.load()) {
        (void)t1->send_frame_multicast(stable_port[0], kGroup,
                                       t1->frame_pool().copy_in(pay));
        std::this_thread::sleep_for(std::chrono::microseconds(400));
      }
    });
  }
  // Churn-port traffic: tagged sends racing the bind/unbind cycle.
  traffic.emplace_back([&] {
    Buffer pays[4] = {tagged(kChurnBase), tagged(kChurnBase + 1),
                      tagged(kChurnBase + 2), tagged(kChurnBase + 3)};
    while (!stop.load()) {
      for (int k = 0; k < 4; ++k) {
        HostId dst = (k % 2) ? h2 : h3;
        (void)t1->send_frame(
            static_cast<uint16_t>(kSrcBase + 2),
            Address{dst, static_cast<uint16_t>(kChurnBase + k)},
            t1->frame_pool().copy_in(pays[k]));
      }
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
  });

  std::this_thread::sleep_for(std::chrono::milliseconds(1500));
  stop.store(true);
  churn.join();
  for (auto& th : traffic) th.join();

  EXPECT_EQ(misroutes.load(), 0)
      << "a datagram reached a handler with the wrong tag";
  EXPECT_GT(stable_got.load(), 20) << "broadcast traffic did not flow";
  EXPECT_GT(unicast_got.load(), 100) << "unicast traffic did not flow";
  if (multicast_ok) {
    EXPECT_GT(group_got.load(), 5) << "multicast traffic did not flow";
  }

  // Registry sanity on the busiest receiver: counters flow end to end and
  // nothing was truncation-dropped at these payload sizes.
  obs.metrics.collect();
  EXPECT_GE(obs.metrics.counter_value("n2.frames_received"),
            static_cast<uint64_t>(unicast_got.load()));
  EXPECT_EQ(obs.metrics.counter_value("n2.drops_truncated"), 0u);
  EXPECT_EQ(obs.metrics.counter_value("n2.payload_bytes_copied"), 0u);

  // Clean teardown with traffic recently in flight: transports destroy
  // while their pools may still hold frames checked out moments ago.
  t1.reset();
  t2.reset();
  t3.reset();
}

}  // namespace
}  // namespace marea::transport
