// Conservative parallel simulation (sim/shard.h + sharded SimDomain):
//   * cross-shard packets arrive at the sender-computed instant
//   * group membership replicates across shard replicas at barriers
//   * lookahead follows the minimum cross-shard link latency
//   * worker-thread count never changes results — grid-level traffic
//     digests and full middleware obs dumps are byte-identical for 1..N
//     threads (the determinism contract the fleet benches rely on)
//   * membership churn at fleet scale (512 nodes joining/leaving groups
//     mid-window) converges to the same digest on every replica
//   * multicast fan-out is interest-scoped: a group homed on one shard
//     touches exactly that shard, and parked memberships survive a
//     node kill/restart cycle
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "encoding/typed.h"
#include "middleware/domain.h"
#include "sim/shard.h"
#include "util/bytes.h"

namespace marea::mw {
namespace {

struct ParMsg {
  int64_t n = 0;
};

}  // namespace
}  // namespace marea::mw

MAREA_REFLECT(marea::mw::ParMsg, n)

namespace marea::mw {
namespace {

TEST(ShardGridTest, CrossShardUnicastArrivesAtSenderComputedInstant) {
  sim::ShardGrid grid(2, /*seed=*/1);
  sim::NodeId a = grid.add_node("a", 0);
  sim::NodeId b = grid.add_node("b", 1);

  std::vector<int64_t> arrivals;
  ASSERT_TRUE(grid.cell(1)
                  .net.bind_frames(sim::Endpoint{b, 9},
                                   [&](sim::Endpoint from,
                                       const SharedFrame& frame) {
                                     EXPECT_EQ(from.node, a);
                                     EXPECT_EQ(frame.size(), 100u);
                                     arrivals.push_back(
                                         grid.cell(1).sim.now().ns);
                                   })
                  .is_ok());

  Buffer payload(100, 0xAB);
  grid.cell(0).sim.at(TimePoint{0}, [&] {
    sim::SimNetwork& net = grid.cell(0).net;
    Status s = net.send(sim::Endpoint{a, 1}, sim::Endpoint{b, 9},
                        net.frame_pool().copy_in(payload));
    EXPECT_TRUE(s.is_ok());
  });
  grid.run_for(milliseconds(1), /*threads=*/2);

  // Default link: 100 bytes at 100 Mbps = 8 µs egress serialization,
  // then 200 µs propagation — crossing the shard boundary adds nothing.
  ASSERT_EQ(arrivals.size(), 1u);
  EXPECT_EQ(arrivals[0], microseconds(208).ns);
  EXPECT_EQ(grid.cell(0).net.stats().packets_sent, 1u);
  EXPECT_EQ(grid.cell(1).net.stats().packets_delivered, 1u);
}

TEST(ShardGridTest, GroupMembershipReplicatesAtWindowBarriers) {
  sim::ShardGrid grid(2, /*seed=*/3);
  sim::NodeId a = grid.add_node("a", 0);
  sim::NodeId b = grid.add_node("b", 1);
  constexpr sim::GroupId kGroup = 7;

  std::vector<int64_t> arrivals;
  ASSERT_TRUE(grid.cell(1)
                  .net.bind_frames(sim::Endpoint{b, 9},
                                   [&](sim::Endpoint, const SharedFrame&) {
                                     arrivals.push_back(
                                         grid.cell(1).sim.now().ns);
                                   })
                  .is_ok());

  Buffer payload(100, 0x5C);
  // b joins mid-run, from its owning shard. The op replicates to shard
  // 0's membership table at the next barrier — IGMP-style propagation —
  // so a multicast in the same window misses b, the next one reaches it.
  grid.cell(1).sim.at(TimePoint{0}, [&] {
    EXPECT_TRUE(
        grid.cell(1).net.join_group(kGroup, sim::Endpoint{b, 9}).is_ok());
  });
  sim::SimNetwork& net0 = grid.cell(0).net;
  grid.cell(0).sim.at(TimePoint{0}, [&] {
    EXPECT_TRUE(net0.send_multicast(sim::Endpoint{a, 1}, kGroup,
                                    net0.frame_pool().copy_in(payload))
                    .is_ok());
  });
  grid.cell(0).sim.at(TimePoint{microseconds(250).ns}, [&] {
    EXPECT_TRUE(net0.send_multicast(sim::Endpoint{a, 1}, kGroup,
                                    net0.frame_pool().copy_in(payload))
                    .is_ok());
  });
  grid.run_for(milliseconds(1), /*threads=*/2);

  // First multicast: no members visible on shard 0 yet (unroutable).
  // Second: 250 µs send + 8 µs serialization + 200 µs propagation.
  EXPECT_EQ(grid.cell(0).net.stats().packets_unroutable, 1u);
  ASSERT_EQ(arrivals.size(), 1u);
  EXPECT_EQ(arrivals[0], microseconds(458).ns);
}

TEST(ShardGridTest, LookaheadTracksMinimumCrossShardLatency) {
  sim::ShardGrid grid(2, /*seed=*/5);
  sim::NodeId a = grid.add_node("a", 0);
  sim::NodeId b = grid.add_node("b", 1);
  sim::NodeId c = grid.add_node("c", 1);

  // Default link everywhere: 200 µs.
  EXPECT_EQ(grid.lookahead().ns, microseconds(200).ns);

  // A faster cross-shard pair pulls the window down...
  grid.for_each_network([&](sim::SimNetwork& net) {
    net.set_link_symmetric(a, b, sim::LinkParams{.latency = microseconds(50)});
  });
  EXPECT_EQ(grid.lookahead().ns, microseconds(50).ns);

  // ...an intra-shard link does not (b and c share shard 1)...
  grid.for_each_network([&](sim::SimNetwork& net) {
    net.set_link_symmetric(b, c, sim::LinkParams{.latency = microseconds(1)});
  });
  EXPECT_EQ(grid.lookahead().ns, microseconds(50).ns);

  // ...and a zero-latency cross-shard link clamps to the 1 µs floor
  // instead of stalling virtual time.
  grid.for_each_network([&](sim::SimNetwork& net) {
    net.set_link(a, c, sim::LinkParams{.latency = kDurationZero});
  });
  EXPECT_EQ(grid.lookahead().ns, microseconds(1).ns);
}

// Grid-level determinism: stochastic links (loss + jitter), 8 nodes on
// 4 shards, every delivery folded into a per-node digest. The digest
// must not depend on how many worker threads drive the windows.
uint64_t traffic_digest(uint32_t threads) {
  sim::LinkParams link;
  link.latency = microseconds(150);
  link.jitter = microseconds(40);
  link.loss = 0.05;
  sim::ShardGrid grid(4, /*seed=*/99, link);

  constexpr int kNodes = 8;
  std::vector<sim::NodeId> ids;
  for (int i = 0; i < kNodes; ++i) {
    ids.push_back(grid.add_node("n" + std::to_string(i),
                                static_cast<uint32_t>(i % 4)));
  }
  std::vector<uint64_t> digest(kNodes, 1469598103934665603ull);
  for (int i = 0; i < kNodes; ++i) {
    auto& cell = grid.cell(static_cast<uint32_t>(i % 4));
    auto fold = [&digest, &cell, i](sim::Endpoint from, const SharedFrame& f) {
      uint64_t& h = digest[static_cast<size_t>(i)];
      h ^= static_cast<uint64_t>(cell.sim.now().ns) +
           (static_cast<uint64_t>(from.node) << 48) + f.size();
      h *= 1099511628211ull;
    };
    EXPECT_TRUE(cell.net.bind_frames(sim::Endpoint{ids[i], 5}, fold).is_ok());
  }
  Buffer payload(64, 0x42);
  for (int i = 0; i < kNodes; ++i) {
    auto& cell = grid.cell(static_cast<uint32_t>(i % 4));
    for (int k = 0; k < 200; ++k) {
      const TimePoint t{k * milliseconds(1).ns + i * microseconds(7).ns};
      const sim::Endpoint from{ids[i], 5};
      const sim::Endpoint to1{ids[(i + 1) % kNodes], 5};
      const sim::Endpoint to2{ids[(i + 3) % kNodes], 5};
      cell.sim.at(t, [&cell, from, to1, to2, &payload] {
        (void)cell.net.send(from, to1, cell.net.frame_pool().copy_in(payload));
        (void)cell.net.send(from, to2, cell.net.frame_pool().copy_in(payload));
      });
    }
  }
  grid.run_for(milliseconds(250), threads);

  uint64_t combined = 14695981039346656037ull;
  for (int i = 0; i < kNodes; ++i) {
    combined ^= digest[static_cast<size_t>(i)];
    combined *= 1099511628211ull;
  }
  for (uint32_t s = 0; s < grid.shard_count(); ++s) {
    const sim::TrafficStats& st = grid.cell(s).net.stats();
    combined ^= st.packets_sent + st.packets_delivered * 1000003ull +
                st.packets_dropped * 1000000007ull;
    combined *= 1099511628211ull;
  }
  EXPECT_GT(grid.events_executed_total(), 0u);
  return combined;
}

TEST(ShardGridTest, TrafficDigestIdenticalAcrossThreadCounts) {
  const uint64_t one = traffic_digest(1);
  const uint64_t two = traffic_digest(2);
  const uint64_t four = traffic_digest(4);
  const uint64_t eight = traffic_digest(8);  // more threads than shards
  EXPECT_EQ(one, two);
  EXPECT_EQ(one, four);
  EXPECT_EQ(one, eight);
}

// --- churn at fleet scale ------------------------------------------------
// 512 nodes on 8 shards, every one of them leaving its boot group and
// joining another mid-run while 16 publishers multicast into rotating
// groups. The group-op deltas replicate at barriers; afterwards every
// replica's digest must agree with a reference computed in plain code,
// and the whole run must not depend on the worker-thread count.

struct ChurnRun {
  uint64_t digest = 0;
  uint64_t events = 0;
};

ChurnRun churn_at_scale(uint32_t threads) {
  constexpr uint32_t kShards = 8;
  constexpr int kNodes = 512;
  constexpr sim::GroupId kGroups = 32;
  sim::ShardGrid grid(kShards, /*seed=*/77);

  std::vector<sim::NodeId> ids;
  ids.reserve(kNodes);
  std::vector<uint64_t> digest(kNodes, 1469598103934665603ull);
  for (int i = 0; i < kNodes; ++i) {
    const uint32_t shard = static_cast<uint32_t>(i) % kShards;
    ids.push_back(grid.add_node("c" + std::to_string(i), shard));
    auto& cell = grid.cell(shard);
    auto fold = [&digest, &cell, i](sim::Endpoint from, const SharedFrame& f) {
      uint64_t& h = digest[static_cast<size_t>(i)];
      h ^= static_cast<uint64_t>(cell.sim.now().ns) +
           (static_cast<uint64_t>(from.node) << 48) + f.size();
      h *= 1099511628211ull;
    };
    const sim::Endpoint ep{ids[static_cast<size_t>(i)], 9};
    EXPECT_TRUE(cell.net.bind_frames(ep, fold).is_ok());
  }

  // Boot membership at t=0, churn spread over windows 2..40: node i
  // leaves its boot group and joins the next one over, issued on its
  // owner cell. Groups are assigned per block of 8 consecutive nodes so
  // every group spans all 8 shards (a plain i%32 would pin each group
  // to a single shard, since 32 ≡ 0 mod 8).
  for (int i = 0; i < kNodes; ++i) {
    const uint32_t shard = static_cast<uint32_t>(i) % kShards;
    auto& cell = grid.cell(shard);
    const sim::Endpoint ep{ids[static_cast<size_t>(i)], 9};
    const sim::GroupId g0 = static_cast<sim::GroupId>(i / 8) % kGroups;
    const sim::GroupId g1 = (g0 + 5) % kGroups;
    cell.sim.at(TimePoint{0}, [&cell, ep, g0] {
      EXPECT_TRUE(cell.net.join_group(g0, ep).is_ok());
    });
    const TimePoint churn{microseconds(500).ns +
                          (i % 7) * microseconds(130).ns + (i / 7) * 97};
    cell.sim.at(churn, [&cell, ep, g0, g1] {
      cell.net.leave_group(g0, ep);
      EXPECT_TRUE(cell.net.join_group(g1, ep).is_ok());
    });
  }

  // Multicast traffic interleaved with the churn.
  Buffer payload(48, 0x7A);
  for (int p = 0; p < 16; ++p) {
    const int i = (p * 31) % kNodes;
    const uint32_t shard = static_cast<uint32_t>(i) % kShards;
    auto& cell = grid.cell(shard);
    const sim::Endpoint from{ids[static_cast<size_t>(i)], 9};
    for (int k = 0; k < 20; ++k) {
      const TimePoint t{k * microseconds(250).ns + p * microseconds(11).ns};
      const sim::GroupId g = static_cast<sim::GroupId>(p + k) % kGroups;
      cell.sim.at(t, [&cell, from, g, &payload] {
        (void)cell.net.send_multicast(from, g,
                                      cell.net.frame_pool().copy_in(payload));
      });
    }
  }

  grid.run_for(milliseconds(8), threads);

  // Convergence: with every node churned, each group holds exactly two
  // 8-node blocks — two members per shard — and all 8 replicas must
  // report that same digest for every (group, shard) pair.
  for (sim::GroupId g = 0; g < kGroups; ++g) {
    for (uint32_t s = 0; s < kShards; ++s) {
      for (uint32_t replica = 0; replica < kShards; ++replica) {
        EXPECT_EQ(grid.cell(replica).net.group_shard_members(g, s), 2u)
            << "replica " << replica << " group " << g << " shard " << s;
      }
    }
  }

  ChurnRun r;
  r.digest = 14695981039346656037ull;
  for (int i = 0; i < kNodes; ++i) {
    r.digest ^= digest[static_cast<size_t>(i)];
    r.digest *= 1099511628211ull;
  }
  for (uint32_t s = 0; s < grid.shard_count(); ++s) {
    const sim::TrafficStats& st = grid.cell(s).net.stats();
    r.digest ^= st.packets_sent + st.packets_delivered * 1000003ull +
                st.packets_unroutable * 1000000007ull +
                st.fanout_shards_touched * 998244353ull;
    r.digest *= 1099511628211ull;
  }
  r.events = grid.events_executed_total();
  return r;
}

TEST(ShardGridTest, ChurnAtScaleConvergesAndIgnoresThreadCount) {
  const ChurnRun one = churn_at_scale(1);
  const ChurnRun two = churn_at_scale(2);
  const ChurnRun four = churn_at_scale(4);
  EXPECT_GT(one.events, 0u);
  EXPECT_EQ(one.digest, two.digest);
  EXPECT_EQ(one.digest, four.digest);
  EXPECT_EQ(one.events, two.events);
  EXPECT_EQ(one.events, four.events);
}

TEST(ShardGridTest, MulticastTouchesOnlyShardsWithMembers) {
  sim::ShardGrid grid(8, /*seed=*/13);
  std::vector<sim::NodeId> ids;
  for (int i = 0; i < 8; ++i) {
    ids.push_back(grid.add_node("n" + std::to_string(i),
                                static_cast<uint32_t>(i)));
  }
  // Both interested parties homed on shard 3; the other 7 shards hold
  // live nodes with no stake in the group.
  sim::NodeId extra = grid.add_node("extra", 3);
  constexpr sim::GroupId kGroup = 4;
  int arrivals = 0;
  for (sim::NodeId m : {ids[3], extra}) {
    ASSERT_TRUE(grid.cell(3)
                    .net.bind_frames(sim::Endpoint{m, 9},
                                     [&](sim::Endpoint, const SharedFrame&) {
                                       ++arrivals;
                                     })
                    .is_ok());
  }
  grid.cell(3).sim.at(TimePoint{0}, [&] {
    EXPECT_TRUE(
        grid.cell(3).net.join_group(kGroup, sim::Endpoint{ids[3], 9}).is_ok());
    EXPECT_TRUE(
        grid.cell(3).net.join_group(kGroup, sim::Endpoint{extra, 9}).is_ok());
  });
  // Publish from shard 0 after one barrier so the digest has replicated.
  Buffer payload(64, 0x2F);
  grid.cell(0).sim.at(TimePoint{microseconds(300).ns}, [&] {
    sim::SimNetwork& net = grid.cell(0).net;
    EXPECT_TRUE(net.send_multicast(sim::Endpoint{ids[0], 1}, kGroup,
                                   net.frame_pool().copy_in(payload))
                    .is_ok());
  });
  grid.run_for(milliseconds(1), /*threads=*/4);

  EXPECT_EQ(arrivals, 2);
  // Interest scoping: one multicast, members on exactly one shard —
  // exactly one shard touched, and nothing was sprayed at the other 6
  // member-free replicas.
  uint64_t touched = 0;
  for (uint32_t s = 0; s < grid.shard_count(); ++s) {
    const sim::TrafficStats& st = grid.cell(s).net.stats();
    touched += st.fanout_shards_touched;
    if (s != 3) {
      EXPECT_EQ(st.packets_delivered, 0u) << "shard " << s;
    }
    EXPECT_EQ(st.packets_unroutable, 0u) << "shard " << s;
  }
  EXPECT_EQ(touched, 1u);
  EXPECT_EQ(grid.cell(3).net.stats().packets_delivered, 2u);
}

TEST(ShardGridTest, ParkedMembershipsRestoreAfterRestart) {
  sim::ShardGrid grid(2, /*seed=*/31);
  sim::NodeId a = grid.add_node("a", 0);
  sim::NodeId b = grid.add_node("b", 1);
  constexpr sim::GroupId kGroup = 9;
  int arrivals = 0;
  ASSERT_TRUE(grid.cell(1)
                  .net.bind_frames(sim::Endpoint{b, 9},
                                   [&](sim::Endpoint, const SharedFrame&) {
                                     ++arrivals;
                                   })
                  .is_ok());
  grid.cell(1).sim.at(TimePoint{0}, [&] {
    EXPECT_TRUE(
        grid.cell(1).net.join_group(kGroup, sim::Endpoint{b, 9}).is_ok());
  });
  Buffer payload(32, 0x66);
  auto publish_at = [&](int64_t ns) {
    grid.cell(0).sim.at(TimePoint{ns}, [&] {
      sim::SimNetwork& net = grid.cell(0).net;
      (void)net.send_multicast(sim::Endpoint{a, 1}, kGroup,
                               net.frame_pool().copy_in(payload));
    });
  };
  publish_at(milliseconds(1).ns);
  grid.run_for(milliseconds(2), /*threads=*/2);
  EXPECT_EQ(arrivals, 1);

  // Kill b on every replica: its membership parks but stays in the
  // digest (live + parked), so the multicast still routes to shard 1 —
  // and dies there at the dead NIC instead of reaching the handler.
  grid.for_each_network([&](sim::SimNetwork& net) {
    net.set_node_up(b, false);
  });
  EXPECT_EQ(grid.cell(0).net.group_shard_members(kGroup, 1), 1u)
      << "parked membership fell out of the remote digest";
  publish_at(milliseconds(3).ns);
  grid.run_for(milliseconds(1), /*threads=*/2);
  EXPECT_EQ(arrivals, 1) << "a parked member received traffic";

  // Restart: the parked membership must come back without a re-join.
  grid.for_each_network([&](sim::SimNetwork& net) {
    net.set_node_up(b, true);
  });
  const std::vector<sim::Endpoint> members =
      grid.cell(1).net.group_members(kGroup);
  ASSERT_EQ(members.size(), 1u);
  EXPECT_EQ(members[0].node, b);
  publish_at(milliseconds(5).ns);
  grid.run_for(milliseconds(2), /*threads=*/2);
  EXPECT_EQ(arrivals, 2) << "membership did not survive the restart";
}

// --- full middleware over a sharded domain -------------------------------

class ParBeacon final : public Service {
 public:
  explicit ParBeacon(int index) : Service("beacon" + std::to_string(index)) {}

  Status on_start() override {
    auto v = provide_variable<ParMsg>(
        name() + ".var", {.period = milliseconds(40), .validity = seconds(2.0)});
    if (!v.ok()) return v.status();
    var_ = *v;
    return Status::ok();
  }

  void tick() {
    ParMsg m;
    m.n = ++n_;
    (void)var_.publish(m);
  }

 private:
  VariableHandle var_;
  int64_t n_ = 0;
};

class ParWatcher final : public Service {
 public:
  ParWatcher(std::string name, std::vector<std::string> topics)
      : Service(std::move(name)), topics_(std::move(topics)) {}

  Status on_start() override {
    for (const auto& t : topics_) {
      Status s = subscribe_variable<ParMsg>(
          t, [this](const ParMsg& m, const SampleInfo&) {
            ++samples_;
            hash_ ^= static_cast<uint64_t>(m.n) + (hash_ << 6) + (hash_ >> 2);
          });
      if (!s.is_ok()) return s;
    }
    return Status::ok();
  }

  int64_t samples() const { return samples_; }
  uint64_t hash() const { return hash_; }

 private:
  std::vector<std::string> topics_;
  int64_t samples_ = 0;
  uint64_t hash_ = 0;
};

struct ShardedRun {
  std::string dump;
  int64_t samples = 0;
  uint64_t events = 0;
};

ShardedRun run_sharded_domain(uint32_t threads) {
  set_log_level(LogLevel::kError);
  SimDomain domain(/*seed=*/11, {}, ShardOptions{.shards = 4,
                                                 .threads = threads});

  std::vector<ParBeacon*> beacons;
  std::vector<ParWatcher*> watchers;
  std::vector<std::string> topics;
  for (int i = 0; i < 3; ++i) {
    auto& node = domain.add_node("pub" + std::to_string(i));
    auto b = std::make_unique<ParBeacon>(i);
    beacons.push_back(b.get());
    (void)node.add_service(std::move(b));
    topics.push_back("beacon" + std::to_string(i) + ".var");
  }
  for (int i = 0; i < 3; ++i) {
    auto& node = domain.add_node("sub" + std::to_string(i));
    auto w = std::make_unique<ParWatcher>("watch" + std::to_string(i), topics);
    watchers.push_back(w.get());
    (void)node.add_service(std::move(w));
  }
  // 6 nodes round-robin on 4 shards: every publisher has cross-shard
  // subscribers, so discovery, samples and acks all cross mailboxes.
  domain.start_all();
  domain.run_for(milliseconds(500));

  for (int i = 0; i < 100; ++i) {
    for (auto* b : beacons) b->tick();
    domain.run_for(milliseconds(5));
  }
  domain.run_for(milliseconds(500));

  ShardedRun r;
  r.dump = domain.dump_all_json();
  for (auto* w : watchers) r.samples += w->samples();
  r.events = domain.grid().events_executed_total();
  return r;
}

TEST(ShardedDomainTest, MiddlewareDumpByteIdenticalAcrossThreadCounts) {
  ShardedRun one = run_sharded_domain(1);
  ShardedRun four = run_sharded_domain(4);
  EXPECT_GT(one.samples, 0) << "no cross-shard samples flowed";
  EXPECT_EQ(one.samples, four.samples);
  EXPECT_EQ(one.events, four.events);
  // The whole per-shard flight-recorder + metrics snapshot, byte for
  // byte: thread count is a throughput knob, never a semantics knob.
  EXPECT_EQ(one.dump, four.dump);
}

// --- content-addressed file transfer over a sharded domain ----------------

class ParFilePub final : public Service {
 public:
  ParFilePub() : Service("fpub") {}
  Status on_start() override { return Status::ok(); }
  Status publish(const std::string& name, Buffer content) {
    return publish_file(name, std::move(content));
  }
};

class ParFileSub final : public Service {
 public:
  explicit ParFileSub(std::string name) : Service(std::move(name)) {}
  Status on_start() override {
    return subscribe_file("par.img",
                          [this](const proto::FileMeta&, const Buffer& b) {
                            ++completions;
                            bytes += b.size();
                          });
  }
  int completions = 0;
  size_t bytes = 0;
};

ShardedRun run_sharded_file_domain(uint32_t threads) {
  set_log_level(LogLevel::kError);
  SimDomain domain(/*seed=*/12, {}, ShardOptions{.shards = 4,
                                                 .threads = threads});
  ContainerConfig cfg;
  auto& pub_node = domain.add_node("fpub_node", cfg);
  auto pub = std::make_unique<ParFilePub>();
  auto* pub_ptr = pub.get();
  (void)pub_node.add_service(std::move(pub));
  std::vector<ParFileSub*> subs;
  for (int i = 0; i < 3; ++i) {
    auto& node = domain.add_node("fsub" + std::to_string(i), cfg);
    auto s = std::make_unique<ParFileSub>("fsub" + std::to_string(i));
    subs.push_back(s.get());
    (void)node.add_service(std::move(s));
  }
  domain.start_all();
  domain.run_for(milliseconds(500));

  // Compressible imagery with duplicated rows: codec + dedup both fire.
  Buffer content;
  for (int c = 0; c < 24; ++c) {
    content.insert(content.end(), 1024, static_cast<uint8_t>(c % 6));
  }
  (void)pub_ptr->publish("par.img", content);
  domain.run_for(seconds(3.0));
  // Identical republish: subscribers resume from their chunk stores.
  (void)pub_ptr->publish("par.img", content);
  domain.run_for(seconds(3.0));

  ShardedRun r;
  r.dump = domain.dump_all_json();
  for (auto* s : subs) r.samples += s->completions;
  r.events = domain.grid().events_executed_total();
  return r;
}

TEST(ShardedDomainTest, FileTransferDumpByteIdenticalAcrossThreadCounts) {
  ShardedRun one = run_sharded_file_domain(1);
  ShardedRun four = run_sharded_file_domain(4);
  EXPECT_EQ(one.samples, 6) << "every subscriber completes both revisions";
  EXPECT_EQ(one.samples, four.samples);
  EXPECT_EQ(one.events, four.events);
  // mftp.* counters (bytes_on_wire, chunks_deduped, compress_ratio) are
  // in this dump, and the whole snapshot must be byte-identical however
  // many worker threads ran it.
  EXPECT_EQ(one.dump, four.dump);
}

TEST(ShardedDomainTest, KillAndRestartApplyToEveryReplica) {
  set_log_level(LogLevel::kError);
  SimDomain domain(/*seed=*/21, {}, ShardOptions{.shards = 2, .threads = 2});
  auto& pub_node = domain.add_node("pub");       // shard 0
  auto b = std::make_unique<ParBeacon>(0);
  ParBeacon* beacon = b.get();
  (void)pub_node.add_service(std::move(b));
  auto& sub_node = domain.add_node("sub");       // shard 1
  auto w = std::make_unique<ParWatcher>("watch", std::vector<std::string>{
                                                     "beacon0.var"});
  ParWatcher* watcher = w.get();
  (void)sub_node.add_service(std::move(w));

  domain.start_all();
  domain.run_for(milliseconds(500));
  for (int i = 0; i < 20; ++i) {
    beacon->tick();
    domain.run_for(milliseconds(10));
  }
  ASSERT_GT(watcher->samples(), 0);

  domain.kill_node(0);
  for (uint32_t s = 0; s < domain.shard_count(); ++s) {
    EXPECT_FALSE(domain.grid().cell(s).net.node_up(domain.node_id(0)))
        << "replica " << s << " did not see the crash";
  }
  domain.run_for(seconds(1.0));
  const int64_t during_outage = watcher->samples();
  domain.run_for(seconds(1.0));
  EXPECT_EQ(watcher->samples(), during_outage)
      << "samples flowed from a dead publisher";

  domain.restart_node(0);
  for (uint32_t s = 0; s < domain.shard_count(); ++s) {
    EXPECT_TRUE(domain.grid().cell(s).net.node_up(domain.node_id(0)));
  }
  domain.run_for(seconds(1.0));
  for (int i = 0; i < 20; ++i) {
    beacon->tick();
    domain.run_for(milliseconds(10));
  }
  EXPECT_GT(watcher->samples(), during_outage)
      << "samples did not resume after restart";
}

TEST(ShardedDomainTest, SingleShardDomainBehavesClassically) {
  // shards=1 must be the exact historical domain: same seeding, no
  // windows, run_until_idle available.
  set_log_level(LogLevel::kError);
  SimDomain classic(/*seed=*/7);
  EXPECT_EQ(classic.shard_count(), 1u);
  auto& node = classic.add_node("solo");
  auto b = std::make_unique<ParBeacon>(0);
  ParBeacon* beacon = b.get();
  (void)node.add_service(std::move(b));
  classic.start_all();
  classic.run_for(milliseconds(100));
  beacon->tick();
  classic.run_for(milliseconds(100));
  classic.stop_all();
  classic.run_until_idle(/*safety_cap=*/1'000'000);
  EXPECT_GT(classic.sim().events_executed(), 0u);
  EXPECT_EQ(classic.dump_all_json(), classic.obs().dump_json());
}

}  // namespace
}  // namespace marea::mw
