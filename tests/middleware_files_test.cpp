// File-transmission primitive end-to-end: multicast fan-out, revisions,
// late join, loss, the same-container bypass, and integration with the
// storage service's inner filesystem.
#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "middleware/domain.h"
#include "util/rng.h"

namespace marea::mw {
namespace {

Buffer blob(size_t n, uint64_t seed = 9) {
  Rng rng(seed);
  Buffer b(n);
  for (auto& byte : b) byte = static_cast<uint8_t>(rng.next_u64());
  return b;
}

class FilePublisher final : public Service {
 public:
  FilePublisher() : Service("file_pub") {}
  Status on_start() override { return Status::ok(); }
  Status publish(const std::string& name, Buffer content) {
    return publish_file(name, std::move(content));
  }
};

class FileConsumer final : public Service {
 public:
  explicit FileConsumer(std::string name, std::string resource)
      : Service(std::move(name)), resource_(std::move(resource)) {}

  Status on_start() override {
    return subscribe_file(
        resource_,
        [this](const proto::FileMeta& meta, const Buffer& content) {
          completions.emplace_back(meta, content);
        },
        [this](const proto::FileMeta&, uint32_t, uint32_t) {
          ++progress_calls;
        });
  }

  std::string resource_;
  std::vector<std::pair<proto::FileMeta, Buffer>> completions;
  int progress_calls = 0;
};

TEST(FilesTest, TransfersAcrossNodes) {
  SimDomain domain(51);
  auto& n1 = domain.add_node("pub");
  auto pub = std::make_unique<FilePublisher>();
  auto* pub_ptr = pub.get();
  (void)n1.add_service(std::move(pub));
  auto& n2 = domain.add_node("sub");
  auto sub = std::make_unique<FileConsumer>("c", "res.x");
  auto* sub_ptr = sub.get();
  (void)n2.add_service(std::move(sub));
  domain.start_all();
  domain.run_for(milliseconds(300));

  Buffer content = blob(50000);
  ASSERT_TRUE(pub_ptr->publish("res.x", content).is_ok());
  domain.run_for(seconds(3.0));
  ASSERT_EQ(sub_ptr->completions.size(), 1u);
  EXPECT_EQ(sub_ptr->completions[0].second, content);
  EXPECT_EQ(sub_ptr->completions[0].first.revision, 1u);
  EXPECT_GT(sub_ptr->progress_calls, 10);
}

TEST(FilesTest, SubscribeBeforePublishWorks) {
  SimDomain domain(52);
  auto& n1 = domain.add_node("pub");
  auto pub = std::make_unique<FilePublisher>();
  auto* pub_ptr = pub.get();
  (void)n1.add_service(std::move(pub));
  auto& n2 = domain.add_node("sub");
  auto sub = std::make_unique<FileConsumer>("c", "res.y");
  auto* sub_ptr = sub.get();
  (void)n2.add_service(std::move(sub));
  domain.start_all();
  // Subscription exists but the resource does not yet.
  domain.run_for(seconds(1.0));
  EXPECT_TRUE(sub_ptr->completions.empty());

  Buffer content = blob(8000);
  ASSERT_TRUE(pub_ptr->publish("res.y", content).is_ok());
  domain.run_for(seconds(3.0));
  ASSERT_EQ(sub_ptr->completions.size(), 1u);
  EXPECT_EQ(sub_ptr->completions[0].second, content);
}

TEST(FilesTest, MulticastServesMultipleSubscribersOnce) {
  SimDomain domain(53);
  auto& n1 = domain.add_node("pub");
  auto pub = std::make_unique<FilePublisher>();
  auto* pub_ptr = pub.get();
  (void)n1.add_service(std::move(pub));
  std::vector<FileConsumer*> subs;
  for (int i = 0; i < 4; ++i) {
    auto& n = domain.add_node("sub" + std::to_string(i));
    auto s = std::make_unique<FileConsumer>("c" + std::to_string(i), "res.z");
    subs.push_back(s.get());
    (void)n.add_service(std::move(s));
  }
  domain.start_all();
  domain.run_for(milliseconds(300));

  Buffer content = blob(40000);
  domain.network().reset_stats();
  ASSERT_TRUE(pub_ptr->publish("res.z", content).is_ok());
  domain.run_for(seconds(3.0));
  for (auto* s : subs) {
    ASSERT_EQ(s->completions.size(), 1u);
    EXPECT_EQ(s->completions[0].second, content);
  }
  // The wire carried roughly ONE copy of the payload, not four.
  EXPECT_LT(domain.network().stats().bytes_sent, content.size() * 2);
}

TEST(FilesTest, RevisionUpdateReachesSubscribers) {
  SimDomain domain(54);
  auto& n1 = domain.add_node("pub");
  auto pub = std::make_unique<FilePublisher>();
  auto* pub_ptr = pub.get();
  (void)n1.add_service(std::move(pub));
  auto& n2 = domain.add_node("sub");
  auto sub = std::make_unique<FileConsumer>("c", "res.cfg");
  auto* sub_ptr = sub.get();
  (void)n2.add_service(std::move(sub));
  domain.start_all();
  domain.run_for(milliseconds(300));

  Buffer v1 = blob(6000, 1);
  ASSERT_TRUE(pub_ptr->publish("res.cfg", v1).is_ok());
  domain.run_for(seconds(2.0));
  ASSERT_EQ(sub_ptr->completions.size(), 1u);

  Buffer v2 = blob(9000, 2);
  ASSERT_TRUE(pub_ptr->publish("res.cfg", v2).is_ok());
  domain.run_for(seconds(3.0));
  ASSERT_EQ(sub_ptr->completions.size(), 2u);
  EXPECT_EQ(sub_ptr->completions[1].first.revision, 2u);
  EXPECT_EQ(sub_ptr->completions[1].second, v2);
}

TEST(FilesTest, LocalSubscriberBypassesNetwork) {
  SimDomain domain(55);
  auto& n1 = domain.add_node("solo");
  auto pub = std::make_unique<FilePublisher>();
  auto* pub_ptr = pub.get();
  (void)n1.add_service(std::move(pub));
  auto sub = std::make_unique<FileConsumer>("c", "res.local");
  auto* sub_ptr = sub.get();
  (void)n1.add_service(std::move(sub));
  domain.start_all();
  domain.run_for(milliseconds(100));
  domain.network().reset_stats();

  Buffer content = blob(100000);
  ASSERT_TRUE(pub_ptr->publish("res.local", content).is_ok());
  domain.run_for(milliseconds(200));
  ASSERT_EQ(sub_ptr->completions.size(), 1u);
  EXPECT_EQ(sub_ptr->completions[0].second, content);
  // §4.4: "the transfer is bypassed by the container as direct access".
  EXPECT_EQ(domain.network().stats().bytes_sent, 0u);
  EXPECT_GT(domain.container(0).stats().file_local_bypasses, 0u);
}

class FilesLossTest : public ::testing::TestWithParam<double> {};

TEST_P(FilesLossTest, CompletesUnderLoss) {
  SimDomain domain(56);
  sim::LinkParams lp;
  lp.loss = GetParam();
  domain.network().set_default_link(lp);
  auto& n1 = domain.add_node("pub");
  auto pub = std::make_unique<FilePublisher>();
  auto* pub_ptr = pub.get();
  (void)n1.add_service(std::move(pub));
  auto& n2 = domain.add_node("sub");
  auto sub = std::make_unique<FileConsumer>("c", "res.lossy");
  auto* sub_ptr = sub.get();
  (void)n2.add_service(std::move(sub));
  domain.start_all();
  domain.run_for(seconds(2.0));

  Buffer content = blob(30000);
  ASSERT_TRUE(pub_ptr->publish("res.lossy", content).is_ok());
  domain.run_for(seconds(20.0));
  ASSERT_EQ(sub_ptr->completions.size(), 1u) << "loss=" << GetParam();
  EXPECT_EQ(sub_ptr->completions[0].second, content);
}

INSTANTIATE_TEST_SUITE_P(LossRates, FilesLossTest,
                         ::testing::Values(0.05, 0.25));

TEST(FilesTest, TwoServicesOneContainerShareOneTransfer) {
  SimDomain domain(57);
  auto& n1 = domain.add_node("pub");
  auto pub = std::make_unique<FilePublisher>();
  auto* pub_ptr = pub.get();
  (void)n1.add_service(std::move(pub));
  auto& n2 = domain.add_node("sub");
  auto s1 = std::make_unique<FileConsumer>("c1", "res.shared");
  auto s2 = std::make_unique<FileConsumer>("c2", "res.shared");
  auto* s1_ptr = s1.get();
  auto* s2_ptr = s2.get();
  (void)n2.add_service(std::move(s1));
  (void)n2.add_service(std::move(s2));
  domain.start_all();
  domain.run_for(milliseconds(300));

  Buffer content = blob(20000);
  domain.network().reset_stats();
  ASSERT_TRUE(pub_ptr->publish("res.shared", content).is_ok());
  domain.run_for(seconds(3.0));
  ASSERT_EQ(s1_ptr->completions.size(), 1u);
  ASSERT_EQ(s2_ptr->completions.size(), 1u);
  // Container-level dedup: one transfer, fanned out locally.
  EXPECT_LT(domain.network().stats().bytes_sent, content.size() * 2);
}

TEST(FilesTest, EmptyFileTransfers) {
  SimDomain domain(58);
  auto& n1 = domain.add_node("pub");
  auto pub = std::make_unique<FilePublisher>();
  auto* pub_ptr = pub.get();
  (void)n1.add_service(std::move(pub));
  auto& n2 = domain.add_node("sub");
  auto sub = std::make_unique<FileConsumer>("c", "res.empty");
  auto* sub_ptr = sub.get();
  (void)n2.add_service(std::move(sub));
  domain.start_all();
  domain.run_for(milliseconds(300));
  ASSERT_TRUE(pub_ptr->publish("res.empty", Buffer{}).is_ok());
  domain.run_for(seconds(2.0));
  ASSERT_EQ(sub_ptr->completions.size(), 1u);
  EXPECT_TRUE(sub_ptr->completions[0].second.empty());
}

// --- content-addressed bulk path -------------------------------------------

Buffer compressible_blob(size_t chunks, size_t chunk = 1024) {
  // Distinct flat runs per chunk: the codec collapses each to a few
  // bytes, and no two chunks dedup against each other.
  Buffer b;
  b.reserve(chunks * chunk);
  for (size_t c = 0; c < chunks; ++c) {
    b.insert(b.end(), chunk, static_cast<uint8_t>(c + 1));
  }
  return b;
}

TEST(FilesTest, CompressibleContentShrinksWireBytes) {
  SimDomain domain(60);
  auto& n1 = domain.add_node("pub");
  auto pub = std::make_unique<FilePublisher>();
  auto* pub_ptr = pub.get();
  (void)n1.add_service(std::move(pub));
  auto& n2 = domain.add_node("sub");
  auto sub = std::make_unique<FileConsumer>("c", "res.img");
  auto* sub_ptr = sub.get();
  (void)n2.add_service(std::move(sub));
  domain.start_all();
  domain.run_for(milliseconds(300));

  Buffer content = compressible_blob(40);
  domain.network().reset_stats();
  ASSERT_TRUE(pub_ptr->publish("res.img", content).is_ok());
  domain.run_for(seconds(3.0));
  ASSERT_EQ(sub_ptr->completions.size(), 1u);
  EXPECT_EQ(sub_ptr->completions[0].second, content);
  // The announced codec (kLz by default) collapses the flat runs; the
  // wire must carry well under half the raw payload.
  EXPECT_LT(domain.network().stats().bytes_sent, content.size() / 2);
}

TEST(FilesTest, IdenticalRepublishTransfersAlmostNoPayload) {
  SimDomain domain(61);
  auto& n1 = domain.add_node("pub");
  auto pub = std::make_unique<FilePublisher>();
  auto* pub_ptr = pub.get();
  (void)n1.add_service(std::move(pub));
  auto& n2 = domain.add_node("sub");
  auto sub = std::make_unique<FileConsumer>("c", "res.same");
  auto* sub_ptr = sub.get();
  (void)n2.add_service(std::move(sub));
  domain.start_all();
  domain.run_for(milliseconds(300));

  Buffer content = blob(20000, 3);  // incompressible: dedup must do it
  ASSERT_TRUE(pub_ptr->publish("res.same", content).is_ok());
  domain.run_for(seconds(3.0));
  ASSERT_EQ(sub_ptr->completions.size(), 1u);

  // Identical revision: every chunk hash is already in the subscriber's
  // store, so revision 2 completes via resume-by-hash with no chunk
  // payload on the wire — just announce/ack control traffic.
  domain.network().reset_stats();
  ASSERT_TRUE(pub_ptr->publish("res.same", content).is_ok());
  domain.run_for(seconds(3.0));
  ASSERT_EQ(sub_ptr->completions.size(), 2u);
  EXPECT_EQ(sub_ptr->completions[1].first.revision, 2u);
  EXPECT_EQ(sub_ptr->completions[1].second, content);
  EXPECT_LT(domain.network().stats().bytes_sent, 2000u);
}

TEST(FilesTest, EditedRepublishTransfersOnlyTheDelta) {
  SimDomain domain(62);
  auto& n1 = domain.add_node("pub");
  auto pub = std::make_unique<FilePublisher>();
  auto* pub_ptr = pub.get();
  (void)n1.add_service(std::move(pub));
  auto& n2 = domain.add_node("sub");
  auto sub = std::make_unique<FileConsumer>("c", "res.edit");
  auto* sub_ptr = sub.get();
  (void)n2.add_service(std::move(sub));
  domain.start_all();
  domain.run_for(milliseconds(300));

  Buffer v1 = blob(20000, 4);
  ASSERT_TRUE(pub_ptr->publish("res.edit", v1).is_ok());
  domain.run_for(seconds(3.0));
  ASSERT_EQ(sub_ptr->completions.size(), 1u);

  // Edit exactly one chunk; every other chunk resumes from the store
  // and only the delta rides the wire.
  Buffer v2 = v1;
  for (size_t i = 5000; i < 6000; ++i) v2[i] ^= 0xFF;
  domain.network().reset_stats();
  ASSERT_TRUE(pub_ptr->publish("res.edit", v2).is_ok());
  domain.run_for(seconds(3.0));
  ASSERT_EQ(sub_ptr->completions.size(), 2u);
  EXPECT_EQ(sub_ptr->completions[1].second, v2);
  // One ~1 KiB chunk (plus control traffic), not the 20 KiB payload.
  EXPECT_LT(domain.network().stats().bytes_sent, 5000u);
}

TEST(FilesTest, RepublishReusesThePreviousRevisionsChunks) {
  SimDomain domain(63);
  auto& n1 = domain.add_node("pub");
  auto pub = std::make_unique<FilePublisher>();
  auto* pub_ptr = pub.get();
  (void)n1.add_service(std::move(pub));
  auto& n2 = domain.add_node("sub");
  auto sub = std::make_unique<FileConsumer>("c", "res.reuse");
  auto* sub_ptr = sub.get();
  (void)n2.add_service(std::move(sub));
  domain.start_all();
  domain.run_for(milliseconds(300));

  // Half compressible, half noise: reuse must carry both the kept
  // compressed payloads and the ship-raw decisions.
  Buffer content(10000, 0x42);
  for (size_t i = 0; i < content.size(); ++i) {
    content[i] = static_cast<uint8_t>(i / 97);
  }
  Buffer noise = blob(10000, 5);
  content.insert(content.end(), noise.begin(), noise.end());
  const uint64_t chunks = (content.size() + 1023) / 1024;
  const auto& stats = domain.container(0).stats();
  ASSERT_TRUE(pub_ptr->publish("res.reuse", content).is_ok());
  EXPECT_EQ(stats.file_chunks_reused, 0u);  // nothing to reuse yet
  domain.run_for(seconds(3.0));
  ASSERT_EQ(sub_ptr->completions.size(), 1u);

  // Identical republish: every chunk comes from revision 1.
  ASSERT_TRUE(pub_ptr->publish("res.reuse", content).is_ok());
  EXPECT_EQ(stats.file_chunks_reused, chunks);
  domain.run_for(seconds(3.0));
  ASSERT_EQ(sub_ptr->completions.size(), 2u);
  EXPECT_EQ(sub_ptr->completions[1].second, content);

  // One edited chunk is rebuilt; the rest are reused again.
  Buffer edited = content;
  for (size_t i = 3072; i < 4096; ++i) edited[i] ^= 0x5A;
  ASSERT_TRUE(pub_ptr->publish("res.reuse", edited).is_ok());
  EXPECT_EQ(stats.file_chunks_reused, chunks + chunks - 1);
  domain.run_for(seconds(3.0));
  ASSERT_EQ(sub_ptr->completions.size(), 3u);
  EXPECT_EQ(sub_ptr->completions[2].first.revision, 3u);
  EXPECT_EQ(sub_ptr->completions[2].second, edited);
  EXPECT_EQ(stats.file_chunks_probe_skipped, 0u);  // chunk 0 compresses

  // A noise revision: none of the probe's 8 samples compresses, so the
  // other chunks ship raw untried.
  const Buffer noise_rev = blob(20000, 6);
  ASSERT_TRUE(pub_ptr->publish("res.reuse", noise_rev).is_ok());
  EXPECT_EQ(stats.file_chunks_probe_skipped, chunks - 8);
  domain.run_for(seconds(3.0));
  ASSERT_EQ(sub_ptr->completions.size(), 4u);
  EXPECT_EQ(sub_ptr->completions[3].second, noise_rev);

  // The registry publishes the same counts.
  auto& reg = domain.obs().metrics;
  reg.collect();
  const std::string prefix =
      "mw." + std::to_string(domain.container(0).config().id) + ".";
  EXPECT_EQ(reg.counter_value(prefix + "file_chunks_reused"),
            stats.file_chunks_reused);
  EXPECT_EQ(reg.counter_value(prefix + "file_chunks_probe_skipped"),
            stats.file_chunks_probe_skipped);
}

// Subscribes on start; leave() and join() drop and renew the
// subscription.
class Rejoiner final : public Service {
 public:
  explicit Rejoiner(std::string resource)
      : Service("rejoiner"), resource_(std::move(resource)) {}
  Status on_start() override { return join(); }
  Status join() {
    return subscribe_file(
        resource_, [this](const proto::FileMeta& meta, const Buffer& content) {
          completions.emplace_back(meta, content);
        });
  }
  Status leave() { return unsubscribe_file(resource_); }

  std::string resource_;
  std::vector<std::pair<proto::FileMeta, Buffer>> completions;
};

// The chunk store references the file image of the receiver that
// verified each chunk. That receiver goes when a new revision replaces
// it and when its subscription is dropped; an identical republish after
// either must still resume every chunk from the store, intact.
TEST(FilesTest, StoredChunksOutliveTheReceiverThatVerifiedThem) {
  SimDomain domain(64);
  auto& n1 = domain.add_node("pub");
  auto pub = std::make_unique<FilePublisher>();
  auto* pub_ptr = pub.get();
  (void)n1.add_service(std::move(pub));
  auto& n2 = domain.add_node("sub");
  auto sub = std::make_unique<Rejoiner>("res.keep");
  auto* sub_ptr = sub.get();
  (void)n2.add_service(std::move(sub));
  domain.start_all();
  domain.run_for(milliseconds(300));

  auto& reg = domain.obs().metrics;
  const std::string key =
      "mw." + std::to_string(n2.config().id) + ".mftp.chunks_from_store";
  auto from_store = [&] {
    reg.collect();
    return reg.counter_value(key);
  };
  const Buffer v1 = blob(20000, 7);  // incompressible, distinct chunks
  const uint64_t chunks = (v1.size() + 1023) / 1024;
  ASSERT_TRUE(pub_ptr->publish("res.keep", v1).is_ok());
  domain.run_for(seconds(3.0));
  ASSERT_EQ(sub_ptr->completions.size(), 1u);

  // Revision 2 replaces revision 1's receiver.
  ASSERT_TRUE(pub_ptr->publish("res.keep", blob(20000, 8)).is_ok());
  domain.run_for(seconds(3.0));
  ASSERT_EQ(sub_ptr->completions.size(), 2u);
  uint64_t before = from_store();
  ASSERT_TRUE(pub_ptr->publish("res.keep", v1).is_ok());
  domain.run_for(seconds(3.0));
  ASSERT_EQ(sub_ptr->completions.size(), 3u);
  EXPECT_EQ(sub_ptr->completions[2].first.revision, 3u);
  EXPECT_EQ(sub_ptr->completions[2].second, v1);
  EXPECT_EQ(from_store() - before, chunks);

  // Unsubscribing drops revision 3's receiver; the resubscription
  // collects revision 4 from the store alone.
  ASSERT_TRUE(sub_ptr->leave().is_ok());
  domain.run_for(milliseconds(300));
  ASSERT_TRUE(pub_ptr->publish("res.keep", v1).is_ok());
  domain.run_for(milliseconds(300));
  before = from_store();
  ASSERT_TRUE(sub_ptr->join().is_ok());
  domain.run_for(seconds(3.0));
  ASSERT_EQ(sub_ptr->completions.size(), 4u);
  EXPECT_EQ(sub_ptr->completions[3].first.revision, 4u);
  EXPECT_EQ(sub_ptr->completions[3].second, v1);
  EXPECT_EQ(from_store() - before, chunks);
}

// The mftp.* counters are monotonic: a receiver reset by peer loss and a
// publisher torn down by stop() keep their counts in the totals.
TEST(FilesTest, MftpCountersSurvivePeerLossAndStop) {
  SimDomain domain(71);
  auto& n1 = domain.add_node("pub");
  auto pub = std::make_unique<FilePublisher>();
  auto* pub_ptr = pub.get();
  (void)n1.add_service(std::move(pub));
  auto& n2 = domain.add_node("sub");
  auto sub = std::make_unique<FileConsumer>("c", "res.cut");
  auto* sub_ptr = sub.get();
  (void)n2.add_service(std::move(sub));
  domain.start_all();
  domain.run_for(milliseconds(300));

  ASSERT_TRUE(pub_ptr->publish("res.cut", blob(200000)).is_ok());
  domain.run_for(milliseconds(8));
  auto& reg = domain.obs().metrics;
  const std::string sent = "mw." + std::to_string(n1.config().id) +
                           ".mftp.chunks_sent";
  const std::string received = "mw." + std::to_string(n2.config().id) +
                               ".mftp.chunks_received";
  reg.collect();
  const uint64_t sent_before = reg.counter_value(sent);
  const uint64_t received_before = reg.counter_value(received);
  ASSERT_GT(sent_before, 0u);
  ASSERT_GT(received_before, 0u);

  domain.kill_node(0);  // stop(): the publisher goes with its provision
  reg.collect();
  EXPECT_GE(reg.counter_value(sent), sent_before);

  // Heartbeat silence: the subscriber drops its half-done receiver.
  domain.run_for(seconds(2.0));
  EXPECT_TRUE(sub_ptr->completions.empty());
  EXPECT_EQ(domain.container(1).known_peers().size(), 0u);
  reg.collect();
  EXPECT_GE(reg.counter_value(received), received_before);
}

class AlertSource final : public Service {
 public:
  AlertSource() : Service("alert_src") {}
  Status on_start() override {
    auto h = provide_event("alert", enc::u32_type());
    if (!h.ok()) return h.status();
    handle_ = *h;
    return Status::ok();
  }
  Status raise() { return handle_.publish(enc::Value::of_uint(7)); }

 private:
  EventHandle handle_;
};

class AlertSink final : public Service {
 public:
  AlertSink() : Service("alert_sink") {}
  Status on_start() override {
    return subscribe_event(
        "alert", enc::u32_type(),
        [this](const enc::Value&, const EventInfo& info) {
          latencies.push_back(info.latency);
        },
        EventQoS{.ordered = true});
  }
  std::vector<Duration> latencies;
};

// Network time slots for events (paper §4.2): on a link whose chunk
// serialization outlasts the chunk interval, MFTP admits a chunk only
// once the sender's egress queue has drained, so an event published
// mid-transfer waits behind at most one chunk, not the queued file.
TEST(FilesTest, EventOvertakesAFileOnASlowLink) {
  SimDomain domain(60);
  sim::LinkParams lp;
  lp.rate_bps = 8e6;
  domain.network().set_default_link(lp);
  auto& n1 = domain.add_node("pub");
  auto pub = std::make_unique<FilePublisher>();
  auto* pub_ptr = pub.get();
  (void)n1.add_service(std::move(pub));
  auto src = std::make_unique<AlertSource>();
  auto* src_ptr = src.get();
  (void)n1.add_service(std::move(src));
  auto& n2 = domain.add_node("sub");
  auto sub = std::make_unique<FileConsumer>("c", "res.photo");
  auto* sub_ptr = sub.get();
  (void)n2.add_service(std::move(sub));
  auto sink = std::make_unique<AlertSink>();
  auto* sink_ptr = sink.get();
  (void)n2.add_service(std::move(sink));
  domain.start_all();
  domain.run_for(seconds(1.0));

  Buffer content = blob(128 * 1024);  // random: ships raw
  ASSERT_TRUE(pub_ptr->publish("res.photo", content).is_ok());
  domain.run_for(milliseconds(30));  // about a quarter of the transfer
  ASSERT_TRUE(sub_ptr->completions.empty());
  ASSERT_TRUE(src_ptr->raise().is_ok());
  domain.run_for(seconds(3.0));

  // A chunk frame (1 KiB of data plus at most 64 B of headers) takes
  // 1 us per byte on the 8 Mbps egress. Queued FIFO behind the rest of
  // the file instead, the event arrives about 107 ms late.
  const Duration chunk_serialization = microseconds(1024 + 64);
  ASSERT_EQ(sink_ptr->latencies.size(), 1u);
  EXPECT_LE(sink_ptr->latencies[0].ns,
            (lp.latency + lp.jitter + chunk_serialization * 2).ns);
  ASSERT_EQ(sub_ptr->completions.size(), 1u);
  EXPECT_EQ(sub_ptr->completions[0].second, content);
}

TEST(FilesTest, PublisherOwnershipEnforced) {
  SimDomain domain(59);
  auto& n1 = domain.add_node("n");
  class TwoPublishers final : public Service {
   public:
    TwoPublishers() : Service("p2") {}
    Status on_start() override { return Status::ok(); }
  };
  auto pub = std::make_unique<FilePublisher>();
  auto* pub_ptr = pub.get();
  (void)n1.add_service(std::move(pub));
  auto other = std::make_unique<TwoPublishers>();
  (void)n1.add_service(std::move(other));
  domain.start_all();
  domain.run_for(milliseconds(100));
  ASSERT_TRUE(pub_ptr->publish("res.owned", blob(100)).is_ok());
  // Re-publication by the owner bumps the revision fine.
  ASSERT_TRUE(pub_ptr->publish("res.owned", blob(200)).is_ok());
}

// Unsubscribes itself from inside its first progress call.
class ProgressQuitter final : public Service {
 public:
  explicit ProgressQuitter(std::string resource)
      : Service("quitter"), resource_(std::move(resource)) {}
  Status on_start() override {
    return subscribe_file(
        resource_,
        [this](const proto::FileMeta&, const Buffer&) { ++completions; },
        [this](const proto::FileMeta&, uint32_t, uint32_t) {
          ++progress_calls;
          unsubscribed = unsubscribe_file(resource_);
        });
  }

  std::string resource_;
  int completions = 0;
  int progress_calls = 0;
  Status unsubscribed = internal_error("no progress call yet");
};

// Progress handlers run inside the MFTP receiver's chunk handling. One
// that unsubscribes its container's last service must not destroy the
// receiver under that call (a heap-use-after-free under ASan): the
// emptied subscription is retired at the next resubscribe tick, and the
// transfer to every other subscriber goes on.
TEST(FileProgressLifetime, HandlerUnsubscribesTheLastService) {
  SimDomain domain(58);
  auto& n1 = domain.add_node("pub");
  auto pub = std::make_unique<FilePublisher>();
  auto* pub_ptr = pub.get();
  (void)n1.add_service(std::move(pub));
  auto& n2 = domain.add_node("quit");
  auto quitter = std::make_unique<ProgressQuitter>("res.q");
  auto* quitter_ptr = quitter.get();
  (void)n2.add_service(std::move(quitter));
  auto& n3 = domain.add_node("keep");
  auto keeper = std::make_unique<FileConsumer>("keeper", "res.q");
  auto* keeper_ptr = keeper.get();
  (void)n3.add_service(std::move(keeper));
  domain.start_all();
  domain.run_for(milliseconds(300));

  const Buffer first = blob(48000, 1);
  ASSERT_TRUE(pub_ptr->publish("res.q", first).is_ok());
  domain.run_for(seconds(3.0));
  EXPECT_EQ(quitter_ptr->progress_calls, 1);
  EXPECT_TRUE(quitter_ptr->unsubscribed.is_ok())
      << quitter_ptr->unsubscribed.to_string();
  ASSERT_EQ(keeper_ptr->completions.size(), 1u);
  EXPECT_EQ(keeper_ptr->completions[0].second, first);

  // The retired subscription told its provider: the next revision
  // reaches the keeper only.
  const Buffer second = blob(48000, 2);
  ASSERT_TRUE(pub_ptr->publish("res.q", second).is_ok());
  domain.run_for(seconds(3.0));
  ASSERT_EQ(keeper_ptr->completions.size(), 2u);
  EXPECT_EQ(keeper_ptr->completions[1].second, second);
  EXPECT_EQ(quitter_ptr->progress_calls, 1);
  EXPECT_EQ(quitter_ptr->completions, 0);
}

}  // namespace
}  // namespace marea::mw
