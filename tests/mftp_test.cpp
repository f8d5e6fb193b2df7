// MFTP engine tests: announce/transfer/completion phases, NACK-driven
// retransmission, late join, revision metadata, unresponsive-subscriber
// handling — all over the lossy simulated network.
#include <gtest/gtest.h>

#include <map>

#include "protocol/mftp.h"
#include "sched/sim_executor.h"
#include "sim/network.h"
#include "util/crc32.h"

namespace marea::proto {
namespace {

Buffer make_content(size_t n, uint64_t seed = 1) {
  Rng rng(seed);
  Buffer b(n);
  for (auto& byte : b) byte = static_cast<uint8_t>(rng.next_u64());
  return b;
}

FileMeta make_meta(const std::string& name, const Buffer& content,
                   uint32_t chunk_size, uint32_t revision = 1) {
  FileMeta meta;
  meta.name = name;
  meta.revision = revision;
  meta.size = content.size();
  meta.chunk_size = chunk_size;
  meta.content_crc = crc32(as_bytes_view(content));
  return meta;
}

// Publisher on node 0; up to N receivers on nodes 1..N, wired through the
// simulated network with multicast for chunks/status and unicast for
// ACK/NACK — the exact topology the middleware uses.
class MftpHarness {
 public:
  MftpHarness(size_t receivers, double loss, size_t content_bytes = 20000,
              uint32_t chunk_size = 1024, uint64_t seed = 3,
              util::Codec codec = util::Codec::kNone,
              Buffer content_override = {})
      : net_(sim_, Rng(seed)), exec_(sim_) {
    pub_node_ = net_.add_node("pub");
    sim::LinkParams lp;
    lp.loss = loss;
    net_.set_default_link(lp);
    // Re-set links from publisher (default link applied per pair lookup).

    content_ = content_override.empty() ? make_content(content_bytes)
                                        : std::move(content_override);
    meta_ = make_meta("res", content_, chunk_size);
    meta_.codec = static_cast<uint8_t>(codec);

    MftpParams params;
    params.chunk_size = chunk_size;
    params.chunk_interval = microseconds(50);
    params.status_timeout = milliseconds(20);

    publisher_ = std::make_unique<MftpPublisher>(
        exec_, params, /*transfer_id=*/99, meta_,
        std::make_shared<const Buffer>(content_),
        [this](const FileChunkMsg& msg) {
          ByteWriter w;
          w.u8(1);
          msg.encode(w);
          (void)net_.send_multicast(Address{pub_node_, 1}, kGroup,
                                    net_.frame_pool().copy_in(w.view()));
        },
        [this](const FileStatusRequestMsg& msg) {
          ByteWriter w;
          w.u8(2);
          msg.encode(w);
          (void)net_.send_multicast(Address{pub_node_, 1}, kGroup,
                                    net_.frame_pool().copy_in(w.view()));
        });
    publisher_->set_on_subscriber_done(
        [this](MftpPeer peer, const Status& s) {
          done_.emplace_back(peer, s);
        });
    publisher_->set_on_idle([this] { ++idle_count_; });

    (void)net_.bind_frames(
        Address{pub_node_, 1},
        [this](Address from, const SharedFrame& frame) {
          ByteReader r(frame.view());
          uint8_t tag = r.u8();
          if (tag == 3) {
            FileAckMsg ack;
            if (FileAckMsg::decode(r, ack)) {
              publisher_->on_ack(from.host, ack);
            }
          } else if (tag == 4) {
            FileNackMsg nack;
            if (FileNackMsg::decode(r, nack)) {
              publisher_->on_nack(from.host, nack);
            }
          }
        });

    for (size_t i = 0; i < receivers; ++i) add_receiver();
  }

  // Creates a receiver node; returns its index.
  size_t add_receiver() {
    size_t index = receivers_.size();
    auto rec = std::make_unique<ReceiverNode>();
    rec->node = net_.add_node("rx" + std::to_string(index));
    rec->receiver = std::make_unique<MftpReceiver>(
        99, meta_,
        [this, node = rec->node](const FileAckMsg& ack) {
          ByteWriter w;
          w.u8(3);
          ack.encode(w);
          (void)net_.send(Address{node, 1}, Address{pub_node_, 1},
                          net_.frame_pool().copy_in(w.view()));
        },
        [this, node = rec->node](const FileNackMsg& nack) {
          ByteWriter w;
          w.u8(4);
          nack.encode(w);
          (void)net_.send(Address{node, 1}, Address{pub_node_, 1},
                          net_.frame_pool().copy_in(w.view()));
        });
    ReceiverNode* raw = rec.get();
    rec->receiver->set_on_complete(
        [raw](const Buffer& data) { raw->completed = data; });
    (void)net_.bind_frames(
        Address{rec->node, 1},
        [raw](Address, const SharedFrame& frame) {
          ByteReader r(frame.view());
          uint8_t tag = r.u8();
          if (tag == 1) {
            FileChunkMsg msg;
            if (FileChunkMsg::decode(r, msg)) {
              raw->receiver->on_chunk(msg);
            }
          } else if (tag == 2) {
            FileStatusRequestMsg msg;
            if (FileStatusRequestMsg::decode(r, msg)) {
              raw->receiver->on_status_request(msg);
            }
          }
        });
    (void)net_.join_group(kGroup, Address{rec->node, 1});
    receivers_.push_back(std::move(rec));
    publisher_->add_subscriber(receivers_.back()->node);
    return index;
  }

  struct ReceiverNode {
    sim::NodeId node;
    std::unique_ptr<MftpReceiver> receiver;
    std::optional<Buffer> completed;
  };

  static constexpr GroupId kGroup = 1000;

  sim::Simulator sim_;
  sim::SimNetwork net_;
  sched::SimExecutor exec_;
  sim::NodeId pub_node_;
  Buffer content_;
  FileMeta meta_;
  std::unique_ptr<MftpPublisher> publisher_;
  std::vector<std::unique_ptr<ReceiverNode>> receivers_;
  std::vector<std::pair<MftpPeer, Status>> done_;
  int idle_count_ = 0;
};

TEST(MftpTest, SingleReceiverLossless) {
  MftpHarness h(1, 0.0);
  h.publisher_->start();
  h.sim_.run();
  ASSERT_TRUE(h.receivers_[0]->completed.has_value());
  EXPECT_EQ(*h.receivers_[0]->completed, h.content_);
  EXPECT_TRUE(h.publisher_->idle());
  EXPECT_EQ(h.publisher_->stats().chunks_sent, h.meta_.chunk_count());
  EXPECT_EQ(h.publisher_->stats().chunk_retransmits, 0u);
  ASSERT_EQ(h.done_.size(), 1u);
  EXPECT_TRUE(h.done_[0].second.is_ok());
}

TEST(MftpTest, MulticastServesManyReceiversWithOnePass) {
  MftpHarness h(8, 0.0);
  h.publisher_->start();
  h.sim_.run();
  for (auto& rec : h.receivers_) {
    ASSERT_TRUE(rec->completed.has_value());
    EXPECT_EQ(*rec->completed, h.content_);
  }
  // One multicast pass regardless of 8 receivers.
  EXPECT_EQ(h.publisher_->stats().chunks_sent, h.meta_.chunk_count());
}

class MftpLossTest : public ::testing::TestWithParam<double> {};

TEST_P(MftpLossTest, CompletesUnderLoss) {
  MftpHarness h(3, GetParam(), 30000, 1000, /*seed=*/7);
  h.publisher_->start();
  h.sim_.run(2'000'000);
  for (auto& rec : h.receivers_) {
    ASSERT_TRUE(rec->completed.has_value()) << "loss=" << GetParam();
    EXPECT_EQ(*rec->completed, h.content_);
  }
  if (GetParam() >= 0.1) {  // at 2% a clean pass is plausible
    EXPECT_GT(h.publisher_->stats().chunk_retransmits, 0u);
    EXPECT_GT(h.publisher_->stats().rounds, 1u);
  }
  // NACK-driven: we never resend everything N times over.
  EXPECT_LT(h.publisher_->stats().chunks_sent,
            static_cast<uint64_t>(h.meta_.chunk_count()) * 5);
}

INSTANTIATE_TEST_SUITE_P(LossRates, MftpLossTest,
                         ::testing::Values(0.02, 0.1, 0.3));

TEST(MftpTest, LateJoinerResumesMidTransfer) {
  MftpHarness h(1, 0.0, 60000, 1000);
  h.publisher_->start();
  // Let roughly half the chunks go out...
  h.sim_.run_for(milliseconds(2));
  size_t late = h.add_receiver();
  h.sim_.run(2'000'000);
  // ...the late joiner still completes (catches the tail live, NACKs the
  // missed prefix at the completion poll).
  ASSERT_TRUE(h.receivers_[late]->completed.has_value());
  EXPECT_EQ(*h.receivers_[late]->completed, h.content_);
  // And it did NOT force a full double send.
  EXPECT_LT(h.publisher_->stats().chunks_sent,
            static_cast<uint64_t>(h.meta_.chunk_count()) * 2);
}

TEST(MftpTest, SubscriberAfterCompletionGetsServed) {
  MftpHarness h(1, 0.0);
  h.publisher_->start();
  h.sim_.run();
  ASSERT_TRUE(h.publisher_->idle());
  size_t late = h.add_receiver();  // transfer already over
  h.sim_.run(2'000'000);
  ASSERT_TRUE(h.receivers_[late]->completed.has_value());
  EXPECT_EQ(*h.receivers_[late]->completed, h.content_);
}

TEST(MftpTest, UnresponsiveSubscriberDroppedOthersComplete) {
  MftpHarness h(2, 0.0);
  // Receiver 1 goes dark before the transfer.
  h.net_.set_node_up(h.receivers_[1]->node, false);
  h.publisher_->start();
  h.sim_.run(2'000'000);
  ASSERT_TRUE(h.receivers_[0]->completed.has_value());
  EXPECT_FALSE(h.receivers_[1]->completed.has_value());
  EXPECT_TRUE(h.publisher_->idle());
  EXPECT_EQ(h.publisher_->stats().dropped_subscribers, 1u);
  // Both outcomes reported.
  ASSERT_EQ(h.done_.size(), 2u);
}

TEST(MftpTest, EmptyFileCompletesImmediately) {
  Buffer empty;
  FileMeta meta = make_meta("empty", empty, 1024);
  bool completed = false;
  MftpReceiver rx(1, meta, [](const FileAckMsg&) {},
                  [](const FileNackMsg&) {});
  rx.set_on_complete([&](const Buffer& b) {
    completed = true;
    EXPECT_TRUE(b.empty());
  });
  EXPECT_TRUE(rx.complete());
  (void)completed;
}

TEST(MftpTest, ReceiverIgnoresWrongTransferAndRevision) {
  Buffer content = make_content(2048);
  FileMeta meta = make_meta("x", content, 1024);
  MftpReceiver rx(5, meta, [](const FileAckMsg&) {},
                  [](const FileNackMsg&) {});
  FileChunkMsg chunk;
  chunk.transfer_id = 6;  // wrong transfer
  chunk.revision = 1;
  chunk.index = 0;
  chunk.data = Buffer(1024, 1);
  rx.on_chunk(chunk);
  EXPECT_EQ(rx.chunks_have(), 0u);
  chunk.transfer_id = 5;
  chunk.revision = 2;  // wrong revision
  rx.on_chunk(chunk);
  EXPECT_EQ(rx.chunks_have(), 0u);
  chunk.revision = 1;
  chunk.index = 99;  // out of range
  rx.on_chunk(chunk);
  EXPECT_EQ(rx.chunks_have(), 0u);
  chunk.index = 0;
  chunk.data = Buffer(10, 1);  // wrong size
  rx.on_chunk(chunk);
  EXPECT_EQ(rx.chunks_have(), 0u);
}

TEST(MftpTest, NackListsExactlyTheMissingChunks) {
  Buffer content = make_content(10240);
  FileMeta meta = make_meta("x", content, 1024);  // 10 chunks
  FileNackMsg last_nack;
  int nacks = 0;
  MftpReceiver rx(5, meta, [](const FileAckMsg&) {},
                  [&](const FileNackMsg& nack) {
                    last_nack = nack;
                    ++nacks;
                  });
  // Deliver chunks 0,1,2 and 5.
  for (uint32_t i : {0u, 1u, 2u, 5u}) {
    FileChunkMsg chunk;
    chunk.transfer_id = 5;
    chunk.revision = 1;
    chunk.index = i;
    chunk.data = Buffer(1024, static_cast<uint8_t>(i));
    rx.on_chunk(chunk);
  }
  FileStatusRequestMsg poll;
  poll.transfer_id = 5;
  poll.revision = 1;
  rx.on_status_request(poll);
  ASSERT_EQ(nacks, 1);
  EXPECT_EQ(last_nack.missing.to_indices(),
            (std::vector<uint32_t>{3, 4, 6, 7, 8, 9}));
}

TEST(MftpTest, CorruptContentRejectedByCrc) {
  Buffer content = make_content(2048);
  FileMeta meta = make_meta("x", content, 1024);
  meta.content_crc ^= 0xFFFFFFFF;  // sabotage expected CRC
  bool completed = false;
  MftpReceiver rx(5, meta, [](const FileAckMsg&) {},
                  [](const FileNackMsg&) {});
  rx.set_on_complete([&](const Buffer&) { completed = true; });
  for (uint32_t i = 0; i < 2; ++i) {
    FileChunkMsg chunk;
    chunk.transfer_id = 5;
    chunk.revision = 1;
    chunk.index = i;
    chunk.data = Buffer(content.begin() + i * 1024,
                        content.begin() + (i + 1) * 1024);
    rx.on_chunk(chunk);
  }
  // CRC mismatch: not completed, collection restarted.
  EXPECT_FALSE(completed);
  EXPECT_FALSE(rx.complete());
  EXPECT_EQ(rx.chunks_have(), 0u);
}

// --- content-addressed bulk path -------------------------------------------

Buffer make_runs_content(size_t chunks, uint32_t chunk_size) {
  // Flat runs per chunk: highly compressible, distinct per chunk.
  Buffer b;
  b.reserve(chunks * chunk_size);
  for (size_t c = 0; c < chunks; ++c) {
    b.insert(b.end(), chunk_size, static_cast<uint8_t>(c * 7 + 1));
  }
  return b;
}

Buffer make_duplicate_content(size_t copies, uint32_t chunk_size,
                              uint64_t seed = 21) {
  Buffer unit = make_content(chunk_size, seed);
  Buffer b;
  for (size_t i = 0; i < copies; ++i) {
    b.insert(b.end(), unit.begin(), unit.end());
  }
  return b;
}

TEST(MftpTest, CorruptedChunkHashMismatchNacksAndRefetches) {
  // Compose with the chaos corruption fault: one payload byte flipped in
  // transit. The frame CRC is a middleware-layer defense; here the raw
  // engine rides the sim datagrams, so the per-chunk hash is what must
  // catch the damage, NACK it, and refetch.
  MftpHarness h(1, 0.0, 20000, 1000, /*seed=*/17);
  sim::LinkFaults bitrot;
  bitrot.corrupt = 0.4;
  h.net_.set_link_faults(h.pub_node_, h.receivers_[0]->node, bitrot);
  h.publisher_->start();
  h.sim_.run(5'000'000);
  ASSERT_TRUE(h.receivers_[0]->completed.has_value());
  EXPECT_EQ(*h.receivers_[0]->completed, h.content_);
  EXPECT_GE(h.receivers_[0]->receiver->stats().hash_mismatches, 1u);
  EXPECT_GE(h.publisher_->stats().chunk_retransmits, 1u);
}

TEST(MftpTest, CompressedTransferShrinksWireBytes) {
  Buffer content = make_runs_content(20, 1000);
  MftpHarness h(1, 0.0, 0, 1000, /*seed=*/3, util::Codec::kLz,
                std::move(content));
  h.publisher_->start();
  h.sim_.run();
  ASSERT_TRUE(h.receivers_[0]->completed.has_value());
  EXPECT_EQ(*h.receivers_[0]->completed, h.content_);
  const auto& ps = h.publisher_->stats();
  EXPECT_EQ(ps.payload_bytes_sent, h.content_.size());
  EXPECT_LT(ps.wire_bytes_sent, ps.payload_bytes_sent / 2);
  EXPECT_EQ(h.receivers_[0]->receiver->stats().wire_bytes_received,
            ps.wire_bytes_sent);
}

TEST(MftpTest, CompressedTransferCompletesUnderLoss) {
  Buffer content = make_runs_content(30, 1000);
  MftpHarness h(2, 0.15, 0, 1000, /*seed=*/29, util::Codec::kLz,
                std::move(content));
  h.publisher_->start();
  h.sim_.run(5'000'000);
  for (auto& rec : h.receivers_) {
    ASSERT_TRUE(rec->completed.has_value());
    EXPECT_EQ(*rec->completed, h.content_);
  }
}

TEST(MftpTest, ManifestEnablesSameHashSiblingFills) {
  // Eight identical chunks + the announce manifest: the publisher sends
  // one copy, the receiver fills the other seven by hash.
  Buffer content = make_duplicate_content(8, 1000);
  MftpHarness h(1, 0.0, 0, 1000, /*seed=*/3, util::Codec::kNone,
                std::move(content));
  h.receivers_[0]->receiver->set_manifest(h.publisher_->chunk_hashes());
  // No start(): add_subscriber already opened a completion poll, and the
  // NACK-driven repair round is where dedup elision pays off.
  h.sim_.run();
  ASSERT_TRUE(h.receivers_[0]->completed.has_value());
  EXPECT_EQ(*h.receivers_[0]->completed, h.content_);
  EXPECT_EQ(h.publisher_->stats().chunks_sent, 1u);
  EXPECT_EQ(h.publisher_->stats().chunks_dedup_skipped, 7u);
  EXPECT_EQ(h.receivers_[0]->receiver->stats().chunks_deduped, 7u);
}

TEST(MftpTest, ManifestlessReceiverConvergesOnDuplicateContent) {
  // Without the manifest the receiver cannot sibling-fill; the publisher
  // still elides same-hash sends within a round, so repair rounds must
  // deliver the siblings one by one — converging, not livelocking.
  Buffer content = make_duplicate_content(6, 1000);
  MftpHarness h(1, 0.0, 0, 1000, /*seed=*/3, util::Codec::kNone,
                std::move(content));
  h.publisher_->start();
  h.sim_.run(10'000'000);
  ASSERT_TRUE(h.receivers_[0]->completed.has_value());
  EXPECT_EQ(*h.receivers_[0]->completed, h.content_);
  EXPECT_GT(h.publisher_->stats().rounds, 1u);
}

TEST(MftpTest, NackEchoesManifestHash) {
  Buffer content = make_content(4096);
  FileMeta meta = make_meta("x", content, 1024);
  ChunkTable table =
      ChunkTable::build(as_bytes_view(content), 1024, util::Codec::kNone);
  FileNackMsg last_nack;
  int nacks = 0;
  MftpReceiver rx(5, meta, [](const FileAckMsg&) {},
                  [&](const FileNackMsg& nack) {
                    last_nack = nack;
                    ++nacks;
                  });
  rx.set_manifest(table.hashes());
  FileStatusRequestMsg poll;
  poll.transfer_id = 5;
  poll.revision = 1;
  rx.on_status_request(poll);
  ASSERT_EQ(nacks, 1);
  EXPECT_EQ(last_nack.manifest_hash, table.manifest_hash());
  EXPECT_EQ(rx.manifest_hash(), table.manifest_hash());
}

TEST(MftpTest, ResumeFromStoreCompletesWithoutAnyChunkSends) {
  // Transfer 1 populates the shared ChunkStore; an identical-revision
  // transfer 2 then resumes entirely by hash — zero chunks on the wire.
  Buffer content = make_content(4096, 31);
  FileMeta meta = make_meta("x", content, 1024);
  ChunkTable table =
      ChunkTable::build(as_bytes_view(content), 1024, util::Codec::kNone);
  ChunkStore store;

  MftpReceiver rx1(5, meta, [](const FileAckMsg&) {},
                   [](const FileNackMsg&) {});
  rx1.set_manifest(table.hashes());
  rx1.set_chunk_store(&store);
  for (uint32_t i = 0; i < 4; ++i) {
    FileChunkMsg chunk;
    chunk.transfer_id = 5;
    chunk.revision = 1;
    chunk.index = i;
    chunk.hash = table.hashes()[i];
    chunk.data = Buffer(content.begin() + i * 1024,
                        content.begin() + (i + 1) * 1024);
    rx1.on_chunk(chunk);
  }
  ASSERT_TRUE(rx1.complete());
  EXPECT_EQ(store.entries(), 4u);

  std::optional<Buffer> completed;
  MftpReceiver rx2(6, meta, [](const FileAckMsg&) {},
                   [](const FileNackMsg&) {});
  rx2.set_manifest(table.hashes());
  rx2.set_chunk_store(&store);
  rx2.set_on_complete([&](const Buffer& b) { completed = b; });
  rx2.resume_from_store();
  ASSERT_TRUE(completed.has_value());
  EXPECT_EQ(*completed, content);
  EXPECT_EQ(rx2.stats().chunks_from_store, 4u);
  EXPECT_EQ(rx2.stats().chunks_received, 0u);
}

TEST(MftpTest, WrongHashChunkRejectedEvenWithMatchingSize) {
  Buffer content = make_content(2048, 33);
  FileMeta meta = make_meta("x", content, 1024);
  ChunkTable table =
      ChunkTable::build(as_bytes_view(content), 1024, util::Codec::kNone);
  MftpReceiver rx(5, meta, [](const FileAckMsg&) {},
                  [](const FileNackMsg&) {});
  rx.set_manifest(table.hashes());
  FileChunkMsg chunk;
  chunk.transfer_id = 5;
  chunk.revision = 1;
  chunk.index = 0;
  chunk.hash = table.hashes()[0];
  chunk.data = Buffer(1024, 0x5A);  // right size, wrong bytes
  rx.on_chunk(chunk);
  EXPECT_EQ(rx.chunks_have(), 0u);
  EXPECT_EQ(rx.stats().hash_mismatches, 1u);
}

TEST(MftpTest, CompressedWrongHashChunkStaysUnheldThenRepairs) {
  // A well-formed compressed stream that decodes to the wrong bytes
  // (chunk 1's payload sent as chunk 0) is decoded in place into chunk
  // 0's slot, fails verification, and leaves the index unheld: it is
  // NACKed, kept out of the store, and a later good copy overwrites the
  // slot so the file still completes intact.
  Buffer content = make_runs_content(4, 1000);
  FileMeta meta = make_meta("x", content, 1000);
  meta.codec = static_cast<uint8_t>(util::Codec::kLz);
  ChunkTable table =
      ChunkTable::build(as_bytes_view(content), 1000, util::Codec::kLz);
  for (uint32_t i = 0; i < 4; ++i) ASSERT_TRUE(table.entry(i).compressed);
  ChunkStore store;
  FileNackMsg last_nack;
  std::optional<Buffer> completed;
  MftpReceiver rx(5, meta, [](const FileAckMsg&) {},
                  [&](const FileNackMsg& nack) { last_nack = nack; });
  rx.set_manifest(table.hashes());
  rx.set_chunk_store(&store);
  rx.set_on_complete([&](const Buffer& b) { completed = b; });
  auto chunk_msg = [&](uint32_t index, uint32_t payload_of, uint64_t hash) {
    FileChunkMsg chunk;
    chunk.transfer_id = 5;
    chunk.revision = 1;
    chunk.index = index;
    chunk.hash = hash;
    chunk.flags = kChunkFlagCompressed;
    chunk.data = to_buffer(table.payload(payload_of));
    return chunk;
  };

  // Wrong bytes under the right chunk hash, then under no chunk hash
  // (the manifest still catches it).
  rx.on_chunk(chunk_msg(0, 1, table.hashes()[0]));
  rx.on_chunk(chunk_msg(0, 1, 0));
  EXPECT_EQ(rx.chunks_have(), 0u);
  EXPECT_EQ(rx.stats().hash_mismatches, 2u);
  EXPECT_EQ(rx.stats().payload_bytes_received, 0u);
  EXPECT_EQ(store.entries(), 0u);

  for (uint32_t i = 1; i < 4; ++i) {
    rx.on_chunk(chunk_msg(i, i, table.hashes()[i]));
  }
  FileStatusRequestMsg poll;
  poll.transfer_id = 5;
  poll.revision = 1;
  rx.on_status_request(poll);
  EXPECT_EQ(last_nack.missing.to_indices(), (std::vector<uint32_t>{0}));
  EXPECT_FALSE(completed.has_value());

  rx.on_chunk(chunk_msg(0, 0, table.hashes()[0]));  // the repair
  ASSERT_TRUE(completed.has_value());
  EXPECT_EQ(*completed, content);
  EXPECT_EQ(store.entries(), 4u);
}

TEST(MftpTest, CompressedChunkUnderUnknownCodecStaysUnheldAndIsNacked) {
  // An announce naming a codec this build does not know (id 1 is the
  // retired RLE id) cannot decode a chunk flagged compressed: the chunk
  // is counted as a mismatch, its index stays unheld and the next poll
  // NACKs it. A raw chunk of the same transfer is still accepted.
  Buffer content = make_runs_content(2, 1000);
  ChunkTable table =
      ChunkTable::build(as_bytes_view(content), 1000, util::Codec::kLz);
  ASSERT_TRUE(table.entry(0).compressed);
  for (uint8_t codec : {uint8_t{1}, uint8_t{0xFF}}) {
    SCOPED_TRACE(static_cast<int>(codec));
    FileMeta meta = make_meta("x", content, 1000);
    meta.codec = codec;
    FileNackMsg last_nack;
    int nacks = 0;
    bool completed = false;
    MftpReceiver rx(5, meta, [](const FileAckMsg&) {},
                    [&](const FileNackMsg& nack) {
                      last_nack = nack;
                      ++nacks;
                    });
    rx.set_manifest(table.hashes());
    rx.set_on_complete([&](const Buffer&) { completed = true; });
    FileChunkMsg chunk;
    chunk.transfer_id = 5;
    chunk.revision = 1;
    chunk.index = 0;
    chunk.hash = table.hashes()[0];
    chunk.flags = kChunkFlagCompressed;
    chunk.data = to_buffer(table.payload(0));
    rx.on_chunk(chunk);
    EXPECT_EQ(rx.stats().hash_mismatches, 1u);
    EXPECT_EQ(rx.chunks_have(), 0u);

    FileChunkMsg raw;
    raw.transfer_id = 5;
    raw.revision = 1;
    raw.index = 1;
    raw.hash = table.hashes()[1];
    raw.data = Buffer(content.begin() + 1000, content.end());
    rx.on_chunk(raw);
    EXPECT_EQ(rx.chunks_have(), 1u);

    FileStatusRequestMsg poll;
    poll.transfer_id = 5;
    poll.revision = 1;
    rx.on_status_request(poll);
    ASSERT_EQ(nacks, 1);
    EXPECT_EQ(last_nack.missing.to_indices(), (std::vector<uint32_t>{0}));
    EXPECT_FALSE(completed);
  }
}

TEST(MftpTest, ProgressCallbackCounts) {
  Buffer content = make_content(4096);
  FileMeta meta = make_meta("x", content, 1024);
  std::vector<uint32_t> progress;
  MftpReceiver rx(5, meta, [](const FileAckMsg&) {},
                  [](const FileNackMsg&) {});
  rx.set_on_progress(
      [&](uint32_t have, uint32_t total) {
        progress.push_back(have);
        EXPECT_EQ(total, 4u);
      });
  for (uint32_t i = 0; i < 4; ++i) {
    FileChunkMsg chunk;
    chunk.transfer_id = 5;
    chunk.revision = 1;
    chunk.index = i;
    chunk.data = Buffer(content.begin() + i * 1024,
                        content.begin() + (i + 1) * 1024);
    rx.on_chunk(chunk);
  }
  EXPECT_EQ(progress, (std::vector<uint32_t>{1, 2, 3, 4}));
}

}  // namespace
}  // namespace marea::proto
