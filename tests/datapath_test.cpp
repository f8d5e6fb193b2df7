// Zero-copy datapath building blocks: ByteWriter/ByteReader edge cases,
// the owned-or-borrowed Bytes field type, FramePool slab reuse, and
// SharedFrame fan-out semantics — plus the end-to-end claim they add up
// to: a warm remote variable delivery never touches the heap, and a warm
// RPC round trip allocates only its messages and Value trees. The bulk
// (file) path's per-chunk steps — a warm ChunkStore insert and a
// compressed chunk decoded in place by the MFTP receiver — are held to
// the same zero.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <new>

#include "encoding/typed.h"
#include "middleware/domain.h"
#include "protocol/chunk_table.h"
#include "protocol/frame.h"
#include "protocol/mftp.h"
#include "services/messages.h"
#include "util/bytes.h"
#include "util/crc32.h"
#include "util/frame_pool.h"
#include "util/hash.h"

// Global allocation counter for the steady-state delivery test.
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

namespace marea {
namespace {

// --- ByteWriter / ByteReader edge cases ---------------------------------

TEST(ByteWriterTest, VarintBoundaries) {
  // Every power-of-128 boundary changes the encoded length by one byte.
  const uint64_t cases[] = {0,
                            1,
                            0x7F,
                            0x80,
                            0x3FFF,
                            0x4000,
                            0x1FFFFF,
                            0x200000,
                            0xFFFFFFFFull,
                            0x7FFFFFFFFFFFFFFFull,
                            std::numeric_limits<uint64_t>::max()};
  for (uint64_t v : cases) {
    ByteWriter w;
    w.varint(v);
    ByteReader r(w.view());
    EXPECT_EQ(r.varint(), v);
    EXPECT_TRUE(r.ok());
    EXPECT_TRUE(r.at_end()) << "value " << v;
  }
  // Encoded lengths at the first two boundaries.
  ByteWriter w1;
  w1.varint(0x7F);
  EXPECT_EQ(w1.size(), 1u);
  ByteWriter w2;
  w2.varint(0x80);
  EXPECT_EQ(w2.size(), 2u);
}

TEST(ByteWriterTest, SvarintRoundTripsExtremes) {
  const int64_t cases[] = {0, -1, 1, -64, 64,
                           std::numeric_limits<int64_t>::min(),
                           std::numeric_limits<int64_t>::max()};
  for (int64_t v : cases) {
    ByteWriter w;
    w.svarint(v);
    ByteReader r(w.view());
    EXPECT_EQ(r.svarint(), v);
    EXPECT_TRUE(r.ok());
  }
}

TEST(ByteReaderTest, TruncatedBlobFailsWithoutOverread) {
  ByteWriter w;
  w.blob(Buffer{1, 2, 3, 4, 5});
  Buffer encoded = w.take();
  // Drop the last two payload bytes: length prefix promises 5, only 3
  // remain. The reader must fail, not read out of bounds.
  encoded.resize(encoded.size() - 2);
  ByteReader r{BytesView(encoded)};
  BytesView blob = r.blob();
  EXPECT_FALSE(r.ok());
  EXPECT_TRUE(blob.empty());
}

TEST(ByteReaderTest, BlobLengthPrefixBeyondInputFails) {
  // A varint length far larger than the remaining input (the classic
  // malicious-length attack) must fail cleanly.
  ByteWriter w;
  w.varint(1u << 30);
  w.u8(0xAB);
  ByteReader r(w.view());
  (void)r.blob();
  EXPECT_FALSE(r.ok());
}

TEST(ByteReaderTest, OverlongVarintFails) {
  // 11 continuation bytes exceed the 64-bit shift budget.
  Buffer bad(11, 0x80);
  ByteReader r{BytesView(bad)};
  (void)r.varint();
  EXPECT_FALSE(r.ok());
}

TEST(ByteWriterTest, F64sWritesTheBytesOfScalarF64s) {
  const double values[] = {0.0, -1.5, 3.141592653589793,
                           std::numeric_limits<double>::infinity(), 1e-300};
  ByteWriter bulk;
  bulk.u8(7);
  bulk.f64s(values);
  bulk.f64s({});  // an empty run writes nothing
  ByteWriter scalar;
  scalar.u8(7);
  for (double v : values) scalar.f64(v);
  EXPECT_EQ(bulk.buffer(), scalar.buffer());

  ByteReader r(bulk.view());
  EXPECT_EQ(r.u8(), 7);
  double back[5] = {};
  r.f64s(back);
  EXPECT_TRUE(r.ok());
  EXPECT_TRUE(r.at_end());
  EXPECT_EQ(std::memcmp(back, values, sizeof values), 0);
}

TEST(ByteReaderTest, TruncatedF64sFailsAndConsumesNothing) {
  ByteWriter w;
  const double values[] = {1, 2, 3, 4};
  w.f64s(values);
  for (size_t cut = 0; cut < w.size(); ++cut) {
    ByteReader r(BytesView(w.buffer().data(), cut));
    double out[4] = {};
    r.f64s(out);
    EXPECT_FALSE(r.ok()) << cut;
    EXPECT_EQ(r.position(), 0u) << cut;
    EXPECT_EQ(r.remaining(), cut) << cut;
  }
}

TEST(ByteWriterTest, SkipAndPatchReservedHeader) {
  // The in-place framing pattern: reserve space, write the body, patch
  // the header once the value (length/CRC) is known.
  ByteWriter w;
  w.u8(0x4D);
  size_t patch_at = w.size();
  w.skip(4);  // reserved, zero-filled
  EXPECT_EQ(w.view()[patch_at], 0);
  w.str("body");
  w.patch_u32(patch_at, 0xDEADBEEF);

  ByteReader r(w.view());
  EXPECT_EQ(r.u8(), 0x4D);
  EXPECT_EQ(r.u32(), 0xDEADBEEFu);
  EXPECT_EQ(r.str(), "body");
  EXPECT_TRUE(r.ok());
}

TEST(ByteWriterTest, ExternalBufferModeAppendsInPlace) {
  Buffer slab;
  slab.reserve(64);
  const uint8_t* base = slab.data();
  {
    ByteWriter w(slab);
    w.u32(42);
    w.str("hi");
  }
  // Bytes landed directly in the caller's buffer, no reallocation.
  EXPECT_EQ(slab.data(), base);
  ByteReader r{BytesView(slab)};
  EXPECT_EQ(r.u32(), 42u);
  EXPECT_EQ(r.str(), "hi");
}

// --- Bytes (owned-or-borrowed) ------------------------------------------

TEST(BytesTest, BorrowDoesNotCopyAndCopyOfDoes) {
  Buffer src{1, 2, 3};
  Bytes b = Bytes::borrow(BytesView(src));
  EXPECT_FALSE(b.owned());
  EXPECT_EQ(b.data(), src.data());

  Bytes c = Bytes::copy_of(BytesView(src));
  EXPECT_TRUE(c.owned());
  EXPECT_NE(c.data(), src.data());
  EXPECT_EQ(b, c);
}

TEST(BytesTest, CopyOfBorrowedStaysBorrowedCopyOfOwnedReowns) {
  Buffer src{9, 8, 7};
  Bytes borrowed = Bytes::borrow(BytesView(src));
  Bytes b2 = borrowed;  // copy of a view is still a view
  EXPECT_FALSE(b2.owned());
  EXPECT_EQ(b2.data(), src.data());

  Bytes owned = Buffer{5, 5};
  Bytes o2 = owned;  // copy of owned bytes owns its own storage
  EXPECT_TRUE(o2.owned());
  EXPECT_NE(o2.data(), owned.data());
  EXPECT_EQ(o2, owned);
}

TEST(BytesTest, MaterializeDetachesFromSource) {
  Buffer src{1, 2, 3};
  Bytes b = Bytes::borrow(BytesView(src));
  b.materialize();
  src.assign({0xFF, 0xFF, 0xFF});  // mutate the old source
  EXPECT_TRUE(b.owned());
  EXPECT_EQ(b, (Bytes{1, 2, 3}));
}

TEST(BytesTest, MoveFromOwnedTransfersStorage) {
  Bytes a = Buffer{1, 2, 3};
  const uint8_t* p = a.data();
  Bytes b = std::move(a);
  EXPECT_TRUE(b.owned());
  EXPECT_EQ(b.data(), p);
  EXPECT_TRUE(a.empty());  // NOLINT(bugprone-use-after-move): cleared
}

// --- FramePool / SharedFrame --------------------------------------------

TEST(FramePoolTest, ReuseAfterReleaseHasNoStaleBytes) {
  FramePool pool(/*slab_reserve=*/64, /*max_free=*/4);
  const uint8_t* first_storage = nullptr;
  {
    FrameLease lease = pool.acquire();
    lease.buffer().assign({0xDE, 0xAD, 0xBE, 0xEF});
    first_storage = lease.buffer().data();
    SharedFrame f = std::move(lease).freeze();
    EXPECT_EQ(f.size(), 4u);
  }  // last reference dropped -> slab back to freelist

  FrameLease again = pool.acquire();
  // Same storage came back (pool hit), but emptied: stale frame bytes
  // must never leak into the next checkout.
  EXPECT_EQ(again.buffer().data(), first_storage);
  EXPECT_TRUE(again.buffer().empty());
  EXPECT_GE(again.buffer().capacity(), 4u);

  FramePool::Stats s = pool.stats();
  EXPECT_EQ(s.checkouts, 2u);
  EXPECT_EQ(s.pool_hits, 1u);
  EXPECT_EQ(s.slab_allocs, 1u);
}

TEST(FramePoolTest, SharedFrameFanOutSharesOneSlab) {
  FramePool pool;
  FrameLease lease = pool.acquire();
  lease.buffer().assign({1, 2, 3});
  SharedFrame f = std::move(lease).freeze();

  // Eight destinations, one slab: every copy views the same storage.
  std::vector<SharedFrame> fanout(8, f);
  for (const SharedFrame& dest : fanout) {
    EXPECT_EQ(dest.view().data(), f.view().data());
  }
  EXPECT_EQ(pool.stats().slab_allocs, 1u);

  // Dropping all but one reference must not recycle the slab.
  fanout.clear();
  EXPECT_EQ(f.view().size(), 3u);
  EXPECT_EQ(f.view()[2], 3);
}

TEST(FramePoolTest, DroppedLeaseReturnsSlabUnused) {
  FramePool pool;
  { FrameLease lease = pool.acquire(); }  // never frozen
  FrameLease again = pool.acquire();
  FramePool::Stats s = pool.stats();
  EXPECT_EQ(s.pool_hits, 1u);
  EXPECT_EQ(s.slab_allocs, 1u);
  (void)again;
}

TEST(FramePoolTest, FrameOutlivesPool) {
  SharedFrame survivor;
  {
    FramePool pool;
    FrameLease lease = pool.acquire();
    lease.buffer().assign({7, 7, 7});
    survivor = std::move(lease).freeze();
  }  // pool destroyed with the frame still alive
  EXPECT_EQ(survivor.size(), 3u);
  EXPECT_EQ(survivor.view()[0], 7);
  survivor.reset();  // releases cleanly even though the pool is gone
}

TEST(FramePoolTest, FreelistCapFreesExcessSlabs) {
  FramePool pool(/*slab_reserve=*/32, /*max_free=*/2);
  std::vector<SharedFrame> frames;
  for (int i = 0; i < 5; ++i) {
    FrameLease lease = pool.acquire();
    lease.buffer().assign({static_cast<uint8_t>(i)});
    frames.push_back(std::move(lease).freeze());
  }
  frames.clear();  // 5 released, freelist keeps at most 2
  for (int i = 0; i < 5; ++i) {
    frames.push_back(std::move(pool.acquire()).freeze());
  }
  FramePool::Stats s = pool.stats();
  EXPECT_EQ(s.checkouts, 10u);
  EXPECT_EQ(s.pool_hits, 2u);  // only the capped freelist could serve hits
  EXPECT_EQ(s.slab_allocs, 8u);
}

// --- FrameBuilder: in-place framing over a pooled slab ------------------

TEST(FrameBuilderTest, SealedFrameMatchesLegacySealFrame) {
  proto::FrameHeader h;
  h.type = proto::MsgType::kVarSample;
  h.source = 0x12345678;

  // The layout frame.h documents, written out by hand: magic 0x4D41,
  // version 1, type, source (all little endian), the payload, then the
  // CRC-32 of everything before it.
  Buffer legacy = {0x41, 0x4D, 0x01, 22, 0x78, 0x56, 0x34, 0x12};
  ByteWriter payload;
  payload.str("sample-payload");
  legacy.insert(legacy.end(), payload.view().begin(), payload.view().end());
  const uint32_t crc = crc32(as_bytes_view(legacy));
  for (int shift = 0; shift < 32; shift += 8) {
    legacy.push_back(static_cast<uint8_t>(crc >> shift));
  }

  // Serialize straight into the pooled frame.
  FramePool pool;
  proto::FrameBuilder fb(pool, h);
  fb.payload().str("sample-payload");
  SharedFrame frame = std::move(fb).seal();

  ASSERT_EQ(frame.size(), legacy.size());
  EXPECT_EQ(std::memcmp(frame.view().data(), legacy.data(), legacy.size()),
            0);

  // And it still parses + verifies.
  BytesView body;
  auto parsed = proto::open_frame(frame.view(), &body);
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed.value().type, proto::MsgType::kVarSample);
  EXPECT_EQ(parsed.value().source, 0x12345678u);
}

TEST(FrameBuilderTest, FrameBuilderOutputIsPinned) {
  // Frame bytes are wire bytes: a change to FrameBuilder must reproduce
  // them exactly. The constant is the digest of every frame's length and
  // hash64, one frame per MsgType a container puts on the wire. It was
  // recorded while the copying seal path still existed to cross-check it,
  // and recomputed with that same FrameBuilder each time the list changed:
  // when HELLO_REQUEST took SERVICE_STATUS's place, and when NAME_QUERY
  // and NAME_REPLY left it.
  using T = proto::MsgType;
  const T sent[] = {T::kContainerHello,  T::kContainerBye, T::kHeartbeat,
                    T::kHelloRequest,    T::kVarSample,    T::kReliableData,
                    T::kReliableAck,     T::kFileChunk,
                    T::kFileStatusRequest, T::kFileAck,    T::kFileNack};
  FramePool pool;
  std::vector<uint64_t> folded;
  for (T type : sent) {
    proto::FrameBuilder fb(pool, proto::FrameHeader{type, 0x0A0B0C0D});
    fb.payload().u32(0xC0DE0000u | static_cast<uint8_t>(type));
    fb.payload().str("pinned-payload");
    SharedFrame frame = std::move(fb).seal();
    folded.push_back(frame.size());
    folded.push_back(util::hash64(frame.view()));
  }
  EXPECT_EQ(util::hash64_list(folded.data(), folded.size()),
            0x3a58a4b2dc9881c9ull);
}

// --- steady-state variable delivery --------------------------------------

class FixSource final : public mw::Service {
 public:
  FixSource() : Service("fix_source") {}
  Status on_start() override {
    // Long validity: the subscriber's silence-deadline timer (armed from
    // it) stays out of the measured window along with the other upkeep.
    auto h = provide_variable<services::GpsFix>(
        "gps.position", mw::VariableQoS{.validity = seconds(30.0)});
    if (!h.ok()) return h.status();
    handle_ = *h;
    return Status::ok();
  }
  Status publish(enc::Value v) { return handle_.publish(std::move(v)); }

 private:
  mw::VariableHandle handle_;
};

class FixSink final : public mw::Service {
 public:
  FixSink() : Service("fix_sink") {}
  Status on_start() override {
    return subscribe_variable(
        "gps.position", enc::descriptor_of<services::GpsFix>(),
        [this](const enc::Value& v, const mw::SampleInfo&) {
          ++deliveries;
          last_time_ns = v.as_list()[5].as_int();
        });
  }
  uint64_t deliveries = 0;
  int64_t last_time_ns = 0;
};

TEST(SteadyStateDeliveryTest, WarmRemoteGpsFixDeliveryAllocatesNothing) {
  // Everything between publish() and the subscriber's handler — encode,
  // framing, simulated multicast, executor queues, decode into the
  // subscription's reused tree — must run without the heap once warm.
  // Only the publisher's typed -> Value reflection is outside the window.
  // Background upkeep (heartbeats, health checks, resubscribe) is pushed
  // past the run so the window holds samples only.
  mw::ContainerConfig cfg;
  cfg.heartbeat_interval = seconds(30.0);
  cfg.health_check_interval = seconds(30.0);
  cfg.resubscribe_interval = seconds(30.0);
  mw::SimDomain domain(21);
  auto& pub = domain.add_node("publisher", cfg);
  auto source = std::make_unique<FixSource>();
  FixSource* src = source.get();
  (void)pub.add_service(std::move(source));
  auto& sub = domain.add_node("subscriber", cfg);
  auto sink = std::make_unique<FixSink>();
  FixSink* snk = sink.get();
  (void)sub.add_service(std::move(sink));
  domain.start_all();
  domain.run_for(seconds(1.0));

  services::GpsFix fix;
  auto publish_at = [&](int64_t t) {
    fix.time_ns = t;
    fix.lat_deg = 41.0 + static_cast<double>(t) * 1e-6;
    return src->publish(enc::to_value(fix));
  };
  for (int i = 1; i <= 200; ++i) {  // warm-up
    ASSERT_TRUE(publish_at(i).is_ok());
    domain.run_for(milliseconds(2));
  }
  ASSERT_EQ(snk->last_time_ns, 200);

  constexpr int kSamples = 100;
  std::vector<enc::Value> values;
  values.reserve(kSamples);
  for (int i = 0; i < kSamples; ++i) {
    fix.time_ns = 1000 + i;
    values.push_back(enc::to_value(fix));
  }
  const uint64_t delivered_before = snk->deliveries;
  const uint64_t allocs_before = g_allocs.load(std::memory_order_relaxed);
  for (enc::Value& v : values) {
    (void)src->publish(std::move(v));
    domain.run_for(milliseconds(2));
  }
  const uint64_t allocs = g_allocs.load(std::memory_order_relaxed) -
                          allocs_before;
  EXPECT_EQ(snk->deliveries - delivered_before, uint64_t{kSamples});
  EXPECT_EQ(snk->last_time_ns, 1000 + kSamples - 1);
  EXPECT_EQ(allocs, 0u) << "heap allocations over " << kSamples
                        << " warm remote deliveries";
}

// --- warm RPC round trip ---------------------------------------------------

class EchoServer final : public mw::Service {
 public:
  EchoServer() : Service("echo_server") {}
  Status on_start() override {
    auto type = enc::descriptor_of<services::GpsFix>();
    return provide_function(
        "storage.echo", type, type,
        [](const enc::Value& args) -> StatusOr<enc::Value> { return args; });
  }
};

class EchoCaller final : public mw::Service {
 public:
  EchoCaller() : Service("echo_caller") {}
  Status on_start() override { return Status::ok(); }
  void echo(enc::Value args) {
    call("storage.echo", std::move(args),
         [this](StatusOr<enc::Value> result) {
           if (result.ok()) {
             ++answered;
             last_time_ns = result->as_list()[5].as_int();
           }
         },
         {.timeout = seconds(2.0), .max_failovers = 0});
  }
  uint64_t answered = 0;
  int64_t last_time_ns = 0;
};

TEST(SteadyStateRpcTest, WarmRemoteEchoRoundTripAllocationCeiling) {
  // One remote call and its answer, from call() to the caller's callback,
  // with the upkeep timers pushed past the run as above. The encode, the
  // provider lookup, the ARQ window and the acks reuse what they grew
  // during warm-up. What still allocates, per round trip (a GpsFix is
  // one Value list of scalars, so each Value tree is one allocation):
  //   1  the PendingCall node in the caller's call table;
  //   1  the request buffer, which the ARQ keeps until it is acked;
  //   1  the args Value tree the server decodes for the handler;
  //   1  the posted handler closure: it carries the function name and
  //      that tree, too large for the executor's inline task storage;
  //   1  the handler's own copy of the args as its result (this echo);
  //   1  the response buffer, kept by the server's ARQ until acked;
  //   1  the result Value tree the caller decodes for its callback.
  constexpr uint64_t kAllocsPerCall = 7;
  mw::ContainerConfig cfg;
  cfg.heartbeat_interval = seconds(30.0);
  cfg.health_check_interval = seconds(30.0);
  cfg.resubscribe_interval = seconds(30.0);
  mw::SimDomain domain(22);
  (void)domain.add_node("server", cfg).add_service(
      std::make_unique<EchoServer>());
  auto caller = std::make_unique<EchoCaller>();
  EchoCaller* client = caller.get();
  (void)domain.add_node("client", cfg).add_service(std::move(caller));
  domain.start_all();
  domain.run_for(seconds(1.0));

  services::GpsFix fix;
  fix.lat_deg = 41.0;
  for (int i = 1; i <= 200; ++i) {  // warm-up
    fix.time_ns = i;
    client->echo(enc::to_value(fix));
    domain.run_for(milliseconds(5));
  }
  ASSERT_EQ(client->answered, 200u);

  constexpr int kCalls = 100;
  std::vector<enc::Value> args;
  args.reserve(kCalls);
  for (int i = 0; i < kCalls; ++i) {
    fix.time_ns = 1000 + i;
    args.push_back(enc::to_value(fix));
  }
  const uint64_t allocs_before = g_allocs.load(std::memory_order_relaxed);
  for (enc::Value& v : args) {
    client->echo(std::move(v));
    domain.run_for(milliseconds(5));
  }
  const uint64_t allocs = g_allocs.load(std::memory_order_relaxed) -
                          allocs_before;
  EXPECT_EQ(client->answered, 200u + kCalls);
  EXPECT_EQ(client->last_time_ns, 1000 + kCalls - 1);
  EXPECT_LE(allocs, kAllocsPerCall * kCalls)
      << "heap allocations over " << kCalls << " warm RPC round trips";
}

// --- bulk path ---------------------------------------------------------------

TEST(BulkPathAllocTest, WarmChunkStorePutAllocatesNothing) {
  // Once the slot vector, index and pin list have grown, a put only
  // links a slot: each new image evicts whole older images, one or
  // several, and mixed sizes release a varying number of them.
  proto::ChunkStore store(8 * 1024);
  std::vector<std::shared_ptr<const Buffer>> images;
  std::vector<std::pair<uint64_t, uint64_t>> hashes;  // both chunks
  for (uint32_t i = 0; i < 64; ++i) {
    Buffer b(1024, static_cast<uint8_t>(i));
    b.resize(i % 4 == 3 ? 1724 : 2048, static_cast<uint8_t>(100 + i));
    hashes.emplace_back(util::hash64(BytesView(b).first(1024)),
                        util::hash64(BytesView(b).subspan(1024)));
    images.push_back(std::make_shared<const Buffer>(std::move(b)));
  }
  auto put_image = [&](uint32_t i) {
    store.put(hashes[i].first, images[i], 0, 1024);
    store.put(hashes[i].second, images[i], 1024, images[i]->size() - 1024);
  };
  for (uint32_t i = 0; i < 16; ++i) put_image(i);  // fill and warm
  const uint64_t evictions_before = store.stats().evictions;
  const uint64_t allocs_before = g_allocs.load(std::memory_order_relaxed);
  for (uint32_t i = 16; i < images.size(); ++i) put_image(i);
  const uint64_t allocs =
      g_allocs.load(std::memory_order_relaxed) - allocs_before;
  EXPECT_GT(store.stats().evictions, evictions_before + 80);
  EXPECT_EQ(allocs, 0u) << "heap allocations over "
                        << 2 * (images.size() - 16) << " warm ChunkStore puts";
  EXPECT_EQ(to_buffer(store.find(hashes.back().second)),
            to_buffer(BytesView(*images.back()).subspan(1024)));
}

TEST(BulkPathAllocTest, CompressedChunkDecodesInPlaceWithoutAllocating) {
  // The receiver decodes each compressed chunk straight into its slot of
  // the file image, verifies it there and inserts it into a warm store:
  // no scratch buffer, no index nodes.
  constexpr uint32_t kChunk = 1024;
  constexpr uint32_t kChunks = 40;
  Buffer content;
  for (uint32_t c = 0; c < kChunks; ++c) {
    for (uint32_t k = 0; k < kChunk; ++k) {
      content.push_back(static_cast<uint8_t>((k / 16 + c * 3) & 0xFF));
    }
  }
  proto::FileMeta meta;
  meta.name = "img";
  meta.revision = 1;
  meta.size = content.size();
  meta.chunk_size = kChunk;
  meta.content_crc = crc32(BytesView(content));
  meta.codec = static_cast<uint8_t>(util::Codec::kLz);
  proto::ChunkTable table =
      proto::ChunkTable::build(BytesView(content), kChunk, util::Codec::kLz);
  std::vector<proto::FileChunkMsg> msgs(kChunks);
  for (uint32_t i = 0; i < kChunks; ++i) {
    ASSERT_TRUE(table.entry(i).compressed) << i;
    msgs[i].transfer_id = 7;
    msgs[i].revision = 1;
    msgs[i].index = i;
    msgs[i].hash = table.hashes()[i];
    msgs[i].flags = proto::kChunkFlagCompressed;
    msgs[i].data = to_buffer(table.payload(i));
  }
  // A store already full of other images' chunks: pinning the file
  // image evicts some of them, and no insert grows the store.
  proto::ChunkStore store(64 * kChunk);
  std::vector<std::shared_ptr<const Buffer>> others;
  for (uint32_t i = 0; i < 64; ++i) {
    others.push_back(std::make_shared<const Buffer>(
        kChunk, static_cast<uint8_t>(200 + i)));
    store.put(util::hash64(BytesView(*others.back())), others.back(), 0,
              kChunk);
  }
  proto::MftpReceiver rx(7, meta, [](const proto::FileAckMsg&) {},
                         [](const proto::FileNackMsg&) {});
  rx.set_manifest(table.hashes());
  rx.set_chunk_store(&store);
  bool complete = false;
  rx.set_on_complete(
      [&](std::shared_ptr<const Buffer> b) { complete = *b == content; });
  rx.on_chunk(msgs[0]);  // first run of the held set
  const uint64_t allocs_before = g_allocs.load(std::memory_order_relaxed);
  for (uint32_t i = 1; i < kChunks; ++i) rx.on_chunk(msgs[i]);
  const uint64_t allocs =
      g_allocs.load(std::memory_order_relaxed) - allocs_before;
  EXPECT_TRUE(complete);
  EXPECT_EQ(rx.stats().hash_mismatches, 0u);
  EXPECT_EQ(allocs, 0u) << "heap allocations over " << kChunks - 1
                        << " compressed chunks";
  // The 40 KiB image took the room of 40 one-chunk images.
  EXPECT_EQ(store.stats().evictions, 40u);
  EXPECT_EQ(store.entries(), 24u + kChunks);
  EXPECT_EQ(store.bytes(), 64u * kChunk);
}

}  // namespace
}  // namespace marea
