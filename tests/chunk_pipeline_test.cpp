// Content-addressed chunk pipeline tests: hash64 properties, RLE/LZ
// codec round-trips and hostile-input safety, ChunkTable thread-count
// invariance (the determinism contract behind byte-identical ShardGrid
// dumps), the bounded ChunkStore LRU, and the parallel_for fan-out.
// Test-suite names carry the "ChunkPipeline" prefix so the TSan CI leg
// (-R '...|ChunkPipeline') races the thread-pooled paths.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstring>
#include <list>
#include <set>
#include <vector>

#include "protocol/chunk_table.h"
#include "sched/parallel.h"
#include "sched/thread_pool.h"
#include "util/compress.h"
#include "util/hash.h"
#include "util/rng.h"

namespace marea {
namespace {

Buffer random_bytes(size_t n, uint64_t seed) {
  Rng rng(seed);
  Buffer b(n);
  for (auto& byte : b) byte = static_cast<uint8_t>(rng.next_u64());
  return b;
}

// Synthetic "imagery": long flat runs, gentle gradients, repeated rows —
// the compressible shape the bench generator also uses.
Buffer imagery_bytes(size_t rows, size_t cols, uint64_t seed) {
  Rng rng(seed);
  Buffer b;
  b.reserve(rows * cols);
  for (size_t r = 0; r < rows; ++r) {
    const uint64_t kind = rng.next_u64() % 3;
    for (size_t c = 0; c < cols; ++c) {
      uint8_t px = 0;
      if (kind == 0) {
        px = static_cast<uint8_t>(r);  // flat row
      } else if (kind == 1) {
        px = static_cast<uint8_t>(c / 4);  // gradient
      } else {
        px = static_cast<uint8_t>(rng.next_u64());  // noise
      }
      b.push_back(px);
    }
  }
  return b;
}

// --- hash64 -----------------------------------------------------------------

TEST(ChunkPipelineHashTest, StableAcrossCalls) {
  Buffer data = random_bytes(1000, 42);
  EXPECT_EQ(util::hash64(BytesView(data)), util::hash64(BytesView(data)));
}

TEST(ChunkPipelineHashTest, SensitiveToEveryByteAndToLength) {
  Buffer data = random_bytes(257, 9);
  const uint64_t base = util::hash64(BytesView(data));
  for (size_t i = 0; i < data.size(); ++i) {
    Buffer mutated = data;
    mutated[i] ^= 0x01;
    EXPECT_NE(util::hash64(BytesView(mutated)), base) << "byte " << i;
  }
  Buffer shorter(data.begin(), data.end() - 1);
  EXPECT_NE(util::hash64(BytesView(shorter)), base);
}

TEST(ChunkPipelineHashTest, SeedChangesDigestAndEmptyIsValid) {
  Buffer data = random_bytes(64, 3);
  EXPECT_NE(util::hash64(BytesView(data), 1), util::hash64(BytesView(data), 2));
  // Empty input hashes (to something stable) rather than crashing.
  EXPECT_EQ(util::hash64(BytesView{}), util::hash64(BytesView{}));
  EXPECT_NE(util::hash64(BytesView{}, 1), util::hash64(BytesView{}, 2));
}

TEST(ChunkPipelineHashTest, NoCollisionsAcrossSmallCorpus) {
  // 4k distinct short strings — a 64-bit hash colliding here would be
  // a red flag for the mixer, not bad luck.
  std::set<uint64_t> seen;
  for (uint32_t i = 0; i < 4096; ++i) {
    Buffer b(sizeof(i));
    std::memcpy(b.data(), &i, sizeof(i));
    seen.insert(util::hash64(BytesView(b)));
  }
  EXPECT_EQ(seen.size(), 4096u);
}

TEST(ChunkPipelineHashTest, HashListDependsOnOrderAndCount) {
  std::vector<uint64_t> values{1, 2, 3};
  const uint64_t a = util::hash64_list(values.data(), values.size());
  std::vector<uint64_t> swapped{2, 1, 3};
  EXPECT_NE(util::hash64_list(swapped.data(), swapped.size()), a);
  EXPECT_NE(util::hash64_list(values.data(), 2), a);
  EXPECT_EQ(util::hash64_list(values.data(), values.size()), a);
}

// --- codecs -----------------------------------------------------------------

// Encodes with the caller span the bulk path uses (in.size() - 1 bytes);
// returns the encoded bytes, or an empty buffer when the codec refused.
Buffer compress_to_buffer(const util::Compressor& comp, BytesView in) {
  Buffer out(in.empty() ? 0 : in.size() - 1);
  out.resize(comp.compress(in, out));
  return out;
}

// Decodes into the middle of a guarded buffer: the decoder must fill
// exactly `raw_size` bytes and never touch the guard bytes either side.
struct GuardedDecode {
  bool ok = false;
  bool guards_intact = false;
  Buffer out;
};
GuardedDecode guarded_decompress(const util::Compressor& comp, BytesView in,
                                 size_t raw_size) {
  Buffer buf(raw_size + 2, 0xEE);
  GuardedDecode r;
  r.ok = comp.decompress(in, std::span<uint8_t>(buf).subspan(1, raw_size));
  r.guards_intact = buf.front() == 0xEE && buf.back() == 0xEE;
  r.out.assign(buf.begin() + 1, buf.end() - 1);
  return r;
}

class ChunkPipelineCodecTest : public ::testing::TestWithParam<util::Codec> {};

TEST_P(ChunkPipelineCodecTest, RoundTripsCompressibleData) {
  const util::Compressor* comp = util::compressor_for(GetParam());
  ASSERT_NE(comp, nullptr);
  Buffer raw = imagery_bytes(64, 256, 5);
  Buffer packed = compress_to_buffer(*comp, BytesView(raw));
  ASSERT_FALSE(packed.empty());
  EXPECT_LT(packed.size(), raw.size());
  EXPECT_LE(raw.size(), comp->max_decoded_size(packed.size()));
  GuardedDecode d = guarded_decompress(*comp, BytesView(packed), raw.size());
  ASSERT_TRUE(d.ok);
  EXPECT_TRUE(d.guards_intact);
  EXPECT_EQ(d.out, raw);
}

TEST_P(ChunkPipelineCodecTest, RefusesIncompressibleAndRestoresOut) {
  // Refusal is a 0 return, and the encoder never writes outside the
  // span it was given (here, between two guard bytes).
  const util::Compressor* comp = util::compressor_for(GetParam());
  ASSERT_NE(comp, nullptr);
  Buffer raw = random_bytes(4096, 77);
  Buffer out(raw.size() + 1, 0xAB);
  EXPECT_EQ(comp->compress(BytesView(raw),
                           std::span<uint8_t>(out).subspan(1, raw.size() - 1)),
            0u);
  EXPECT_EQ(out.front(), 0xAB);
  EXPECT_EQ(out.back(), 0xAB);
}

TEST_P(ChunkPipelineCodecTest, CompressStopsAtTheSpanLimit) {
  // An encoding of E bytes fits a span of E (same bytes as with room to
  // spare) and is refused by a span of E - 1, without writing past it.
  const util::Compressor* comp = util::compressor_for(GetParam());
  ASSERT_NE(comp, nullptr);
  Buffer raw = imagery_bytes(8, 256, 14);
  Buffer packed = compress_to_buffer(*comp, BytesView(raw));
  ASSERT_GT(packed.size(), 1u);
  const size_t e = packed.size();
  Buffer exact(e + 1, 0x5A);
  EXPECT_EQ(comp->compress(BytesView(raw),
                           std::span<uint8_t>(exact).first(e)),
            e);
  EXPECT_TRUE(std::equal(packed.begin(), packed.end(), exact.begin()));
  EXPECT_EQ(exact.back(), 0x5A);
  Buffer short_by_one(e, 0x5A);
  EXPECT_EQ(comp->compress(BytesView(raw),
                           std::span<uint8_t>(short_by_one).first(e - 1)),
            0u);
  EXPECT_EQ(short_by_one.back(), 0x5A);
}

TEST_P(ChunkPipelineCodecTest, DecompressIsTotalOnHostileInput) {
  const util::Compressor* comp = util::compressor_for(GetParam());
  ASSERT_NE(comp, nullptr);
  Buffer raw = imagery_bytes(16, 256, 6);
  Buffer packed = compress_to_buffer(*comp, BytesView(raw));
  ASSERT_FALSE(packed.empty());
  // Truncations at every length: must fail (a prefix cannot fill the
  // whole output) and never write outside the output span.
  for (size_t len = 0; len < packed.size(); ++len) {
    GuardedDecode d =
        guarded_decompress(*comp, BytesView(packed.data(), len), raw.size());
    EXPECT_FALSE(d.ok) << "len=" << len;
    EXPECT_TRUE(d.guards_intact) << "len=" << len;
  }
  // Single-bit corruption sweep: decode either fails cleanly or fills
  // exactly raw_size bytes — it must never over/under-run.
  Rng rng(8);
  for (int trial = 0; trial < 200; ++trial) {
    Buffer bad = packed;
    bad[rng.next_u64() % bad.size()] ^= 1u << (rng.next_u64() % 8);
    GuardedDecode d = guarded_decompress(*comp, BytesView(bad), raw.size());
    EXPECT_TRUE(d.guards_intact) << "trial " << trial;
  }
  // Garbage streams against too-small, exact and too-large outputs.
  for (int trial = 0; trial < 200; ++trial) {
    Buffer junk = random_bytes(1 + rng.next_u64() % 64, 1000 + trial);
    const size_t out_size = rng.next_u64() % 300;
    GuardedDecode d = guarded_decompress(*comp, BytesView(junk), out_size);
    EXPECT_TRUE(d.guards_intact) << "trial " << trial;
  }
  // The right stream into the wrong output size is a failure, not a
  // partial decode.
  EXPECT_FALSE(
      guarded_decompress(*comp, BytesView(packed), raw.size() - 1).ok);
  EXPECT_FALSE(
      guarded_decompress(*comp, BytesView(packed), raw.size() + 1).ok);
}

INSTANTIATE_TEST_SUITE_P(Codecs, ChunkPipelineCodecTest,
                         ::testing::Values(util::Codec::kRle,
                                           util::Codec::kLz));

TEST(ChunkPipelineCodecTest, RleHandlesRunsAndLiteralBoundaries) {
  const util::Compressor* rle = util::compressor_for(util::Codec::kRle);
  // 200 equal bytes then 1 literal: classic run + tail.
  Buffer raw(200, 0x7F);
  raw.push_back(0x01);
  Buffer packed = compress_to_buffer(*rle, BytesView(raw));
  ASSERT_FALSE(packed.empty());
  GuardedDecode d = guarded_decompress(*rle, BytesView(packed), raw.size());
  ASSERT_TRUE(d.ok);
  EXPECT_EQ(d.out, raw);
}

TEST(ChunkPipelineCodecTest, RleRefusesAtExactlyRawSize) {
  // A 4-run (2-byte token) plus 5 literals (6 bytes) encodes to 8 bytes
  // for a 9-byte input: in.size() - 1, the largest size kept. A 3-run
  // with the same literals encodes to 8 bytes for 8: not smaller, so
  // refused.
  const util::Compressor* rle = util::compressor_for(util::Codec::kRle);
  Buffer fits{9, 9, 9, 9, 1, 2, 3, 4, 5};
  Buffer packed = compress_to_buffer(*rle, BytesView(fits));
  EXPECT_EQ(packed, (Buffer{0x81, 9, 0x04, 1, 2, 3, 4, 5}));
  Buffer equal{9, 9, 9, 1, 2, 3, 4, 5};
  EXPECT_TRUE(compress_to_buffer(*rle, BytesView(equal)).empty());
  // Even a larger span does not make the codec keep a non-shrinking
  // encoding.
  Buffer roomy(64);
  EXPECT_EQ(rle->compress(BytesView(equal), roomy), 0u);
  // The expansion bound is tight: one repeat token, 130 bytes.
  Buffer run{0xFF, 0x42};
  EXPECT_EQ(rle->max_decoded_size(run.size()), 130u);
  GuardedDecode d = guarded_decompress(*rle, BytesView(run), 130);
  ASSERT_TRUE(d.ok);
  EXPECT_EQ(d.out, Buffer(130, 0x42));
}

TEST(ChunkPipelineCodecTest, LzOverlappingMatchReplicates) {
  const util::Compressor* lz = util::compressor_for(util::Codec::kLz);
  // Hand-built streams. Token [L:4|M:4], literals, u16 offset; match
  // length is M + 4.
  // Offset 1 < length 15: one literal 'Q' replicated byte by byte.
  Buffer overlap{0x1B, 'Q', 0x01, 0x00};
  GuardedDecode d = guarded_decompress(*lz, BytesView(overlap), 16);
  ASSERT_TRUE(d.ok);
  EXPECT_TRUE(d.guards_intact);
  EXPECT_EQ(d.out, Buffer(16, 'Q'));
  // Offset 3 < length 7: a 3-byte period.
  Buffer period{0x33, 'x', 'y', 'z', 0x03, 0x00};
  d = guarded_decompress(*lz, BytesView(period), 10);
  ASSERT_TRUE(d.ok);
  EXPECT_EQ(d.out, (Buffer{'x', 'y', 'z', 'x', 'y', 'z', 'x', 'y', 'z', 'x'}));
  // Offset 4 == length 4: the non-overlapping (block copy) path.
  Buffer disjoint{0x40, 'a', 'b', 'c', 'd', 0x04, 0x00};
  d = guarded_decompress(*lz, BytesView(disjoint), 8);
  ASSERT_TRUE(d.ok);
  EXPECT_EQ(d.out, (Buffer{'a', 'b', 'c', 'd', 'a', 'b', 'c', 'd'}));
  // Offset reaching before the start of the output is rejected.
  Buffer before_start{0x10, 'a', 0x02, 0x00};
  EXPECT_FALSE(guarded_decompress(*lz, BytesView(before_start), 5).ok);
  // The encoder emits overlapping matches for periodic input, and they
  // round-trip.
  Buffer periodic;
  for (int i = 0; i < 300; ++i) periodic.push_back(static_cast<uint8_t>(i % 5));
  Buffer packed = compress_to_buffer(*lz, BytesView(periodic));
  ASSERT_FALSE(packed.empty());
  d = guarded_decompress(*lz, BytesView(packed), periodic.size());
  ASSERT_TRUE(d.ok);
  EXPECT_EQ(d.out, periodic);
}

TEST(ChunkPipelineCodecTest, UnknownWireIdIsRejectedNotFatal) {
  EXPECT_EQ(util::compressor_for(static_cast<uint8_t>(250)), nullptr);
  EXPECT_EQ(util::compressor_for(util::Codec::kNone), nullptr);
}

// --- ChunkTable -------------------------------------------------------------

TEST(ChunkPipelineTableTest, IdenticalAcrossThreadCounts) {
  Buffer content = imagery_bytes(128, 512, 11);
  for (util::Codec codec :
       {util::Codec::kNone, util::Codec::kRle, util::Codec::kLz}) {
    proto::ChunkTable one =
        proto::ChunkTable::build(BytesView(content), 1024, codec, 1);
    proto::ChunkTable four =
        proto::ChunkTable::build(BytesView(content), 1024, codec, 4);
    ASSERT_EQ(one.chunk_count(), four.chunk_count());
    EXPECT_EQ(one.manifest_hash(), four.manifest_hash());
    for (uint32_t i = 0; i < one.chunk_count(); ++i) {
      EXPECT_EQ(one.entry(i).hash, four.entry(i).hash) << i;
      EXPECT_EQ(one.entry(i).compressed, four.entry(i).compressed) << i;
      EXPECT_TRUE(std::ranges::equal(one.payload(i), four.payload(i))) << i;
    }
    // Deterministic byte accounting too (wall-clock nanos excluded).
    EXPECT_EQ(one.stats().raw_bytes, four.stats().raw_bytes);
    EXPECT_EQ(one.stats().wire_bytes, four.stats().wire_bytes);
    EXPECT_EQ(one.stats().compressed_chunks, four.stats().compressed_chunks);
  }
}

TEST(ChunkPipelineTableTest, ManifestNamesContentAndLayout) {
  Buffer content = imagery_bytes(32, 256, 12);
  proto::ChunkTable a =
      proto::ChunkTable::build(BytesView(content), 1024, util::Codec::kNone);
  // Same content, same layout -> same manifest.
  proto::ChunkTable b =
      proto::ChunkTable::build(BytesView(content), 1024, util::Codec::kLz);
  EXPECT_EQ(a.manifest_hash(), b.manifest_hash());
  // Different chunking -> different manifest.
  proto::ChunkTable c =
      proto::ChunkTable::build(BytesView(content), 2048, util::Codec::kNone);
  EXPECT_NE(a.manifest_hash(), c.manifest_hash());
  // One flipped byte -> different manifest.
  Buffer mutated = content;
  mutated[100] ^= 0xFF;
  proto::ChunkTable d =
      proto::ChunkTable::build(BytesView(mutated), 1024, util::Codec::kNone);
  EXPECT_NE(a.manifest_hash(), d.manifest_hash());
}

TEST(ChunkPipelineTableTest, DuplicateChunksShareHashes) {
  // Four identical 1 KiB chunks.
  Buffer unit = random_bytes(1024, 13);
  Buffer content;
  for (int i = 0; i < 4; ++i) {
    content.insert(content.end(), unit.begin(), unit.end());
  }
  proto::ChunkTable t =
      proto::ChunkTable::build(BytesView(content), 1024, util::Codec::kNone);
  ASSERT_EQ(t.chunk_count(), 4u);
  for (uint32_t i = 1; i < 4; ++i) {
    EXPECT_EQ(t.entry(i).hash, t.entry(0).hash);
  }
}

// --- ChunkStore -------------------------------------------------------------

TEST(ChunkPipelineStoreTest, LruEvictsOldestWhenOverBudget) {
  proto::ChunkStore store(3 * 100);  // room for 3 x 100-byte chunks
  Buffer a(100, 1), b(100, 2), c(100, 3), d(100, 4);
  store.put(util::hash64(BytesView(a)), BytesView(a));
  store.put(util::hash64(BytesView(b)), BytesView(b));
  store.put(util::hash64(BytesView(c)), BytesView(c));
  EXPECT_EQ(store.entries(), 3u);
  // Touch `a` so `b` becomes the LRU victim.
  EXPECT_NE(store.find(util::hash64(BytesView(a))), nullptr);
  store.put(util::hash64(BytesView(d)), BytesView(d));
  EXPECT_EQ(store.entries(), 3u);
  EXPECT_EQ(store.find(util::hash64(BytesView(b))), nullptr);
  EXPECT_NE(store.find(util::hash64(BytesView(a))), nullptr);
  EXPECT_NE(store.find(util::hash64(BytesView(d))), nullptr);
  EXPECT_EQ(store.stats().evictions, 1u);
}

TEST(ChunkPipelineStoreTest, OversizeChunksAndDuplicatesAreNoOps) {
  proto::ChunkStore store(64);
  Buffer big(100, 9);
  store.put(util::hash64(BytesView(big)), BytesView(big));
  EXPECT_EQ(store.entries(), 0u);  // larger than the whole budget
  Buffer small(16, 5);
  const uint64_t h = util::hash64(BytesView(small));
  store.put(h, BytesView(small));
  store.put(h, BytesView(small));  // duplicate insert
  EXPECT_EQ(store.entries(), 1u);
  EXPECT_EQ(store.bytes(), 16u);
  const Buffer* found = store.find(h);
  ASSERT_NE(found, nullptr);
  EXPECT_EQ(*found, small);
}

TEST(ChunkPipelineStoreTest, MultiVictimEvictionKeepsLruOrderAndStats) {
  // Mixed chunk sizes: one insert may evict several victims, always
  // least-recent first, and recycled nodes must carry the new chunk.
  proto::ChunkStore store(300);
  Buffer a(100, 1), b(100, 2), c(100, 3), d(250, 4), e(50, 5), f(60, 6);
  auto h = [](const Buffer& x) { return util::hash64(BytesView(x)); };
  store.put(h(a), BytesView(a));
  store.put(h(b), BytesView(b));
  store.put(h(c), BytesView(c));
  store.put(h(d), BytesView(d));  // evicts a, b and c
  EXPECT_EQ(store.entries(), 1u);
  EXPECT_EQ(store.bytes(), 250u);
  EXPECT_EQ(store.stats().evictions, 3u);
  store.put(h(e), BytesView(e));  // 300: fits exactly, no eviction
  EXPECT_EQ(store.stats().evictions, 3u);
  store.put(h(f), BytesView(f));  // evicts d only (LRU), keeps e
  EXPECT_EQ(store.stats().evictions, 4u);
  EXPECT_EQ(store.stats().inserts, 6u);
  EXPECT_EQ(store.entries(), 2u);
  EXPECT_EQ(store.bytes(), 110u);
  EXPECT_EQ(store.find(h(d)), nullptr);
  const Buffer* got_f = store.find(h(f));
  ASSERT_NE(got_f, nullptr);
  EXPECT_EQ(*got_f, f);
  const Buffer* got_e = store.find(h(e));  // e is now most recent
  ASSERT_NE(got_e, nullptr);
  EXPECT_EQ(*got_e, e);
  store.put(h(d), BytesView(d));  // 360 > 300: evicts f (now LRU) only
  EXPECT_EQ(store.stats().evictions, 5u);
  EXPECT_EQ(store.entries(), 2u);
  EXPECT_EQ(store.bytes(), 300u);
  EXPECT_EQ(store.find(h(f)), nullptr);
  ASSERT_NE(store.find(h(e)), nullptr);
  const Buffer* got_d = store.find(h(d));
  ASSERT_NE(got_d, nullptr);
  EXPECT_EQ(*got_d, d);
}

TEST(ChunkPipelineStoreTest, MatchesReferenceLruUnderRandomTraffic) {
  // A list-based reference LRU with the same budget and eviction rule;
  // the store must agree on membership, bytes, stats and contents after
  // every operation.
  constexpr size_t kBudget = 4096;
  proto::ChunkStore store(kBudget);
  std::vector<Buffer> chunks;
  for (uint64_t i = 0; i < 40; ++i) {
    chunks.push_back(random_bytes(64 + (i * 37) % 900, 500 + i));
  }
  std::list<size_t> ref;  // chunk ids, front = most recent
  size_t ref_bytes = 0;
  proto::ChunkStore::Stats ref_stats;
  Rng rng(31);
  for (int step = 0; step < 3000; ++step) {
    const size_t id = rng.next_u64() % chunks.size();
    const Buffer& chunk = chunks[id];
    const uint64_t key = util::hash64(BytesView(chunk));
    auto pos = std::find(ref.begin(), ref.end(), id);
    if (rng.next_u64() % 3 == 0) {
      const Buffer* got = store.find(key);
      if (pos == ref.end()) {
        ++ref_stats.misses;
        ASSERT_EQ(got, nullptr) << "step " << step;
      } else {
        ++ref_stats.hits;
        ref.splice(ref.begin(), ref, pos);
        ASSERT_NE(got, nullptr) << "step " << step;
        ASSERT_EQ(*got, chunk) << "step " << step;
      }
    } else {
      store.put(key, BytesView(chunk));
      if (pos != ref.end()) {
        ref.splice(ref.begin(), ref, pos);
      } else {
        while (ref_bytes + chunk.size() > kBudget && !ref.empty()) {
          ref_bytes -= chunks[ref.back()].size();
          ref.pop_back();
          ++ref_stats.evictions;
        }
        ref.push_front(id);
        ref_bytes += chunk.size();
        ++ref_stats.inserts;
      }
    }
    ASSERT_EQ(store.entries(), ref.size()) << "step " << step;
    ASSERT_EQ(store.bytes(), ref_bytes) << "step " << step;
    ASSERT_EQ(store.stats().evictions, ref_stats.evictions);
    ASSERT_EQ(store.stats().inserts, ref_stats.inserts);
    ASSERT_EQ(store.stats().hits, ref_stats.hits);
    ASSERT_EQ(store.stats().misses, ref_stats.misses);
  }
}

// --- parallel_for -----------------------------------------------------------

TEST(ChunkPipelineParallelForTest, EveryIndexRunsExactlyOnce) {
  constexpr size_t kCount = 10000;
  std::vector<std::atomic<uint32_t>> hits(kCount);
  sched::ThreadPoolExecutor pool(4);
  sched::parallel_for(&pool, kCount,
                      [&hits](size_t i) { hits[i].fetch_add(1); });
  for (size_t i = 0; i < kCount; ++i) {
    ASSERT_EQ(hits[i].load(), 1u) << "index " << i;
  }
}

TEST(ChunkPipelineParallelForTest, NullPoolAndZeroCountRunInline) {
  std::atomic<uint64_t> sum{0};
  sched::parallel_for(nullptr, 100,
                      [&sum](size_t i) { sum.fetch_add(i); });
  EXPECT_EQ(sum.load(), 4950u);
  bool ran = false;
  sched::parallel_for(nullptr, 0, [&ran](size_t) { ran = true; });
  EXPECT_FALSE(ran);
}

TEST(ChunkPipelineParallelForTest, TransientPoolOverloadMatchesInline) {
  constexpr size_t kCount = 2048;
  std::vector<std::atomic<uint32_t>> hits(kCount);
  sched::parallel_for(kCount, 4,
                      [&hits](size_t i) { hits[i].fetch_add(1); });
  uint64_t total = 0;
  for (auto& h : hits) total += h.load();
  EXPECT_EQ(total, kCount);
}

// Repeated build/teardown under contention — the shape most likely to
// surface lifetime races (the fan-out must not touch its shared frame
// after the waiter returns).
TEST(ChunkPipelineParallelForTest, RepeatedFanOutsDoNotRace) {
  sched::ThreadPoolExecutor pool(4);
  for (int round = 0; round < 200; ++round) {
    std::atomic<uint32_t> count{0};
    sched::parallel_for(&pool, 64,
                        [&count](size_t) { count.fetch_add(1); });
    ASSERT_EQ(count.load(), 64u);
  }
}

}  // namespace
}  // namespace marea
