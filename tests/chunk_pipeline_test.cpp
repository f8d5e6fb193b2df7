// Content-addressed chunk pipeline tests: hash64 properties, LZ codec
// round-trips and hostile-input safety, ChunkTable manifests, the
// incompressibility probe and previous-revision reuse, and the bounded
// ChunkStore LRU.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <cstring>
#include <list>
#include <memory>
#include <set>
#include <vector>

#include "protocol/chunk_table.h"
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

// `count` chunks of `chunk` bytes: a flat run that LZ shrinks where
// `flat(i)` holds, noise elsewhere.
template <typename Pred>
Buffer mixed_chunks(size_t count, size_t chunk, Pred flat, uint64_t seed) {
  Buffer b = random_bytes(count * chunk, seed);
  for (size_t i = 0; i < count; ++i) {
    if (flat(i)) {
      std::fill_n(b.begin() + static_cast<ptrdiff_t>(i * chunk), chunk,
                  static_cast<uint8_t>(i));
    }
  }
  return b;
}

// Chunk index of probe sample j in a revision of `count` chunks.
size_t probe_sample(size_t j, size_t count) { return j * count / 8; }
bool is_probe_sample(size_t i, size_t count) {
  for (size_t j = 0; j < 8; ++j) {
    if (probe_sample(j, count) == i) return true;
  }
  return false;
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
                         ::testing::Values(util::Codec::kLz));

TEST(ChunkPipelineCodecTest, LzOverlappingMatchReplicates) {
  const util::Compressor* lz = util::compressor_for(util::Codec::kLz);
  // Hand-built streams. Token [L:4|M:4], literals, u16 offset; match
  // length is M + 4.
  // Offset 1 < length 15: one literal 'Q' replicated 15 more times.
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

// The LZ pinning corpus: every shape the encoder's fast paths care
// about — the benchmark's image rows and xorshift noise chunk by chunk
// and whole (files over 64 KiB cross the match window), periodic input
// (overlapping matches), a 100 KiB input whose repeats sit just inside
// and just outside the window, the 15/16/17-byte length edge and seeded
// buffers built from literals plus back-references.
std::vector<Buffer> lz_corpus() {
  std::vector<Buffer> corpus;
  auto add_chunked = [&corpus](const Buffer& file) {
    for (size_t off = 0; off < file.size(); off += 1024) {
      const size_t len = std::min<size_t>(1024, file.size() - off);
      corpus.emplace_back(file.begin() + off, file.begin() + off + len);
    }
    corpus.push_back(file);
  };
  for (uint64_t seed = 1; seed <= 3; ++seed) {
    Rng rng(seed);
    for (size_t kib : {16, 48, 80, 112}) {
      // Image rows: flat every third, otherwise a row-dependent ramp.
      Buffer img(kib * 1024);
      const uint64_t base = rng.next_u64();
      for (size_t i = 0; i < img.size(); ++i) {
        const size_t row = i / 256;
        img[i] = static_cast<uint8_t>(row % 3 == 0 ? base + row
                                                   : (i * (row % 7 + 1)) >> 3);
      }
      add_chunked(img);
    }
    for (size_t kib : {32, 64}) {
      Buffer noise(kib * 1024);
      uint64_t x = rng.next_u64() | 1;
      for (size_t i = 0; i + 8 <= noise.size(); i += 8) {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        for (int k = 0; k < 8; ++k) {
          noise[i + k] = static_cast<uint8_t>(x >> (8 * k));
        }
      }
      add_chunked(noise);
    }
  }
  for (size_t period : {1, 2, 3, 5, 7, 16, 31, 64, 255}) {
    Buffer periodic(3000);
    for (size_t i = 0; i < periodic.size(); ++i) {
      periodic[i] = static_cast<uint8_t>((i % period) * 37 + period);
    }
    corpus.push_back(std::move(periodic));
  }
  {
    // Block A recurs 60 KiB later (inside the window) and 70 KiB later
    // (outside it); B is fresh noise between them.
    Buffer a = random_bytes(6 * 1024, 90);
    Buffer big = a;
    Buffer b = random_bytes(54 * 1024, 91);
    big.insert(big.end(), b.begin(), b.end());
    big.insert(big.end(), a.begin(), a.end());  // distance 60 KiB
    Buffer c = random_bytes(4 * 1024, 92);
    big.insert(big.end(), c.begin(), c.end());
    big.insert(big.end(), a.begin(), a.end());  // 70 KiB from the first
    Buffer tail = imagery_bytes(96, 256, 93);
    big.insert(big.end(), tail.begin(), tail.end());
    big.resize(100 * 1024);
    corpus.push_back(std::move(big));
  }
  for (size_t len : {15, 16, 17}) {
    corpus.emplace_back(len, 0x00);
    corpus.push_back(random_bytes(len, 100 + len));
    Buffer half(len, 0x11);
    for (size_t i = len / 2; i < len; ++i) half[i] = static_cast<uint8_t>(i);
    corpus.push_back(std::move(half));
  }
  Rng rng(77);
  for (int trial = 0; trial < 300; ++trial) {
    const size_t n = 16 + rng.next_u64() % 5000;
    const uint64_t alphabet = 2 + rng.next_u64() % 254;
    Buffer b;
    b.reserve(n);
    while (b.size() < n) {
      if (b.size() >= 4 && rng.next_u64() % 2 == 0) {
        const size_t off = 1 + rng.next_u64() % std::min<size_t>(b.size(), 300);
        const size_t len = 1 + rng.next_u64() % 80;
        for (size_t k = 0; k < len && b.size() < n; ++k) {
          b.push_back(b[b.size() - off]);
        }
      } else {
        b.push_back(static_cast<uint8_t>(rng.next_u64() % alphabet));
      }
    }
    corpus.push_back(std::move(b));
  }
  return corpus;
}

TEST(ChunkPipelineCodecTest, LzOutputIsPinned) {
  // The LZ encoder's bytes are wire bytes and chunk-store identities:
  // any kernel change must reproduce them exactly. The constant is the
  // digest of every output length and hash64 over the corpus, recorded
  // from the reference (table-per-call, byte-wise) encoder.
  const util::Compressor* lz = util::compressor_for(util::Codec::kLz);
  std::vector<uint64_t> folded;
  size_t kept = 0;
  for (const Buffer& in : lz_corpus()) {
    Buffer out = compress_to_buffer(*lz, BytesView(in));
    folded.push_back(out.size());
    folded.push_back(util::hash64(BytesView(out)));
    if (out.empty()) continue;
    ++kept;
    GuardedDecode d = guarded_decompress(*lz, BytesView(out), in.size());
    ASSERT_TRUE(d.ok);
    ASSERT_TRUE(d.guards_intact);
    ASSERT_EQ(d.out, in);
  }
  EXPECT_GT(kept, folded.size() / 4);  // the corpus mostly compresses
  EXPECT_EQ(util::hash64_list(folded.data(), folded.size()),
            0x2957ad30939bc990ull);
}

TEST(ChunkPipelineCodecTest, LzOutputStableAcrossMatchTableWrap) {
  // Each call reserves its input length plus a 64 KiB window of table
  // positions; ~66k calls run the 32-bit position counter past its wrap
  // (a table refill), and every output must stay the same bytes.
  const util::Compressor* lz = util::compressor_for(util::Codec::kLz);
  const Buffer in{1, 2, 3, 4, 1, 2, 3, 4, 1, 2, 3, 4, 1, 2, 3, 4, 9};
  const Buffer want = compress_to_buffer(*lz, BytesView(in));
  ASSERT_FALSE(want.empty());
  Buffer out(in.size() - 1);
  for (int call = 0; call < 70000; ++call) {
    const size_t n = lz->compress(BytesView(in), out);
    ASSERT_TRUE(n == want.size() &&
                std::equal(want.begin(), want.end(), out.begin()))
        << "call " << call;
  }
}

// Byte-wise reference LZ decoder: the format spelled out one byte at a
// time, with the same bounds rules as the shipped decoder.
bool reference_lz_decode(BytesView in, size_t raw_size, Buffer& out) {
  out.assign(raw_size, 0);
  size_t ip = 0;
  size_t op = 0;
  auto read_ext = [&](size_t& v) {
    for (;;) {
      if (ip >= in.size()) return false;
      const uint8_t b = in[ip++];
      v += b;
      if (b < 0xFF) return true;
    }
  };
  while (ip < in.size()) {
    const uint8_t tok = in[ip++];
    size_t lit = tok >> 4;
    if (lit == 15 && !read_ext(lit)) return false;
    if (lit > in.size() - ip || lit > raw_size - op) return false;
    for (size_t k = 0; k < lit; ++k) out[op++] = in[ip++];
    if (ip >= in.size()) break;
    if (in.size() - ip < 2) return false;
    const size_t off = in[ip] | (static_cast<size_t>(in[ip + 1]) << 8);
    ip += 2;
    if (off == 0 || off > op) return false;
    size_t mlen = tok & 0x0F;
    if (mlen == 15 && !read_ext(mlen)) return false;
    mlen += 4;
    if (mlen > raw_size - op) return false;
    for (size_t k = 0; k < mlen; ++k, ++op) out[op] = out[op - off];
  }
  return op == raw_size;
}

TEST(ChunkPipelineCodecTest, LzDecoderMatchesByteWiseReference) {
  // Valid streams, bit-flipped and truncated ones: the shipped decoder
  // and the reference agree on ok/fail, and on every byte when ok.
  const util::Compressor* lz = util::compressor_for(util::Codec::kLz);
  Rng rng(4242);
  size_t checked = 0;
  auto check = [&](BytesView stream, size_t raw_size, const char* what) {
    Buffer want;
    const bool ref_ok = reference_lz_decode(stream, raw_size, want);
    GuardedDecode got = guarded_decompress(*lz, stream, raw_size);
    ASSERT_EQ(got.ok, ref_ok) << what << " checked=" << checked;
    ASSERT_TRUE(got.guards_intact) << what;
    if (ref_ok) {
      ASSERT_EQ(got.out, want) << what;
    }
    ++checked;
  };
  std::vector<Buffer> corpus = lz_corpus();
  for (size_t c = 0; c < corpus.size(); c += 3) {
    const Buffer& in = corpus[c];
    Buffer packed = compress_to_buffer(*lz, BytesView(in));
    if (packed.empty()) continue;
    check(BytesView(packed), in.size(), "valid");
    for (int flip = 0; flip < 4; ++flip) {
      Buffer bad = packed;
      bad[rng.next_u64() % bad.size()] ^= 1u << (rng.next_u64() % 8);
      check(BytesView(bad), in.size(), "bit flip");
    }
    const size_t cut = rng.next_u64() % packed.size();
    check(BytesView(packed.data(), cut), in.size(), "truncated");
  }
  // Hand-made overlapping matches at every small offset and length, so
  // the period-copy path sees each (offset, length) shape.
  for (uint8_t off = 1; off <= 12; ++off) {
    for (uint8_t m = 0; m <= 15; ++m) {
      Buffer s{static_cast<uint8_t>((12 << 4) | m)};
      for (uint8_t k = 0; k < 12; ++k) s.push_back(static_cast<uint8_t>('a' + k));
      s.push_back(off);
      s.push_back(0);
      size_t raw_size = 12 + 4 + m;
      if (m == 15) {
        const uint8_t ext = static_cast<uint8_t>(rng.next_u64() % 255);
        s.push_back(ext);
        raw_size += ext;
      }
      check(BytesView(s), raw_size, "overlap");
      check(BytesView(s), raw_size + 1, "overlap, output too long");
    }
  }
  EXPECT_GT(checked, 1000u);
}

TEST(ChunkPipelineCodecTest, UnknownWireIdIsRejectedNotFatal) {
  EXPECT_EQ(util::compressor_for(static_cast<uint8_t>(250)), nullptr);
  EXPECT_EQ(util::compressor_for(uint8_t{1}), nullptr);  // retired RLE id
  EXPECT_EQ(util::compressor_for(util::Codec::kNone), nullptr);
}

// --- ChunkTable -------------------------------------------------------------

// Entries, payload bytes, manifest and byte accounting must agree.
void expect_same_table(const proto::ChunkTable& got,
                       const proto::ChunkTable& want) {
  ASSERT_EQ(got.chunk_count(), want.chunk_count());
  EXPECT_EQ(got.manifest_hash(), want.manifest_hash());
  EXPECT_EQ(got.hashes(), want.hashes());
  for (uint32_t i = 0; i < got.chunk_count(); ++i) {
    EXPECT_EQ(got.entry(i).raw_size, want.entry(i).raw_size) << i;
    EXPECT_EQ(got.entry(i).compressed, want.entry(i).compressed) << i;
    EXPECT_EQ(got.entry(i).probe_skipped, want.entry(i).probe_skipped) << i;
    EXPECT_TRUE(std::ranges::equal(got.payload(i), want.payload(i))) << i;
  }
  EXPECT_EQ(got.stats().raw_bytes, want.stats().raw_bytes);
  EXPECT_EQ(got.stats().wire_bytes, want.stats().wire_bytes);
  EXPECT_EQ(got.stats().compressed_chunks, want.stats().compressed_chunks);
  EXPECT_EQ(got.stats().skipped_by_probe, want.stats().skipped_by_probe);
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
    EXPECT_EQ(t.hashes()[i], t.hashes()[0]);
  }
}

TEST(ChunkPipelineTableTest, ReusingThePreviousRevisionEqualsAFreshBuild) {
  constexpr uint32_t kChunk = 1024;
  // 20 full chunks (compressible imagery, then noise that ships raw)
  // and a 500-byte tail chunk.
  Buffer v1 = imagery_bytes(64, 256, 21);
  Buffer noise = random_bytes(4 * 1024 + 500, 22);
  v1.insert(v1.end(), noise.begin(), noise.end());
  const util::Codec lz = util::Codec::kLz;
  const proto::ChunkTable prev =
      proto::ChunkTable::build(BytesView(v1), kChunk, lz);
  ASSERT_EQ(prev.chunk_count(), 21u);
  ASSERT_GT(prev.stats().compressed_chunks, 0u);
  ASSERT_LT(prev.stats().compressed_chunks, prev.chunk_count());
  EXPECT_EQ(prev.stats().reused_chunks, 0u);

  auto check = [&](const Buffer& content, const proto::ChunkTable& from,
                   const Buffer& from_content, uint32_t chunk_size,
                   util::Codec codec, uint32_t want_reused) {
    const proto::ChunkTable fresh =
        proto::ChunkTable::build(BytesView(content), chunk_size, codec);
    proto::ChunkTable reused = proto::ChunkTable::build(
        BytesView(content), chunk_size, codec, &from, BytesView(from_content));
    expect_same_table(reused, fresh);
    EXPECT_EQ(reused.stats().reused_chunks, want_reused);
    return reused;
  };
  {
    SCOPED_TRACE("identical");
    check(v1, prev, v1, kChunk, lz, 21);
  }
  {
    SCOPED_TRACE("one chunk changed");
    Buffer v2 = v1;
    v2[5 * kChunk + 17] ^= 0x01;
    check(v2, prev, v1, kChunk, lz, 20);
  }
  {
    SCOPED_TRACE("grown by one chunk");  // the old 500-byte tail grows
    Buffer v2 = v1;
    Buffer more = random_bytes(kChunk, 23);
    v2.insert(v2.end(), more.begin(), more.end());
    check(v2, prev, v1, kChunk, lz, 20);
  }
  {
    SCOPED_TRACE("shrunk by one chunk");  // chunk 19 becomes the tail
    Buffer v2(v1.begin(), v1.end() - kChunk);
    check(v2, prev, v1, kChunk, lz, 19);
  }
  {
    SCOPED_TRACE("different chunk size");
    check(v1, prev, v1, 2 * kChunk, lz, 0);
  }
  {
    SCOPED_TRACE("different codec");
    check(v1, prev, v1, kChunk, util::Codec::kNone, 0);
  }
  {
    SCOPED_TRACE("content that is not prev's");
    Buffer other(v1.begin(), v1.end() - 1);
    check(v1, prev, other, kChunk, lz, 0);
  }
  {
    SCOPED_TRACE("tail chunk changed");
    Buffer v2 = v1;
    v2[20 * kChunk] ^= 0x80;
    check(v2, prev, v1, kChunk, lz, 20);
  }

  // Noise at every probe sample ships raw throughout; previous-revision
  // verdicts carry over only for chunks that build actually tried.
  auto chunk_at = [](Buffer& b, size_t i) {
    return b.begin() + static_cast<ptrdiff_t>(i * kChunk);
  };
  const Buffer noisy = random_bytes(20 * kChunk + 500, 24);
  const proto::ChunkTable noisy_table =
      proto::ChunkTable::build(BytesView(noisy), kChunk, lz);
  ASSERT_EQ(noisy_table.chunk_count(), 21u);
  EXPECT_EQ(noisy_table.stats().compress_calls, 8u);
  EXPECT_EQ(noisy_table.stats().skipped_by_probe, 13u);
  {
    SCOPED_TRACE("noise republished identically");
    const proto::ChunkTable t =
        check(noisy, noisy_table, noisy, kChunk, lz, 21);
    EXPECT_EQ(t.stats().compress_calls, 0u);
  }
  {
    SCOPED_TRACE("noise, one probe sample changed");
    Buffer v2 = noisy;
    v2[probe_sample(3, 21) * kChunk + 9] ^= 0x01;
    const proto::ChunkTable t = check(v2, noisy_table, noisy, kChunk, lz, 20);
    EXPECT_EQ(t.stats().compress_calls, 1u);
    EXPECT_EQ(t.stats().wire_bytes, t.stats().raw_bytes);
  }
  {
    // The compressible chunks sit between the samples, so revision 1
    // skips them; once a sample compresses they must be tried afresh.
    SCOPED_TRACE("noise to imagery: previously skipped chunks compress");
    auto between = [](size_t i) { return !is_probe_sample(i, 21); };
    const Buffer hidden = mixed_chunks(21, kChunk, between, 25);
    const proto::ChunkTable from =
        proto::ChunkTable::build(BytesView(hidden), kChunk, lz);
    ASSERT_EQ(from.stats().compressed_chunks, 0u);
    Buffer v2 = hidden;
    std::fill_n(chunk_at(v2, probe_sample(2, 21)), kChunk, uint8_t{0x33});
    const proto::ChunkTable t = check(v2, from, hidden, kChunk, lz, 20);
    EXPECT_EQ(t.stats().compressed_chunks, 21u - 8u + 1u);
  }
  {
    SCOPED_TRACE("imagery to noise: reused verdicts give way to raw");
    Buffer v2 = v1;
    for (size_t j = 0; j < 8; ++j) {
      const Buffer n = random_bytes(kChunk, 40 + j);
      std::copy(n.begin(), n.end(), chunk_at(v2, probe_sample(j, 21)));
    }
    const proto::ChunkTable t = check(v2, prev, v1, kChunk, lz, 13);
    EXPECT_EQ(t.stats().compressed_chunks, 0u);
    EXPECT_EQ(t.stats().skipped_by_probe, 13u);
  }
}

TEST(ChunkPipelineTableTest, ProbeBoundsTheCostOfMixedContent) {
  constexpr size_t kChunk = 1024;
  const util::Codec lz = util::Codec::kLz;
  const util::Compressor& comp = *util::compressor_for(lz);
  // A compressible run of ceil(count / 8) consecutive chunks always
  // covers a probe sample, wherever it sits, so the table is the one a
  // build that tries every chunk makes.
  for (size_t count : {5, 8, 9, 37}) {
    const size_t run = (count + 7) / 8;
    for (size_t start = 0; start + run <= count; ++start) {
      SCOPED_TRACE(::testing::Message() << count << " chunks, run at "
                                        << start);
      auto in_run = [&](size_t i) { return i >= start && i < start + run; };
      const Buffer content = mixed_chunks(count, kChunk, in_run, count);
      const proto::ChunkTable t =
          proto::ChunkTable::build(BytesView(content), kChunk, lz);
      ASSERT_EQ(t.chunk_count(), count);
      EXPECT_EQ(t.stats().skipped_by_probe, 0u);
      EXPECT_EQ(t.stats().compressed_chunks, run);
      for (uint32_t i = 0; i < count; ++i) {
        const BytesView raw = BytesView(content).subspan(i * kChunk, kChunk);
        EXPECT_EQ(t.hashes()[i], util::hash64(raw)) << i;
        EXPECT_FALSE(t.entry(i).probe_skipped) << i;
        const Buffer want = compress_to_buffer(comp, raw);
        EXPECT_EQ(t.entry(i).compressed, !want.empty()) << i;
        EXPECT_TRUE(std::ranges::equal(t.payload(i), want)) << i;
      }
    }
  }
  // Compressible only between the samples: the worst case ships the
  // revision raw, never more than raw, after exactly 8 compress calls.
  const size_t count = 37;
  const Buffer content = mixed_chunks(
      count, kChunk, [&](size_t i) { return !is_probe_sample(i, count); }, 3);
  const proto::ChunkTable t =
      proto::ChunkTable::build(BytesView(content), kChunk, lz);
  EXPECT_EQ(t.stats().wire_bytes, t.stats().raw_bytes);
  EXPECT_EQ(t.stats().compressed_chunks, 0u);
  EXPECT_EQ(t.stats().compress_calls, 8u);
  EXPECT_EQ(t.stats().skipped_by_probe, count - 8);
  for (uint32_t i = 0; i < count; ++i) {
    EXPECT_EQ(t.entry(i).probe_skipped, !is_probe_sample(i, count)) << i;
    EXPECT_TRUE(t.payload(i).empty()) << i;
  }
}

// --- ChunkStore -------------------------------------------------------------

using Image = std::shared_ptr<const Buffer>;

Image image_of(Buffer bytes) {
  return std::make_shared<const Buffer>(std::move(bytes));
}

// Stores the whole image as one chunk under its hash64; returns the key.
uint64_t put_whole(proto::ChunkStore& store, const Image& image) {
  const uint64_t h = util::hash64(BytesView(*image));
  store.put(h, image, 0, image->size());
  return h;
}

TEST(ChunkPipelineStoreTest, LruEvictsOldestWhenOverBudget) {
  proto::ChunkStore store(3 * 100);  // room for 3 x 100-byte chunks
  const Image a = image_of(Buffer(100, 1)), b = image_of(Buffer(100, 2)),
              c = image_of(Buffer(100, 3)), d = image_of(Buffer(100, 4));
  const uint64_t ha = put_whole(store, a);
  const uint64_t hb = put_whole(store, b);
  put_whole(store, c);
  EXPECT_EQ(store.entries(), 3u);
  // Touch `a` so `b` becomes the LRU victim.
  EXPECT_FALSE(store.find(ha).empty());
  const uint64_t hd = put_whole(store, d);
  EXPECT_EQ(store.entries(), 3u);
  EXPECT_TRUE(store.find(hb).empty());
  EXPECT_FALSE(store.find(ha).empty());
  EXPECT_FALSE(store.find(hd).empty());
  EXPECT_EQ(store.stats().evictions, 1u);
}

TEST(ChunkPipelineStoreTest, OversizeChunksAndDuplicatesAreNoOps) {
  proto::ChunkStore store(64);
  const Image big = image_of(Buffer(100, 9));
  put_whole(store, big);
  EXPECT_EQ(store.entries(), 0u);  // larger than the whole budget
  EXPECT_EQ(big.use_count(), 1);   // and not pinned
  const Image small = image_of(Buffer(16, 5));
  const uint64_t h = put_whole(store, small);
  put_whole(store, small);  // duplicate insert
  EXPECT_EQ(store.entries(), 1u);
  EXPECT_EQ(store.bytes(), 16u);
  EXPECT_EQ(to_buffer(store.find(h)), *small);
}

TEST(ChunkPipelineStoreTest, MultiVictimEvictionKeepsLruOrderAndStats) {
  // Mixed chunk sizes: one insert may evict several victims, always
  // least-recent first, and the slots that stay must keep their chunks.
  proto::ChunkStore store(300);
  const Image a = image_of(Buffer(100, 1)), b = image_of(Buffer(100, 2)),
              c = image_of(Buffer(100, 3)), d = image_of(Buffer(250, 4)),
              e = image_of(Buffer(50, 5)), f = image_of(Buffer(60, 6));
  put_whole(store, a);
  put_whole(store, b);
  put_whole(store, c);
  const uint64_t hd = put_whole(store, d);  // evicts a, b and c
  EXPECT_EQ(store.entries(), 1u);
  EXPECT_EQ(store.bytes(), 250u);
  EXPECT_EQ(store.stats().evictions, 3u);
  const uint64_t he = put_whole(store, e);  // 300: fits exactly
  EXPECT_EQ(store.stats().evictions, 3u);
  const uint64_t hf = put_whole(store, f);  // evicts d only (LRU), keeps e
  EXPECT_EQ(store.stats().evictions, 4u);
  EXPECT_EQ(store.stats().inserts, 6u);
  EXPECT_EQ(store.entries(), 2u);
  EXPECT_EQ(store.bytes(), 110u);
  EXPECT_TRUE(store.find(hd).empty());
  EXPECT_EQ(to_buffer(store.find(hf)), *f);
  EXPECT_EQ(to_buffer(store.find(he)), *e);  // e is now most recent
  put_whole(store, d);  // 360 > 300: evicts f (now LRU) only
  EXPECT_EQ(store.stats().evictions, 5u);
  EXPECT_EQ(store.entries(), 2u);
  EXPECT_EQ(store.bytes(), 300u);
  EXPECT_TRUE(store.find(hf).empty());
  ASSERT_FALSE(store.find(he).empty());
  EXPECT_EQ(to_buffer(store.find(hd)), *d);
}

TEST(ChunkPipelineStoreTest, PinnedImagesStayWithinBudgetAndLastEvictionFrees) {
  // Images of four distinct 100-byte chunks. The budget counts a pinned
  // image at its full 400 bytes, however few of its chunks are stored,
  // so 1,000 bytes pin at most two.
  proto::ChunkStore store(1000);
  std::vector<Image> images;
  for (uint8_t i = 0; i < 6; ++i) {
    Buffer b;
    for (uint8_t k = 0; k < 4; ++k) {
      b.insert(b.end(), 100, static_cast<uint8_t>(4 * i + k + 1));
    }
    images.push_back(image_of(std::move(b)));
  }
  auto key = [&](size_t i, size_t k) {
    return util::hash64(BytesView(*images[i]).subspan(k * 100, 100));
  };
  auto put = [&](size_t i, size_t k) {
    store.put(key(i, k), images[i], k * 100, 100);
    ASSERT_LE(store.bytes(), 1000u);
  };

  put(0, 0);
  put(0, 3);
  EXPECT_EQ(store.bytes(), 400u);  // one image, two of its chunks
  put(0, 1);
  put(0, 2);
  for (size_t k = 0; k < 4; ++k) put(1, k);
  EXPECT_EQ(store.bytes(), 800u);
  EXPECT_EQ(images[0].use_count(), 2);  // the test's and the store's

  // Refresh image 0's last chunk: image 2 then evicts 0's first three
  // chunks (which frees nothing) and all of image 1.
  EXPECT_FALSE(store.find(key(0, 3)).empty());
  put(2, 0);
  EXPECT_EQ(store.stats().evictions, 7u);
  EXPECT_EQ(store.bytes(), 800u);
  EXPECT_EQ(store.entries(), 2u);
  EXPECT_EQ(images[1].use_count(), 1);  // released
  EXPECT_EQ(images[0].use_count(), 2);  // still pinned by chunk 3
  EXPECT_TRUE(store.find(key(0, 0)).empty());
  EXPECT_EQ(to_buffer(store.find(key(0, 3))),
            to_buffer(BytesView(*images[0]).subspan(300, 100)));

  // Image 0's last chunk goes once image 3 needs the room.
  for (size_t k = 0; k < 4; ++k) put(2, k);
  put(3, 0);
  EXPECT_EQ(images[0].use_count(), 1);
  for (size_t i = 3; i < 6; ++i) {
    for (size_t k = 0; k < 4; ++k) put(i, k);
  }
  EXPECT_EQ(store.bytes(), 800u);
  EXPECT_EQ(store.entries(), 8u);
  for (size_t i = 0; i < 4; ++i) EXPECT_EQ(images[i].use_count(), 1) << i;

  // An image larger than the whole budget is not stored.
  const Image huge = image_of(Buffer(1001, 0xEE));
  store.put(util::hash64(BytesView(*huge).first(100)), huge, 0, 100);
  EXPECT_EQ(huge.use_count(), 1);
  EXPECT_EQ(store.entries(), 8u);
}

// Drives the store and a list-based reference LRU with the same budget
// and eviction rule through random finds and puts of chunks[id] under
// keys[id]; they must agree on membership, bytes, stats and contents
// after every operation. Each chunk is its own image, so the store's
// pinned bytes are its chunk bytes.
void check_against_reference_lru(const std::vector<Buffer>& chunks,
                                 const std::vector<uint64_t>& keys,
                                 size_t budget, int steps, uint64_t seed) {
  proto::ChunkStore store(budget);
  std::vector<Image> images;
  for (const Buffer& chunk : chunks) images.push_back(image_of(chunk));
  std::list<size_t> ref;  // chunk ids, front = most recent
  std::vector<std::list<size_t>::iterator> where(chunks.size(), ref.end());
  size_t ref_bytes = 0;
  proto::ChunkStore::Stats ref_stats;
  Rng rng(seed);
  for (int step = 0; step < steps; ++step) {
    const size_t id = rng.next_u64() % chunks.size();
    const Buffer& chunk = chunks[id];
    const bool held = where[id] != ref.end();
    if (rng.next_u64() % 3 == 0) {
      const BytesView got = store.find(keys[id]);
      if (!held) {
        ++ref_stats.misses;
        ASSERT_TRUE(got.empty()) << "step " << step;
      } else {
        ++ref_stats.hits;
        ref.splice(ref.begin(), ref, where[id]);
        ASSERT_EQ(to_buffer(got), chunk) << "step " << step;
      }
    } else {
      store.put(keys[id], images[id], 0, chunk.size());
      if (held) {
        ref.splice(ref.begin(), ref, where[id]);
      } else {
        while (ref_bytes + chunk.size() > budget && !ref.empty()) {
          ref_bytes -= chunks[ref.back()].size();
          where[ref.back()] = ref.end();
          ref.pop_back();
          ++ref_stats.evictions;
        }
        ref.push_front(id);
        where[id] = ref.begin();
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
  // Final sweep: exactly the reference's members are found, with their
  // bytes (each find refreshes, so sweep least-recent first).
  for (size_t id = 0; id < chunks.size(); ++id) {
    if (where[id] == ref.end()) {
      ASSERT_TRUE(store.find(keys[id]).empty()) << "id " << id;
    }
  }
  for (auto it = ref.rbegin(); it != ref.rend(); ++it) {
    ASSERT_EQ(to_buffer(store.find(keys[*it])), chunks[*it]) << "id " << *it;
  }
}

std::vector<uint64_t> content_keys(const std::vector<Buffer>& chunks) {
  std::vector<uint64_t> keys;
  for (const Buffer& c : chunks) keys.push_back(util::hash64(BytesView(c)));
  return keys;
}

TEST(ChunkPipelineStoreTest, MatchesReferenceLruUnderRandomTraffic) {
  std::vector<Buffer> chunks;
  for (uint64_t i = 0; i < 40; ++i) {
    chunks.push_back(random_bytes(64 + (i * 37) % 900, 500 + i));
  }
  check_against_reference_lru(chunks, content_keys(chunks), 4096, 3000, 31);
}

TEST(ChunkPipelineStoreTest, MatchesReferenceLruWithThousandsOfSmallChunks) {
  // ~1,500 live chunks: the index doubles from 16 cells to 4,096, and
  // thousands of evictions run backward-shift deletion across every
  // part of the table, the wrap from its last cell to its first too.
  std::vector<Buffer> chunks;
  for (uint64_t i = 0; i < 2500; ++i) {
    chunks.push_back(random_bytes(16 + (i * 13) % 65, 9000 + i));
  }
  check_against_reference_lru(chunks, content_keys(chunks), 72 * 1024,
                              40000, 32);
}

TEST(ChunkPipelineStoreTest, KeysSharingTheirLow32BitsStillMatchReference) {
  // Chunk keys come from peers; a set that differs only above bit 32
  // must neither break the index nor change what the store holds.
  std::vector<Buffer> chunks;
  std::vector<uint64_t> keys;
  for (uint64_t i = 0; i < 600; ++i) {
    chunks.push_back(random_bytes(32 + i % 40, 7000 + i));
    keys.push_back((i << 32) | 0x5EEDF00Dull);
  }
  check_against_reference_lru(chunks, keys, 12 * 1024, 12000, 33);
}

}  // namespace
}  // namespace marea
