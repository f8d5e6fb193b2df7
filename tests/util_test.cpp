#include <gtest/gtest.h>
#include <vector>

#include <memory>
#include <set>

#include "util/bytes.h"
#include "util/crc32.h"
#include "util/rle.h"
#include "util/rng.h"
#include "util/status.h"
#include "util/time.h"

namespace marea {
namespace {

// --- Status -----------------------------------------------------------------

TEST(StatusTest, DefaultIsOk) {
  Status s;
  EXPECT_TRUE(s.is_ok());
  EXPECT_EQ(s.code(), StatusCode::kOk);
  EXPECT_EQ(s.to_string(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status s = timeout_error("deadline passed");
  EXPECT_FALSE(s.is_ok());
  EXPECT_EQ(s.code(), StatusCode::kTimeout);
  EXPECT_EQ(s.to_string(), "TIMEOUT: deadline passed");
}

TEST(StatusTest, EveryCodeHasName) {
  for (int c = 0; c <= static_cast<int>(StatusCode::kInternal); ++c) {
    EXPECT_STRNE(status_code_name(static_cast<StatusCode>(c)), "UNKNOWN");
  }
}

TEST(StatusOrTest, HoldsValue) {
  StatusOr<int> v = 42;
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(*v, 42);
  EXPECT_EQ(v.value_or(7), 42);
}

TEST(StatusOrTest, HoldsError) {
  StatusOr<int> v = not_found_error("nope");
  EXPECT_FALSE(v.ok());
  EXPECT_EQ(v.status().code(), StatusCode::kNotFound);
  EXPECT_EQ(v.value_or(7), 7);
}

TEST(StatusOrTest, MoveOnlyValue) {
  StatusOr<std::unique_ptr<int>> v = std::make_unique<int>(5);
  ASSERT_TRUE(v.ok());
  std::unique_ptr<int> taken = std::move(v).value();
  EXPECT_EQ(*taken, 5);
}

// --- ByteWriter / ByteReader -------------------------------------------------

TEST(BytesTest, FixedWidthRoundTrip) {
  ByteWriter w;
  w.u8(0xAB);
  w.u16(0xBEEF);
  w.u32(0xDEADBEEF);
  w.u64(0x0123456789ABCDEFull);
  w.i32(-123456);
  w.i64(INT64_MIN);
  w.f32(3.5f);
  w.f64(-2.25);

  ByteReader r(w.view());
  EXPECT_EQ(r.u8(), 0xAB);
  EXPECT_EQ(r.u16(), 0xBEEF);
  EXPECT_EQ(r.u32(), 0xDEADBEEFu);
  EXPECT_EQ(r.u64(), 0x0123456789ABCDEFull);
  EXPECT_EQ(r.i32(), -123456);
  EXPECT_EQ(r.i64(), INT64_MIN);
  EXPECT_EQ(r.f32(), 3.5f);
  EXPECT_EQ(r.f64(), -2.25);
  EXPECT_TRUE(r.ok());
  EXPECT_TRUE(r.at_end());
}

TEST(BytesTest, VarintBoundaries) {
  for (uint64_t v : std::vector<uint64_t>{0, 1, 127, 128, 16383, 16384,
                                          UINT64_MAX, UINT64_MAX - 1}) {
    ByteWriter w;
    w.varint(v);
    ByteReader r(w.view());
    EXPECT_EQ(r.varint(), v) << v;
    EXPECT_TRUE(r.ok());
  }
}

TEST(BytesTest, SignedVarintZigZag) {
  for (int64_t v : std::vector<int64_t>{0, -1, 1, -64, 64, INT64_MIN,
                                        INT64_MAX}) {
    ByteWriter w;
    w.svarint(v);
    ByteReader r(w.view());
    EXPECT_EQ(r.svarint(), v) << v;
  }
}

TEST(BytesTest, SmallSignedValuesEncodeSmall) {
  ByteWriter w;
  w.svarint(-2);
  EXPECT_EQ(w.size(), 1u);
}

TEST(BytesTest, StringAndBlobRoundTrip) {
  ByteWriter w;
  w.str("hello");
  Buffer blob = {1, 2, 3};
  w.blob(as_bytes_view(blob));
  w.str("");

  ByteReader r(w.view());
  EXPECT_EQ(r.str(), "hello");
  BytesView b = r.blob();
  EXPECT_EQ(Buffer(b.begin(), b.end()), blob);
  EXPECT_EQ(r.str(), "");
  EXPECT_TRUE(r.ok() && r.at_end());
}

TEST(BytesTest, TruncatedReadsFailTotally) {
  ByteWriter w;
  w.u32(7);
  ByteReader r(w.view());
  r.u16();
  EXPECT_TRUE(r.ok());
  r.u32();  // only 2 bytes left
  EXPECT_FALSE(r.ok());
  // Further reads keep failing, never crash.
  r.u64();
  r.str();
  EXPECT_FALSE(r.ok());
}

TEST(BytesTest, BlobLengthBeyondInputFails) {
  ByteWriter w;
  w.varint(1000);  // claims 1000 bytes, provides none
  ByteReader r(w.view());
  r.blob();
  EXPECT_FALSE(r.ok());
}

TEST(BytesTest, MalformedVarintFails) {
  Buffer bad(11, 0xFF);  // continuation forever
  ByteReader r(as_bytes_view(bad));
  r.varint();
  EXPECT_FALSE(r.ok());
}

TEST(BytesTest, PatchU32) {
  ByteWriter w;
  w.u32(0);
  w.str("payload");
  w.patch_u32(0, 0xCAFEBABE);
  ByteReader r(w.view());
  EXPECT_EQ(r.u32(), 0xCAFEBABEu);
}

// --- CRC32 -------------------------------------------------------------------

TEST(Crc32Test, KnownVectors) {
  // Standard check value for "123456789".
  const char* s = "123456789";
  EXPECT_EQ(crc32(BytesView(reinterpret_cast<const uint8_t*>(s), 9)),
            0xCBF43926u);
  EXPECT_EQ(crc32(BytesView{}), 0u);
}

TEST(Crc32Test, DetectsBitFlip) {
  Buffer data(100, 0x5A);
  uint32_t base = crc32(as_bytes_view(data));
  data[50] ^= 0x01;
  EXPECT_NE(crc32(as_bytes_view(data)), base);
}

// --- RunSet -------------------------------------------------------------------

TEST(RunSetTest, InsertAndMerge) {
  RunSet s;
  s.insert(5);
  s.insert(7);
  s.insert(6);  // bridges 5..7
  ASSERT_EQ(s.runs().size(), 1u);
  EXPECT_EQ(s.runs()[0], (IndexRun{5, 3}));
  EXPECT_EQ(s.cardinality(), 3u);
}

TEST(RunSetTest, ContainsAndIdempotentInsert) {
  RunSet s;
  s.insert_run(10, 5);
  s.insert(12);  // already present
  EXPECT_EQ(s.cardinality(), 5u);
  EXPECT_TRUE(s.contains(10));
  EXPECT_TRUE(s.contains(14));
  EXPECT_FALSE(s.contains(15));
  EXPECT_FALSE(s.contains(9));
}

TEST(RunSetTest, OverlappingRunInsert) {
  RunSet s;
  s.insert_run(0, 4);
  s.insert_run(10, 4);
  s.insert_run(2, 10);  // swallows the gap and both runs
  ASSERT_EQ(s.runs().size(), 1u);
  EXPECT_EQ(s.runs()[0], (IndexRun{0, 14}));
}

TEST(RunSetTest, RebaseDropsBelowAndShiftsTheRest) {
  RunSet s;
  s.insert_run(1, 3);   // wholly below 8: dropped
  s.insert_run(4, 0);   // empty: no run
  s.insert_run(6, 4);   // straddles 8: keeps 8 and 9
  s.insert_run(20, 2);  // above: shifted
  s.rebase(8);
  EXPECT_EQ(s.to_indices(), (std::vector<uint32_t>{0, 1, 12, 13}));
  s.rebase(0);  // no-op
  EXPECT_EQ(s.to_indices(), (std::vector<uint32_t>{0, 1, 12, 13}));
  s.rebase(100);
  EXPECT_TRUE(s.empty());
}

TEST(RunSetTest, MissingOf) {
  RunSet have;
  have.insert_run(0, 3);
  have.insert_run(5, 2);
  RunSet miss = missing_of(have, 10);
  EXPECT_EQ(miss.to_indices(), (std::vector<uint32_t>{3, 4, 7, 8, 9}));
  EXPECT_TRUE(missing_of(have, 3).to_indices().empty() ||
              missing_of(have, 3).cardinality() == 0);
}

TEST(RunSetTest, EncodeDecodeRoundTrip) {
  RunSet s;
  s.insert_run(3, 4);
  s.insert_run(100, 1);
  s.insert_run(1000000, 50);
  ByteWriter w;
  s.encode(w);
  ByteReader r(w.view());
  RunSet back;
  ASSERT_TRUE(RunSet::decode(r, back));
  EXPECT_EQ(back, s);
}

TEST(RunSetTest, DecodeRejectsZeroCount) {
  ByteWriter w;
  w.varint(1);
  w.varint(0);
  w.varint(0);  // count 0 invalid
  ByteReader r(w.view());
  RunSet out;
  EXPECT_FALSE(RunSet::decode(r, out));
}

TEST(RunSetTest, CompressionIsCompactForBursts) {
  // 1000 missing chunks in 2 bursts -> tiny encoding.
  RunSet s;
  s.insert_run(100, 500);
  s.insert_run(5000, 500);
  ByteWriter w;
  s.encode(w);
  EXPECT_LT(w.size(), 12u);
}

// Property: RunSet built from random inserts equals the reference set.
class RunSetPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(RunSetPropertyTest, MatchesReferenceSet) {
  Rng rng(GetParam());
  RunSet s;
  std::set<uint32_t> reference;
  for (int i = 0; i < 500; ++i) {
    uint32_t first = static_cast<uint32_t>(rng.uniform(0, 300));
    uint32_t count = static_cast<uint32_t>(rng.uniform(1, 8));
    s.insert_run(first, count);
    for (uint32_t k = 0; k < count; ++k) reference.insert(first + k);
  }
  EXPECT_EQ(s.cardinality(), reference.size());
  for (uint32_t v = 0; v < 320; ++v) {
    EXPECT_EQ(s.contains(v), reference.count(v) > 0) << v;
  }
  // Runs are sorted, non-empty, non-adjacent.
  for (size_t i = 0; i < s.runs().size(); ++i) {
    EXPECT_GT(s.runs()[i].count, 0u);
    if (i > 0) {
      EXPECT_GT(s.runs()[i].first,
                s.runs()[i - 1].first + s.runs()[i - 1].count);
    }
  }
  // Encode/decode is lossless.
  ByteWriter w;
  s.encode(w);
  ByteReader r(w.view());
  RunSet back;
  ASSERT_TRUE(RunSet::decode(r, back));
  EXPECT_EQ(back, s);
}

INSTANTIATE_TEST_SUITE_P(Seeds, RunSetPropertyTest,
                         ::testing::Values(1, 2, 3, 42, 1337, 99999));

// --- Rng ----------------------------------------------------------------------

TEST(RngTest, DeterministicPerSeed) {
  Rng a(7), b(7), c(8);
  for (int i = 0; i < 100; ++i) {
    uint64_t va = a.next_u64();
    EXPECT_EQ(va, b.next_u64());
    EXPECT_NE(va, c.next_u64());  // overwhelmingly likely
  }
}

TEST(RngTest, UniformRangeRespected) {
  Rng rng(3);
  for (int i = 0; i < 1000; ++i) {
    uint64_t v = rng.uniform(10, 20);
    EXPECT_GE(v, 10u);
    EXPECT_LE(v, 20u);
    double d = rng.next_double();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(RngTest, BernoulliExtremes) {
  Rng rng(5);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(rng.bernoulli(0.0));
    EXPECT_TRUE(rng.bernoulli(1.0));
  }
}

TEST(RngTest, ForkIsIndependentButDeterministic) {
  Rng a(9);
  Rng fork1 = a.fork();
  Rng b(9);
  Rng fork2 = b.fork();
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(fork1.next_u64(), fork2.next_u64());
  }
}

// --- Time ----------------------------------------------------------------------

TEST(TimeTest, Arithmetic) {
  TimePoint t{1000};
  EXPECT_EQ((t + microseconds(1)).ns, 2000);
  EXPECT_EQ((t - Duration{500}).ns, 500);
  EXPECT_EQ((TimePoint{3000} - t).ns, 2000);
  EXPECT_EQ((milliseconds(2) * 3).ns, 6000000);
  EXPECT_EQ((milliseconds(3) * 0.5).ns, 1500000);
  EXPECT_EQ((milliseconds(10) / 2).ns, 5000000);
}

TEST(TimeTest, Comparisons) {
  EXPECT_LT(milliseconds(1), milliseconds(2));
  EXPECT_EQ(seconds(1.0), milliseconds(1000));
  EXPECT_LT(TimePoint{5}, TimePoint{6});
}

TEST(TimeTest, ToStringPicksUnits) {
  EXPECT_EQ(to_string(seconds(1.5)), "1.500s");
  EXPECT_EQ(to_string(milliseconds(20)), "20.000ms");
  EXPECT_EQ(to_string(microseconds(7)), "7.000us");
  EXPECT_EQ(to_string(Duration{12}), "12ns");
  EXPECT_EQ(to_string(kDurationInfinite), "inf");
}

TEST(TimeTest, SteadyClockAdvances) {
  SteadyClock clock;
  TimePoint a = clock.now();
  TimePoint b = clock.now();
  EXPECT_LE(a.ns, b.ns);
}

}  // namespace
}  // namespace marea
