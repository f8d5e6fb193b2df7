// CRC-32 (IEEE 802.3, reflected) known-answer and equivalence tests.
// The implementation folds spans of 64 bytes or more with carry-less
// multiplies (where the CPU has them) and runs slicing-by-8 tables over
// short spans and the n % 16 tail; these tests pin both to the classic
// bit-at-a-time definition so a kernel or table bug cannot silently
// change the wire format.
#include "util/crc32.h"

#include <gtest/gtest.h>

#include <cstring>
#include <string>

#include "util/bytes.h"

namespace marea {
namespace {

BytesView view_of(const std::string& s) {
  return BytesView(reinterpret_cast<const uint8_t*>(s.data()), s.size());
}

// Reference implementation: one bit at a time, poly 0xEDB88320.
uint32_t crc32_bitwise(BytesView data, uint32_t seed = 0) {
  uint32_t c = seed ^ 0xFFFFFFFFu;
  for (uint8_t byte : data) {
    c ^= byte;
    for (int k = 0; k < 8; ++k) {
      c = (c >> 1) ^ (0xEDB88320u & (0u - (c & 1u)));
    }
  }
  return c ^ 0xFFFFFFFFu;
}

TEST(Crc32Test, EmptyInput) { EXPECT_EQ(crc32({}), 0x00000000u); }

TEST(Crc32Test, CheckValue123456789) {
  // The canonical CRC-32 check value.
  EXPECT_EQ(crc32(view_of("123456789")), 0xCBF43926u);
}

TEST(Crc32Test, ShortStrings) {
  EXPECT_EQ(crc32(view_of("a")), 0xE8B7BE43u);
  EXPECT_EQ(crc32(view_of("abc")), 0x352441C2u);
  EXPECT_EQ(crc32(view_of("message digest")), 0x20159D7Fu);
}

TEST(Crc32Test, OneMebibytePattern) {
  // Large buffer exercises the slicing-by-8 main loop (not just the
  // byte tail), with a pattern that touches every table entry.
  Buffer data(1u << 20);
  for (size_t i = 0; i < data.size(); ++i) {
    data[i] = static_cast<uint8_t>((i * 7 + (i >> 8)) & 0xFF);
  }
  EXPECT_EQ(crc32(BytesView(data)), crc32_bitwise(BytesView(data)));
}

TEST(Crc32Test, MatchesBitwiseAtEveryLengthThroughTwoBlocks) {
  // Lengths 0..24 cover all tail sizes and alignment mixes around the
  // 8-byte slicing granularity.
  Buffer data(24);
  for (size_t i = 0; i < data.size(); ++i) {
    data[i] = static_cast<uint8_t>(0xA5 ^ (i * 31));
  }
  for (size_t len = 0; len <= data.size(); ++len) {
    BytesView v(data.data(), len);
    EXPECT_EQ(crc32(v), crc32_bitwise(v)) << "length " << len;
  }
}

TEST(Crc32Test, SeedChainingEquivalence) {
  // crc(a ++ b) == crc(b, seed = crc(a)) — the property frame
  // verification relies on when checksumming in pieces.
  Buffer data(1000);
  for (size_t i = 0; i < data.size(); ++i) {
    data[i] = static_cast<uint8_t>(i * 13 + 5);
  }
  uint32_t whole = crc32(BytesView(data));
  for (size_t split : {size_t{0}, size_t{1}, size_t{7}, size_t{8}, size_t{9},
                       size_t{500}, size_t{999}, size_t{1000}}) {
    uint32_t first = crc32(BytesView(data.data(), split));
    uint32_t chained =
        crc32(BytesView(data.data() + split, data.size() - split), first);
    EXPECT_EQ(chained, whole) << "split at " << split;
  }
}

TEST(Crc32Test, UnalignedStart) {
  // Slicing-by-8 reads 8 bytes at a time; make sure odd start offsets
  // (frames rarely land aligned inside a slab) agree with the reference.
  Buffer data(64 + 8);
  for (size_t i = 0; i < data.size(); ++i) {
    data[i] = static_cast<uint8_t>(i ^ 0x5C);
  }
  for (size_t off = 0; off < 8; ++off) {
    BytesView v(data.data() + off, 64);
    EXPECT_EQ(crc32(v), crc32_bitwise(v)) << "offset " << off;
  }
}

TEST(Crc32Test, MatchesBitwiseAtEveryLengthOffsetAndSeed) {
  // Every length 0..1024 at every start offset 0..15, under zero and
  // non-zero seeds: covers spans below the fold threshold, the folded
  // bulk (64-byte lanes, then single 16-byte blocks) and every table
  // tail length, at every alignment.
  Buffer data(1024 + 16);
  for (size_t i = 0; i < data.size(); ++i) {
    data[i] = static_cast<uint8_t>((i * 151) ^ (i >> 3) ^ 0x3C);
  }
  const uint32_t seeds[] = {0u, 0xFFFFFFFFu, 0x12345678u};
  for (size_t len = 0; len <= 1024; ++len) {
    for (size_t off = 0; off < 16; ++off) {
      BytesView v(data.data() + off, len);
      const uint32_t seed = seeds[(len + off) % 3];
      ASSERT_EQ(crc32(v, seed), crc32_bitwise(v, seed))
          << "length " << len << " offset " << off << " seed " << seed;
    }
  }
}

TEST(Crc32Test, ChainingHoldsAcrossFoldAndTableSplits) {
  // crc32(b, crc32(a)) == crc32(a ++ b) for every split of a span long
  // enough that either half may take the folded path.
  Buffer data(300);
  for (size_t i = 0; i < data.size(); ++i) {
    data[i] = static_cast<uint8_t>(i * 29 + 11);
  }
  for (uint32_t seed : {0u, 0xDEADBEEFu}) {
    const uint32_t whole = crc32(BytesView(data), seed);
    ASSERT_EQ(whole, crc32_bitwise(BytesView(data), seed));
    for (size_t split = 0; split <= data.size(); ++split) {
      const uint32_t first = crc32(BytesView(data.data(), split), seed);
      const uint32_t chained = crc32(
          BytesView(data.data() + split, data.size() - split), first);
      ASSERT_EQ(chained, whole) << "split at " << split << " seed " << seed;
    }
  }
}

}  // namespace
}  // namespace marea
