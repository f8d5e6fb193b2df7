#include "util/crc32.h"

#include <array>
#include <cstring>

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define MAREA_CRC32_CLMUL 1
#include <immintrin.h>
#endif

namespace marea {
namespace {

// Slicing-by-8: eight derived lookup tables let the inner loop consume 8
// bytes per iteration instead of 1 (Intel's "slicing-by-8" technique;
// same IEEE 802.3 reflected polynomial, bit-identical results).
// table[0] is the classic byte-at-a-time table; table[k] advances a byte
// through k additional zero bytes: table[k][i] = step(table[k-1][i]).
// constexpr so the tables are constant-initialized: crc32 is reachable
// from other translation units' static initializers.
using Tables = std::array<std::array<uint32_t, 256>, 8>;

constexpr Tables make_tables() {
  Tables t{};
  for (uint32_t i = 0; i < 256; ++i) {
    uint32_t c = i;
    for (int k = 0; k < 8; ++k) {
      c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
    }
    t[0][i] = c;
  }
  for (size_t k = 1; k < 8; ++k) {
    for (uint32_t i = 0; i < 256; ++i) {
      uint32_t c = t[k - 1][i];
      t[k][i] = t[0][c & 0xFFu] ^ (c >> 8);
    }
  }
  return t;
}

constexpr Tables kTables = make_tables();

inline uint32_t load_le32(const uint8_t* p) {
  // Byte-by-byte assembly keeps this endian-correct and alignment-safe;
  // compilers fuse it into a single load on little-endian targets.
  return static_cast<uint32_t>(p[0]) | (static_cast<uint32_t>(p[1]) << 8) |
         (static_cast<uint32_t>(p[2]) << 16) |
         (static_cast<uint32_t>(p[3]) << 24);
}

// Portable path; `c` is the running (pre-inverted) register.
uint32_t crc32_tables(const uint8_t* p, size_t n, uint32_t c) {
  const auto& t = kTables;
  while (n >= 8) {
    uint32_t lo = load_le32(p) ^ c;
    uint32_t hi = load_le32(p + 4);
    c = t[7][lo & 0xFFu] ^ t[6][(lo >> 8) & 0xFFu] ^
        t[5][(lo >> 16) & 0xFFu] ^ t[4][lo >> 24] ^
        t[3][hi & 0xFFu] ^ t[2][(hi >> 8) & 0xFFu] ^
        t[1][(hi >> 16) & 0xFFu] ^ t[0][hi >> 24];
    p += 8;
    n -= 8;
  }
  while (n--) {
    c = t[0][(c ^ *p++) & 0xFFu] ^ (c >> 8);
  }
  return c;
}

// Spans shorter than this stay on the tables: the fold needs four
// 16-byte lanes to start, and below that the setup does not pay.
constexpr size_t kFoldMin = 64;

#ifdef MAREA_CRC32_CLMUL
#define MAREA_CLMUL_TARGET __attribute__((target("pclmul,sse4.1")))

MAREA_CLMUL_TARGET inline __m128i load128(const uint8_t* q) {
  return _mm_loadu_si128(reinterpret_cast<const __m128i*>(q));
}

// One fold step: x * k (both 64-bit halves, carry-less) + next.
MAREA_CLMUL_TARGET inline __m128i fold128(__m128i x, __m128i k,
                                          __m128i next) {
  const __m128i lo = _mm_clmulepi64_si128(x, k, 0x00);
  const __m128i hi = _mm_clmulepi64_si128(x, k, 0x11);
  return _mm_xor_si128(_mm_xor_si128(hi, lo), next);
}

// Carry-less-multiply folding (Gopal et al., "Fast CRC Computation for
// Generic Polynomials Using PCLMULQDQ Instruction", Intel 2009), in the
// bit-reflected domain of the IEEE polynomial. Four 128-bit lanes fold
// 64 bytes per step by x^(512±64) mod P; the lanes then fold into one
// by x^(128±64), single 16-byte blocks fold the same way, and the last
// 128 bits reduce to 64, then by Barrett reduction to the 32-bit
// register. Consumes n & ~15 bytes (n >= kFoldMin); the caller runs
// the tables over the n % 16 tail.
MAREA_CLMUL_TARGET uint32_t crc32_fold_clmul(const uint8_t* p, size_t n,
                                             uint32_t c) {
  // x^(4*128+64), x^(4*128) mod P, reflected, each with its x^32 factor.
  const __m128i k1k2 = _mm_set_epi64x(0x01c6e41596, 0x0154442bd4);
  // x^(128+64), x^128 mod P.
  const __m128i k3k4 = _mm_set_epi64x(0x00ccaa009e, 0x01751997d0);
  // x^64 mod P.
  const __m128i k5 = _mm_set_epi64x(0, 0x0163cd6124);
  // mu = floor(x^64 / P) (high) and P' (low), both reflected.
  const __m128i poly_mu = _mm_set_epi64x(0x01f7011641, 0x01db710641);
  const __m128i low32 = _mm_setr_epi32(-1, 0, -1, 0);

  __m128i x0 =
      _mm_xor_si128(load128(p), _mm_cvtsi32_si128(static_cast<int>(c)));
  __m128i x1 = load128(p + 16);
  __m128i x2 = load128(p + 32);
  __m128i x3 = load128(p + 48);
  p += 64;
  n -= 64;
  while (n >= 64) {
    x0 = fold128(x0, k1k2, load128(p));
    x1 = fold128(x1, k1k2, load128(p + 16));
    x2 = fold128(x2, k1k2, load128(p + 32));
    x3 = fold128(x3, k1k2, load128(p + 48));
    p += 64;
    n -= 64;
  }
  x0 = fold128(x0, k3k4, x1);
  x0 = fold128(x0, k3k4, x2);
  x0 = fold128(x0, k3k4, x3);
  while (n >= 16) {
    x0 = fold128(x0, k3k4, load128(p));
    p += 16;
    n -= 16;
  }

  // 128 -> 96 -> 64 bits.
  __m128i t = _mm_clmulepi64_si128(x0, k3k4, 0x10);
  x0 = _mm_xor_si128(_mm_srli_si128(x0, 8), t);
  t = _mm_srli_si128(x0, 4);
  x0 = _mm_clmulepi64_si128(_mm_and_si128(x0, low32), k5, 0x00);
  x0 = _mm_xor_si128(x0, t);

  // Barrett reduction to 32 bits.
  t = _mm_and_si128(x0, low32);
  t = _mm_clmulepi64_si128(t, poly_mu, 0x10);
  t = _mm_and_si128(t, low32);
  t = _mm_clmulepi64_si128(t, poly_mu, 0x00);
  x0 = _mm_xor_si128(x0, t);
  return static_cast<uint32_t>(_mm_extract_epi32(x0, 1));
}
#endif

using FoldFn = uint32_t (*)(const uint8_t*, size_t, uint32_t);

// nullptr when the CPU has no carry-less multiply: everything then runs
// on the tables.
FoldFn select_fold() {
#ifdef MAREA_CRC32_CLMUL
  __builtin_cpu_init();
  if (__builtin_cpu_supports("pclmul") && __builtin_cpu_supports("sse4.1")) {
    return &crc32_fold_clmul;
  }
#endif
  return nullptr;
}

}  // namespace

uint32_t crc32(BytesView data, uint32_t seed) {
  uint32_t c = seed ^ 0xFFFFFFFFu;
  const uint8_t* p = data.data();
  size_t n = data.size();
  if (n >= kFoldMin) {
    // Function-local so the CPU probe runs on first use, whichever
    // translation unit's static initializer gets here first.
    static const FoldFn fold = select_fold();
    if (fold != nullptr) {
      const size_t bulk = n & ~size_t{15};
      c = fold(p, bulk, c);
      p += bulk;
      n -= bulk;
    }
  }
  return crc32_tables(p, n, c) ^ 0xFFFFFFFFu;
}

}  // namespace marea
