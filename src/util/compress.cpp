#include "util/compress.h"

#include <algorithm>
#include <bit>
#include <cstring>

namespace marea::util {
namespace {

// Bounded output cursor for the encoder. Each token group checks room()
// before writing, so the encoder gives up (returns 0) the moment its
// output would reach the raw size, without writing past `out`.
class Sink {
 public:
  Sink(std::span<uint8_t> out, size_t limit)
      : p_(out.data()), cap_(std::min(out.size(), limit)) {}
  bool room(size_t k) const { return k <= cap_ - n_; }
  void byte(uint8_t b) { p_[n_++] = b; }
  void bytes(const uint8_t* src, size_t k) {
    if (k != 0) std::memcpy(p_ + n_, src, k);
    n_ += k;
  }
  size_t size() const { return n_; }

 private:
  uint8_t* p_;
  size_t cap_;
  size_t n_ = 0;
};

// ----------------------------------------------------------------- LZ --
//
// Greedy LZ77, 4-byte hash-table matcher, 64 KiB window (chunks are far
// smaller, so every match stays inside the chunk being decoded).
//
// Sequence: token byte [L:4|M:4], extended literal length (each 0xFF
// adds 255, a byte < 0xFF terminates — only present when L == 15), the
// literal bytes, then — unless the input ends here (trailing
// literals-only sequence) — a little-endian u16 match offset (>= 1) and
// the extended match length (present when M == 15). Stored match length
// is actual length minus the 4-byte minimum.
constexpr size_t kLzMinMatch = 4;
constexpr size_t kLzTableBits = 12;
constexpr uint32_t kLzWindow = 0xFFFF;

// The matcher's position table, one per thread and never cleared. Each
// compress() call numbers its input from a fresh `base`, at least a
// window past every position an earlier call stored, so a stale entry
// always fails the window test and the table behaves exactly like a
// freshly cleared one: the output does not depend on what the thread
// compressed before. 0 marks an empty slot (bases start at 0x10000).
struct LzMatchTable {
  uint32_t base = kLzWindow + 1;
  uint32_t pos[1u << kLzTableBits] = {};

  // Reserves absolute positions [base, base + n) for one call.
  uint32_t claim(size_t n) {
    constexpr uint64_t kSpan = uint64_t{kLzWindow} + 1;
    if (uint64_t{base} + n + kSpan > UINT32_MAX) {
      std::fill(std::begin(pos), std::end(pos), 0u);
      base = static_cast<uint32_t>(kSpan);
    }
    const uint32_t b = base;
    base = static_cast<uint32_t>(b + n + kSpan);
    return b;
  }
};

inline uint32_t load32(const uint8_t* p) {
  uint32_t v;
  std::memcpy(&v, p, sizeof(v));
  return v;
}

inline uint64_t load64(const uint8_t* p) {
  uint64_t v;
  std::memcpy(&v, p, sizeof(v));
  return v;
}

// Length of the common prefix of a and b, at most `limit` bytes: eight
// bytes per step, the first differing byte located from the XOR.
inline size_t common_prefix(const uint8_t* a, const uint8_t* b,
                            size_t limit) {
  size_t len = 0;
  while (len + 8 <= limit) {
    const uint64_t x = load64(a + len) ^ load64(b + len);
    if (x != 0) {
      const int bit = std::endian::native == std::endian::little
                          ? std::countr_zero(x)
                          : std::countl_zero(x);
      return len + static_cast<size_t>(bit) / 8;
    }
    len += 8;
  }
  while (len < limit && a[len] == b[len]) ++len;
  return len;
}

class LzCompressor final : public Compressor {
 public:
  Codec codec() const override { return Codec::kLz; }

  size_t compress(BytesView in, std::span<uint8_t> out) const override {
    const size_t n = in.size();
    if (n < 16) return 0;
    Sink sink(out, n - 1);
    const uint8_t* src = in.data();
    thread_local LzMatchTable table;
    const uint32_t base = table.claim(n);
    auto hash4 = [](uint32_t v) {
      return (v * 2654435761u) >> (32 - kLzTableBits);
    };
    size_t i = 0;
    size_t anchor = 0;
    while (i + kLzMinMatch <= n) {
      const uint32_t v = load32(src + i);
      const uint32_t h = hash4(v);
      const uint32_t here = base + static_cast<uint32_t>(i);
      const uint32_t cand_abs = table.pos[h];
      table.pos[h] = here;
      const size_t cand = cand_abs - base;  // meaningful only in-window
      if (here - cand_abs <= kLzWindow && load32(src + cand) == v) {
        const size_t len =
            kLzMinMatch + common_prefix(src + cand + kLzMinMatch,
                                        src + i + kLzMinMatch,
                                        n - i - kLzMinMatch);
        if (!emit_sequence(src + anchor, i - anchor,
                           static_cast<uint16_t>(i - cand), len, sink)) {
          return 0;
        }
        i += len;
        anchor = i;
      } else {
        ++i;
      }
    }
    if (!emit_trailing_literals(src + anchor, n - anchor, sink)) return 0;
    return sink.size();
  }

  bool decompress(BytesView in, std::span<uint8_t> out) const override {
    const uint8_t* src = in.data();
    uint8_t* dst = out.data();
    size_t ip = 0;
    size_t op = 0;
    const size_t ie = in.size();
    const size_t oe = out.size();
    while (ip < ie) {
      const uint8_t tok = src[ip++];
      size_t lit = tok >> 4;
      if (lit == 15 && !read_ext(in, ip, lit)) return false;
      if (lit > ie - ip || lit > oe - op) return false;
      if (lit != 0) std::memcpy(dst + op, src + ip, lit);
      ip += lit;
      op += lit;
      if (ip >= ie) break;  // trailing literals-only sequence
      if (ie - ip < 2) return false;
      const size_t off = static_cast<size_t>(src[ip]) |
                         (static_cast<size_t>(src[ip + 1]) << 8);
      ip += 2;
      if (off == 0 || off > op) return false;
      size_t mlen = tok & 0x0F;
      if (mlen == 15 && !read_ext(in, ip, mlen)) return false;
      mlen += kLzMinMatch;
      if (mlen > oe - op) return false;
      uint8_t* d = dst + op;
      if (off >= mlen) {
        std::memcpy(d, d - off, mlen);
      } else if (off == 1) {
        std::memset(d, d[-1], mlen);
      } else {
        // Overlapping match (offset < length): the output repeats with
        // period `off`, so copy from a whole number of periods back —
        // the largest that is already written — doubling each step.
        size_t done = 0;
        while (done < mlen) {
          const size_t period = (off + done) / off * off;
          const size_t k = std::min(period, mlen - done);
          std::memcpy(d + done, d + done - period, k);
          done += k;
        }
      }
      op += mlen;
    }
    return op == oe;
  }

  // Literals never expand; a match costs at least 3 bytes (token and
  // offset) plus one per 255 of extended length, so no input byte
  // yields more than 255 output bytes.
  size_t max_decoded_size(size_t encoded_size) const override {
    return encoded_size * 255;
  }

 private:
  static size_t ext_bytes(size_t v) {
    return v >= 15 ? (v - 15) / 255 + 1 : 0;
  }

  static void write_ext(size_t extra, Sink& sink) {
    while (extra >= 255) {
      sink.byte(0xFF);
      extra -= 255;
    }
    sink.byte(static_cast<uint8_t>(extra));
  }

  static bool read_ext(BytesView in, size_t& ip, size_t& value) {
    for (;;) {
      if (ip >= in.size()) return false;
      const uint8_t b = in[ip++];
      value += b;
      if (b < 0xFF) return true;
    }
  }

  static bool emit_sequence(const uint8_t* lits, size_t lit_len,
                            uint16_t offset, size_t match_len, Sink& sink) {
    const size_t stored = match_len - kLzMinMatch;
    if (!sink.room(1 + ext_bytes(lit_len) + lit_len + 2 +
                   ext_bytes(stored))) {
      return false;
    }
    sink.byte(static_cast<uint8_t>(
        (std::min<size_t>(lit_len, 15) << 4) | std::min<size_t>(stored, 15)));
    if (lit_len >= 15) write_ext(lit_len - 15, sink);
    sink.bytes(lits, lit_len);
    sink.byte(static_cast<uint8_t>(offset & 0xFF));
    sink.byte(static_cast<uint8_t>(offset >> 8));
    if (stored >= 15) write_ext(stored - 15, sink);
    return true;
  }

  static bool emit_trailing_literals(const uint8_t* lits, size_t lit_len,
                                     Sink& sink) {
    if (lit_len == 0) return true;
    if (!sink.room(1 + ext_bytes(lit_len) + lit_len)) return false;
    sink.byte(static_cast<uint8_t>(std::min<size_t>(lit_len, 15) << 4));
    if (lit_len >= 15) write_ext(lit_len - 15, sink);
    sink.bytes(lits, lit_len);
    return true;
  }
};

}  // namespace

const Compressor* compressor_for(Codec c) {
  static const LzCompressor lz;
  return c == Codec::kLz ? &lz : nullptr;
}

const Compressor* compressor_for(uint8_t wire_id) {
  // Every uint8_t is a valid Codec value (fixed underlying type); any id
  // but kLz's maps to nullptr.
  return compressor_for(static_cast<Codec>(wire_id));
}

}  // namespace marea::util
