// Byte buffers and primitive wire I/O.
//
// ByteWriter/ByteReader implement the low-level encoding shared by every
// protocol message: little-endian fixed-width integers, LEB128 varints,
// length-prefixed strings/blobs, and runs of f64s as one contiguous
// little-endian block. Reader methods are total: on truncated input they
// mark the reader failed instead of reading out of bounds, and callers
// check `ok()` once at the end (keeps decode paths branch-light).
#pragma once

#include <bit>
#include <cstdint>
#include <cstring>
#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace marea {

using Buffer = std::vector<uint8_t>;
using BytesView = std::span<const uint8_t>;

inline BytesView as_bytes_view(const Buffer& b) { return BytesView(b); }
inline Buffer to_buffer(BytesView v) { return Buffer(v.begin(), v.end()); }

class ByteWriter {
 public:
  ByteWriter() = default;
  explicit ByteWriter(size_t reserve) { own_.reserve(reserve); }
  // External-buffer mode: appends to `external` (which the caller owns —
  // e.g. a pooled FrameLease slab) instead of an internal buffer, so a
  // message can be serialized directly into its final wire frame with no
  // intermediate copy. `external` must outlive the writer.
  explicit ByteWriter(Buffer& external) : buf_(&external) {}

  // buf_ points at own_ by default; copying/moving would leave the copy
  // aliasing the original's storage.
  ByteWriter(const ByteWriter&) = delete;
  ByteWriter& operator=(const ByteWriter&) = delete;

  void u8(uint8_t v) { buf_->push_back(v); }
  void u16(uint16_t v) { append_le(v); }
  void u32(uint32_t v) { append_le(v); }
  void u64(uint64_t v) { append_le(v); }
  void i8(int8_t v) { u8(static_cast<uint8_t>(v)); }
  void i16(int16_t v) { u16(static_cast<uint16_t>(v)); }
  void i32(int32_t v) { u32(static_cast<uint32_t>(v)); }
  void i64(int64_t v) { u64(static_cast<uint64_t>(v)); }
  void f32(float v) {
    uint32_t bits;
    std::memcpy(&bits, &v, 4);
    u32(bits);
  }
  void f64(double v) {
    uint64_t bits;
    std::memcpy(&bits, &v, 8);
    u64(bits);
  }
  // `v.size()` consecutive f64s, the bytes of that many f64() calls; on
  // a little-endian host one resize and one copy.
  void f64s(std::span<const double> v) {
    if constexpr (std::endian::native != std::endian::little) {
      for (double d : v) f64(d);
    } else if (!v.empty()) {
      std::memcpy(grow(v.size() * 8), v.data(), v.size() * 8);
    }
  }

  // Unsigned LEB128.
  void varint(uint64_t v) {
    while (v >= 0x80) {
      buf_->push_back(static_cast<uint8_t>(v) | 0x80);
      v >>= 7;
    }
    buf_->push_back(static_cast<uint8_t>(v));
  }
  // ZigZag-encoded signed varint.
  void svarint(int64_t v) {
    varint((static_cast<uint64_t>(v) << 1) ^
           static_cast<uint64_t>(v >> 63));
  }

  void bytes(BytesView v) { buf_->insert(buf_->end(), v.begin(), v.end()); }
  // Length-prefixed.
  void blob(BytesView v) {
    varint(v.size());
    bytes(v);
  }
  void str(std::string_view s) {
    varint(s.size());
    buf_->insert(buf_->end(), s.begin(), s.end());
  }

  // Appends `n` zero bytes and returns where they start, for a caller
  // that stores a run of fixed-width fields in place. The pointer is
  // valid until the next write.
  uint8_t* grow(size_t n) {
    const size_t at = buf_->size();
    buf_->resize(at + n, 0);
    return buf_->data() + at;
  }
  // Reserves `n` zero bytes to be filled in later via patch_u32 (e.g. a
  // header field whose value is only known after the body is written).
  void skip(size_t n) { grow(n); }

  // Patch a previously written u32 at `offset` (e.g. frame length/CRC).
  void patch_u32(size_t offset, uint32_t v) {
    for (int i = 0; i < 4; ++i) {
      (*buf_)[offset + static_cast<size_t>(i)] =
          static_cast<uint8_t>(v >> (8 * i));
    }
  }

  size_t size() const { return buf_->size(); }
  BytesView view() const { return BytesView(*buf_); }
  Buffer take() { return std::move(*buf_); }
  const Buffer& buffer() const { return *buf_; }

 private:
  template <typename T>
  void append_le(T v) {
    for (size_t i = 0; i < sizeof(T); ++i) {
      buf_->push_back(static_cast<uint8_t>(v >> (8 * i)));
    }
  }
  Buffer own_;
  Buffer* buf_ = &own_;
};

// Owned-or-borrowed bytes for message fields. Decode borrows straight out
// of the frame buffer (valid while the frame is alive — all middleware
// dispatch is synchronous within one frame's processing), the hot encode
// paths borrow a provider's cached encoding, and paths whose messages
// outlive the frame (ARQ retransmit queues, event replay) own their copy.
class Bytes {
 public:
  Bytes() = default;
  // Implicit from Buffer: takes ownership (no copy when moved in).
  Bytes(Buffer b) : own_(std::move(b)), owned_(true) {}
  Bytes(std::initializer_list<uint8_t> il) : own_(il), owned_(true) {}

  static Bytes borrow(BytesView v) {
    Bytes b;
    b.view_ = v;
    return b;
  }
  static Bytes copy_of(BytesView v) { return Bytes(to_buffer(v)); }

  // view_ may alias own_, so copies/moves rebind instead of copying both.
  Bytes(const Bytes& o) { *this = o; }
  Bytes& operator=(const Bytes& o) {
    if (this == &o) return *this;
    owned_ = o.owned_;
    if (owned_) {
      own_ = o.own_;
      view_ = {};
    } else {
      own_.clear();
      view_ = o.view_;
    }
    return *this;
  }
  Bytes(Bytes&& o) noexcept { *this = std::move(o); }
  Bytes& operator=(Bytes&& o) noexcept {
    if (this == &o) return *this;
    owned_ = o.owned_;
    if (owned_) {
      own_ = std::move(o.own_);
      view_ = {};
    } else {
      own_.clear();
      view_ = o.view_;
    }
    o.owned_ = false;
    o.view_ = {};
    return *this;
  }

  BytesView view() const { return owned_ ? BytesView(own_) : view_; }
  operator BytesView() const { return view(); }
  const uint8_t* data() const { return view().data(); }
  size_t size() const { return view().size(); }
  bool empty() const { return view().empty(); }
  bool owned() const { return owned_; }
  BytesView::iterator begin() const { return view().begin(); }
  BytesView::iterator end() const { return view().end(); }

  // Detaches from whatever the view aliased; no-op when already owned.
  void materialize() {
    if (owned_) return;
    own_ = to_buffer(view_);
    view_ = {};
    owned_ = true;
  }
  Buffer to_owned() && {
    materialize();
    owned_ = false;
    return std::move(own_);
  }

  friend bool operator==(const Bytes& a, const Bytes& b) {
    BytesView av = a.view(), bv = b.view();
    return av.size() == bv.size() &&
           (av.empty() || std::memcmp(av.data(), bv.data(), av.size()) == 0);
  }

 private:
  Buffer own_;
  BytesView view_{};
  bool owned_ = false;
};

inline BytesView as_bytes_view(const Bytes& b) { return b.view(); }

class ByteReader {
 public:
  explicit ByteReader(BytesView data) : data_(data) {}

  bool ok() const { return ok_; }
  size_t remaining() const { return data_.size() - pos_; }
  size_t position() const { return pos_; }
  bool at_end() const { return pos_ == data_.size(); }

  uint8_t u8() { return take_le<uint8_t>(); }
  uint16_t u16() { return take_le<uint16_t>(); }
  uint32_t u32() { return take_le<uint32_t>(); }
  uint64_t u64() { return take_le<uint64_t>(); }
  int8_t i8() { return static_cast<int8_t>(u8()); }
  int16_t i16() { return static_cast<int16_t>(u16()); }
  int32_t i32() { return static_cast<int32_t>(u32()); }
  int64_t i64() { return static_cast<int64_t>(u64()); }
  float f32() {
    uint32_t bits = u32();
    float v;
    std::memcpy(&v, &bits, 4);
    return v;
  }
  double f64() {
    uint64_t bits = u64();
    double v;
    std::memcpy(&v, &bits, 8);
    return v;
  }

  // Fills `out` with out.size() consecutive f64s (see ByteWriter::f64s).
  // When fewer bytes remain, marks the reader failed and consumes nothing.
  void f64s(std::span<double> out) {
    if (out.size() > remaining() / 8) {
      ok_ = false;
      return;
    }
    if constexpr (std::endian::native != std::endian::little) {
      for (double& d : out) d = f64();
    } else if (!out.empty()) {
      std::memcpy(out.data(), data_.data() + pos_, out.size() * 8);
      pos_ += out.size() * 8;
    }
  }

  uint64_t varint() {
    uint64_t v = 0;
    int shift = 0;
    while (true) {
      if (pos_ >= data_.size() || shift > 63) {
        ok_ = false;
        return 0;
      }
      uint8_t byte = data_[pos_++];
      v |= static_cast<uint64_t>(byte & 0x7f) << shift;
      if (!(byte & 0x80)) return v;
      shift += 7;
    }
  }
  int64_t svarint() {
    uint64_t z = varint();
    return static_cast<int64_t>((z >> 1) ^ (~(z & 1) + 1));
  }

  BytesView bytes(size_t n) {
    if (remaining() < n) {
      ok_ = false;
      return {};
    }
    BytesView v = data_.subspan(pos_, n);
    pos_ += n;
    return v;
  }
  BytesView blob() {
    uint64_t n = varint();
    if (!ok_ || n > remaining()) {
      ok_ = false;
      return {};
    }
    return bytes(static_cast<size_t>(n));
  }
  std::string str() {
    BytesView v = blob();
    return std::string(reinterpret_cast<const char*>(v.data()), v.size());
  }

 private:
  template <typename T>
  T take_le() {
    if (remaining() < sizeof(T)) {
      ok_ = false;
      return T{};
    }
    T v{};
    for (size_t i = 0; i < sizeof(T); ++i) {
      v = static_cast<T>(v | (static_cast<T>(data_[pos_ + i]) << (8 * i)));
    }
    pos_ += sizeof(T);
    return v;
  }

  BytesView data_;
  size_t pos_ = 0;
  bool ok_ = true;
};

// Hex dump (for diagnostics and tests).
std::string to_hex(BytesView data, size_t max_bytes = 64);

}  // namespace marea
