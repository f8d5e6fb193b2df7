// Pluggable per-chunk compression for the content-addressed bulk path.
//
// The codec is negotiated at announce time (FileMeta carries the codec
// id), but each chunk travels compressed or raw on its own: a codec
// that cannot beat the raw bytes reports failure and the sender ships
// the chunk uncompressed with the "compressed" flag clear. The sender
// decides per revision first (proto::ChunkTable probes a few chunks and
// ships a revision raw when none compresses), then per chunk. Decompression is
// total — a malformed or truncated stream returns false instead of
// reading or writing out of bounds — because compressed payloads arrive
// from the network and from chaos-corrupted links.
//
// Both directions work on caller-owned spans, so a receiver decodes a
// chunk straight into its slot of the file image and a sender encodes
// into a slot of one table-owned buffer: no codec call allocates.
//
// One real codec ships beside kNone: kLz, greedy LZ77 with a 64 KiB
// window and 4-byte minimum match, for repeated rows/structures and
// flat imagery regions alike. It is self-contained (no external
// libraries) and deterministic: the same input always yields the same
// bytes, which the byte-identical ShardGrid dump tests rely on. Wire id
// 1 is unassigned (it named a retired RLE codec) and is rejected like
// any other unknown id.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>

#include "util/bytes.h"

namespace marea::util {

enum class Codec : uint8_t {
  kNone = 0,
  kLz = 2,
};

class Compressor {
 public:
  virtual ~Compressor() = default;
  virtual Codec codec() const = 0;

  // Encodes `in` into `out` and returns the encoded length, or 0 — the
  // caller then sends raw — as soon as the encoding would not be
  // strictly smaller than `in` or would not fit in `out`. Callers pass
  // a span of in.size() - 1 bytes; bytes of `out` past the returned
  // length are unspecified.
  virtual size_t compress(BytesView in, std::span<uint8_t> out) const = 0;

  // Decodes `in` into exactly out.size() bytes. Returns false on any
  // malformed input (bad token, offset before the start, output over-
  // or under-run); never reads or writes out of bounds. On failure the
  // contents of `out` are unspecified.
  virtual bool decompress(BytesView in, std::span<uint8_t> out) const = 0;

  // Largest output any `encoded_size`-byte input can decode to. Callers
  // that size `out` from an untrusted length check it against this
  // before allocating.
  virtual size_t max_decoded_size(size_t encoded_size) const = 0;
};

// Singleton codec lookup. Returns nullptr for kNone (raw bytes need no
// transform) and for ids this build does not know — callers treat an
// unknown id from the wire as "reject the chunk", not a crash.
const Compressor* compressor_for(Codec c);
const Compressor* compressor_for(uint8_t wire_id);

}  // namespace marea::util
