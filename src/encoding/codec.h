// Wire codec: Value <-> bytes, shaped by a TypeDescriptor.
//
// This is the PEPt *Encoding* layer. The format is deliberately compact
// (the paper targets low-bandwidth radio links): varint integers with
// zigzag for signed, fixed-width floats, length-prefixed strings/blobs,
// field values back-to-back in descriptor order (no per-field tags — the
// descriptor travels once at announce time, samples carry data only).
// An f32/f64 array is its length varint (unless fixed-size) and then its
// elements back to back, whichever Value form (value.h) it came from; an
// f64 array is written and read as one little-endian block. Decoding
// yields the packed F64Array form and rejects a length longer than the
// bytes left could hold before allocating anything for it.
//
// The WireFormat interface keeps this pluggable, as Fig 4 requires; the
// default is BinaryWireFormat, and tests plug an alternative to prove the
// seam (tests/pept_plugin_test).
#pragma once

#include <memory>

#include "encoding/type.h"
#include "encoding/value.h"
#include "util/bytes.h"
#include "util/status.h"

namespace marea::enc {

class WireFormat {
 public:
  virtual ~WireFormat() = default;
  virtual const char* name() const = 0;
  virtual Status encode(const Value& value, const TypeDescriptor& type,
                        ByteWriter& out) const = 0;
  virtual StatusOr<Value> decode(ByteReader& in,
                                 const TypeDescriptor& type) const = 0;
};

class BinaryWireFormat final : public WireFormat {
 public:
  const char* name() const override { return "binary-v1"; }
  Status encode(const Value& value, const TypeDescriptor& type,
                ByteWriter& out) const override;
  StatusOr<Value> decode(ByteReader& in,
                         const TypeDescriptor& type) const override;
};

// Process-wide default format instance.
const WireFormat& binary_format();

// Convenience one-shots using the default format.
StatusOr<Buffer> encode_value(const Value& value, const TypeDescriptor& type);
StatusOr<Value> decode_value(BytesView data, const TypeDescriptor& type);

// Allocation-free decode for hot paths: refills `out` in place, reusing
// the list, string and buffer capacity (and unshared union payloads)
// already in it, so a Value decoded into over and over stops touching the
// heap once it has seen its largest shape. On error `out` holds an
// unspecified but valid Value; decode into scratch and swap on success
// when the previous value must survive bad input.
Status decode_value_into(BytesView data, const TypeDescriptor& type,
                         Value& out);

// Allocation-free variant for hot paths: encodes into `out`, reusing its
// capacity across calls. `out` is cleared first; on error it is left
// cleared so stale bytes never escape.
Status encode_value_into(const Value& value, const TypeDescriptor& type,
                         Buffer& out);

// Self-describing ("tagged") encoding: each node carries a kind byte, so
// no descriptor is needed to decode. Used for remote-invocation arguments
// and results, which cross service boundaries whose schemas the caller
// cannot know ahead of discovery; samples/events keep the compact
// descriptor-shaped form.
void encode_tagged(const Value& value, ByteWriter& out);
StatusOr<Value> decode_tagged(ByteReader& in, int max_depth = 32);
Buffer encode_tagged(const Value& value);
StatusOr<Value> decode_tagged(BytesView data);

}  // namespace marea::enc
