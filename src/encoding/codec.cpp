#include "encoding/codec.h"

#include <bit>
#include <cmath>
#include <cstring>
#include <limits>

namespace marea::enc {
namespace {

Status shape_error(const char* what, const TypeDescriptor& type) {
  return invalid_argument_error(std::string("value does not match type (") +
                                what + ") for " + type.to_string());
}

bool int_fits(int64_t v, TypeKind kind) {
  switch (kind) {
    case TypeKind::kI8:
      return v >= INT8_MIN && v <= INT8_MAX;
    case TypeKind::kI16:
      return v >= INT16_MIN && v <= INT16_MAX;
    case TypeKind::kI32:
      return v >= INT32_MIN && v <= INT32_MAX;
    case TypeKind::kI64:
      return true;
    default:
      return false;
  }
}

bool uint_fits(uint64_t v, TypeKind kind) {
  switch (kind) {
    case TypeKind::kU8:
      return v <= UINT8_MAX;
    case TypeKind::kU16:
      return v <= UINT16_MAX;
    case TypeKind::kU32:
      return v <= UINT32_MAX;
    case TypeKind::kU64:
      return true;
    default:
      return false;
  }
}

bool is_float_kind(TypeKind kind) {
  return kind == TypeKind::kF32 || kind == TypeKind::kF64;
}

// The packed form of an f32/f64 array: the same bytes as a ValueList of
// doubles, f64 elements in one bulk write.
Status encode_f64_array(const F64Array& array, const TypeDescriptor& type,
                        ByteWriter& out) {
  const TypeKind elem = type.element()->kind();
  if (!is_float_kind(elem)) return shape_error("array", type);
  if (type.fixed_size() > 0 && array.size() != type.fixed_size()) {
    return shape_error("fixed array size", type);
  }
  if (type.fixed_size() == 0) out.varint(array.size());
  if (elem == TypeKind::kF64) {
    out.f64s(array);
  } else {
    for (double v : array) out.f32(static_cast<float>(v));
  }
  return Status::ok();
}

}  // namespace

Status BinaryWireFormat::encode(const Value& value, const TypeDescriptor& type,
                                ByteWriter& out) const {
  const TypeKind kind = type.kind();
  switch (kind) {
    case TypeKind::kBool:
      if (!value.is_bool()) return shape_error("bool", type);
      out.u8(value.as_bool() ? 1 : 0);
      return Status::ok();
    case TypeKind::kI8:
    case TypeKind::kI16:
    case TypeKind::kI32:
    case TypeKind::kI64: {
      if (!value.is_int()) return shape_error("int", type);
      if (!int_fits(value.as_int(), kind)) return shape_error("range", type);
      out.svarint(value.as_int());
      return Status::ok();
    }
    case TypeKind::kU8:
    case TypeKind::kU16:
    case TypeKind::kU32:
    case TypeKind::kU64: {
      if (!value.is_uint()) return shape_error("uint", type);
      if (!uint_fits(value.as_uint(), kind)) return shape_error("range", type);
      out.varint(value.as_uint());
      return Status::ok();
    }
    case TypeKind::kF32: {
      if (!value.is_double()) return shape_error("f32", type);
      out.f32(static_cast<float>(value.as_double()));
      return Status::ok();
    }
    case TypeKind::kF64: {
      if (!value.is_double()) return shape_error("f64", type);
      out.f64(value.as_double());
      return Status::ok();
    }
    case TypeKind::kString:
      if (!value.is_string()) return shape_error("string", type);
      out.str(value.as_string());
      return Status::ok();
    case TypeKind::kBytes:
      if (!value.is_bytes()) return shape_error("bytes", type);
      out.blob(as_bytes_view(value.as_bytes()));
      return Status::ok();
    case TypeKind::kArray: {
      if (value.is_f64_array()) {
        return encode_f64_array(value.as_f64_array(), type, out);
      }
      if (!value.is_list()) return shape_error("array", type);
      const auto& list = value.as_list();
      if (type.fixed_size() > 0 && list.size() != type.fixed_size()) {
        return shape_error("fixed array size", type);
      }
      if (type.fixed_size() == 0) out.varint(list.size());
      for (const auto& elem : list) {
        if (Status s = encode(elem, *type.element(), out); !s.is_ok()) {
          return s;
        }
      }
      return Status::ok();
    }
    case TypeKind::kStruct: {
      if (!value.is_list()) return shape_error("struct", type);
      const auto& list = value.as_list();
      if (list.size() != type.fields().size()) {
        return shape_error("field count", type);
      }
      for (size_t i = 0; i < list.size(); ++i) {
        if (Status s = encode(list[i], *type.fields()[i].type, out);
            !s.is_ok()) {
          return s;
        }
      }
      return Status::ok();
    }
    case TypeKind::kUnion: {
      if (!value.is_union()) return shape_error("union", type);
      const auto& u = value.as_union();
      if (u.case_index >= type.fields().size() || !u.value) {
        return shape_error("union case", type);
      }
      out.varint(u.case_index);
      return encode(*u.value, *type.fields()[u.case_index].type, out);
    }
  }
  return internal_error("unhandled type kind");
}

namespace {

// Refills `out` with the packed form of an n-element f32/f64 array. n
// comes off the wire, so it is checked against the bytes actually left
// before anything is allocated for it.
Status decode_f64_array(ByteReader& in, TypeKind elem, uint64_t n,
                        Value& out) {
  const size_t width = elem == TypeKind::kF64 ? 8 : 4;
  if (n > in.remaining() / width) return data_loss_error("array too long");
  F64Array& array = out.mutable_f64_array();
  array.resize(static_cast<size_t>(n));
  if (elem == TypeKind::kF64) {
    in.f64s(array);
  } else {
    for (double& v : array) v = in.f32();
  }
  if (!in.ok()) return data_loss_error("truncated array");
  return Status::ok();
}

// The one descriptor-shaped decoder: refills `out` in place (see
// decode_value_into); BinaryWireFormat::decode and decode_value wrap it.
Status decode_into(ByteReader& in, const TypeDescriptor& type, Value& out) {
  const TypeKind kind = type.kind();
  switch (kind) {
    case TypeKind::kBool: {
      uint8_t v = in.u8();
      if (!in.ok()) return data_loss_error("truncated bool");
      out = Value::of_bool(v != 0);
      return Status::ok();
    }
    case TypeKind::kI8:
    case TypeKind::kI16:
    case TypeKind::kI32:
    case TypeKind::kI64: {
      int64_t v = in.svarint();
      if (!in.ok()) return data_loss_error("truncated int");
      if (!int_fits(v, kind)) return data_loss_error("int out of range");
      out = Value::of_int(v);
      return Status::ok();
    }
    case TypeKind::kU8:
    case TypeKind::kU16:
    case TypeKind::kU32:
    case TypeKind::kU64: {
      uint64_t v = in.varint();
      if (!in.ok()) return data_loss_error("truncated uint");
      if (!uint_fits(v, kind)) return data_loss_error("uint out of range");
      out = Value::of_uint(v);
      return Status::ok();
    }
    case TypeKind::kF32: {
      float v = in.f32();
      if (!in.ok()) return data_loss_error("truncated f32");
      out = Value::of_double(v);
      return Status::ok();
    }
    case TypeKind::kF64: {
      double v = in.f64();
      if (!in.ok()) return data_loss_error("truncated f64");
      out = Value::of_double(v);
      return Status::ok();
    }
    case TypeKind::kString: {
      BytesView v = in.blob();
      if (!in.ok()) return data_loss_error("truncated string");
      out.mutable_string().assign(reinterpret_cast<const char*>(v.data()),
                                  v.size());
      return Status::ok();
    }
    case TypeKind::kBytes: {
      BytesView v = in.blob();
      if (!in.ok()) return data_loss_error("truncated bytes");
      out.mutable_bytes().assign(v.begin(), v.end());
      return Status::ok();
    }
    case TypeKind::kArray: {
      uint64_t n = type.fixed_size();
      if (n == 0) {
        n = in.varint();
        if (!in.ok()) return data_loss_error("truncated array length");
      }
      const TypeKind elem = type.element()->kind();
      if (is_float_kind(elem)) return decode_f64_array(in, elem, n, out);
      // Defensive cap: element payloads are at least one byte each.
      if (n > in.remaining() + 1) return data_loss_error("array too long");
      ValueList& list = out.mutable_list();
      list.resize(static_cast<size_t>(n));
      for (Value& elem : list) {
        if (Status s = decode_into(in, *type.element(), elem); !s.is_ok()) {
          return s;
        }
      }
      return Status::ok();
    }
    case TypeKind::kStruct: {
      const auto& fields = type.fields();
      ValueList& list = out.mutable_list();
      list.resize(fields.size());
      for (size_t i = 0; i < fields.size(); ++i) {
        if (Status s = decode_into(in, *fields[i].type, list[i]); !s.is_ok()) {
          return s;
        }
      }
      return Status::ok();
    }
    case TypeKind::kUnion: {
      uint64_t case_index = in.varint();
      if (!in.ok() || case_index >= type.fields().size()) {
        return data_loss_error("bad union case");
      }
      return decode_into(in, *type.fields()[case_index].type,
                         out.mutable_union(static_cast<uint32_t>(case_index)));
    }
  }
  return internal_error("unhandled type kind");
}

}  // namespace

StatusOr<Value> BinaryWireFormat::decode(ByteReader& in,
                                         const TypeDescriptor& type) const {
  Value v;
  if (Status s = decode_into(in, type, v); !s.is_ok()) return s;
  return v;
}

const WireFormat& binary_format() {
  static BinaryWireFormat format;
  return format;
}

StatusOr<Buffer> encode_value(const Value& value, const TypeDescriptor& type) {
  ByteWriter w;
  if (Status s = binary_format().encode(value, type, w); !s.is_ok()) return s;
  return w.take();
}

Status encode_value_into(const Value& value, const TypeDescriptor& type,
                         Buffer& out) {
  out.clear();
  ByteWriter w(out);
  if (Status s = binary_format().encode(value, type, w); !s.is_ok()) {
    out.clear();
    return s;
  }
  return Status::ok();
}

Status decode_value_into(BytesView data, const TypeDescriptor& type,
                         Value& out) {
  ByteReader r(data);
  if (Status s = decode_into(r, type, out); !s.is_ok()) return s;
  if (!r.at_end()) return data_loss_error("trailing bytes after value");
  return Status::ok();
}

StatusOr<Value> decode_value(BytesView data, const TypeDescriptor& type) {
  Value v;
  if (Status s = decode_value_into(data, type, v); !s.is_ok()) return s;
  return v;
}

namespace {
enum class Tag : uint8_t {
  kBool = 0,
  kInt = 1,
  kUint = 2,
  kDouble = 3,
  kString = 4,
  kBytes = 5,
  kList = 6,
  kUnion = 7,
};

// One f64 at `p` as its 8 little-endian bytes, on any host.
void store_f64_le(uint8_t* p, double v) {
  uint64_t bits;
  std::memcpy(&bits, &v, 8);
  if constexpr (std::endian::native == std::endian::little) {
    std::memcpy(p, &bits, 8);
  } else {
    for (int i = 0; i < 8; ++i) p[i] = static_cast<uint8_t>(bits >> (8 * i));
  }
}

// A packed array as the bytes of a kList of n kDouble nodes: the header,
// then one resize and n direct (tag, f64) stores.
void encode_tagged_f64_array(const F64Array& array, ByteWriter& out) {
  out.u8(static_cast<uint8_t>(Tag::kList));
  out.varint(array.size());
  uint8_t* p = out.grow(array.size() * 9);
  for (double v : array) {
    p[0] = static_cast<uint8_t>(Tag::kDouble);
    store_f64_le(p + 1, v);
    p += 9;
  }
}

}  // namespace

void encode_tagged(const Value& value, ByteWriter& out) {
  if (value.is_bool()) {
    out.u8(static_cast<uint8_t>(Tag::kBool));
    out.u8(value.as_bool() ? 1 : 0);
  } else if (value.is_int()) {
    out.u8(static_cast<uint8_t>(Tag::kInt));
    out.svarint(value.as_int());
  } else if (value.is_uint()) {
    out.u8(static_cast<uint8_t>(Tag::kUint));
    out.varint(value.as_uint());
  } else if (value.is_double()) {
    out.u8(static_cast<uint8_t>(Tag::kDouble));
    out.f64(value.as_double());
  } else if (value.is_string()) {
    out.u8(static_cast<uint8_t>(Tag::kString));
    out.str(value.as_string());
  } else if (value.is_bytes()) {
    out.u8(static_cast<uint8_t>(Tag::kBytes));
    out.blob(as_bytes_view(value.as_bytes()));
  } else if (value.is_list()) {
    out.u8(static_cast<uint8_t>(Tag::kList));
    const auto& list = value.as_list();
    out.varint(list.size());
    for (const auto& elem : list) encode_tagged(elem, out);
  } else if (value.is_f64_array()) {
    encode_tagged_f64_array(value.as_f64_array(), out);
  } else {
    const auto& u = value.as_union();
    out.u8(static_cast<uint8_t>(Tag::kUnion));
    out.varint(u.case_index);
    encode_tagged(u.value ? *u.value : Value(), out);
  }
}

StatusOr<Value> decode_tagged(ByteReader& in, int max_depth) {
  if (max_depth <= 0) return data_loss_error("tagged value nests too deep");
  uint8_t tag = in.u8();
  if (!in.ok() || tag > static_cast<uint8_t>(Tag::kUnion)) {
    return data_loss_error("bad value tag");
  }
  switch (static_cast<Tag>(tag)) {
    case Tag::kBool: {
      uint8_t v = in.u8();
      if (!in.ok()) return data_loss_error("truncated bool");
      return Value::of_bool(v != 0);
    }
    case Tag::kInt: {
      int64_t v = in.svarint();
      if (!in.ok()) return data_loss_error("truncated int");
      return Value::of_int(v);
    }
    case Tag::kUint: {
      uint64_t v = in.varint();
      if (!in.ok()) return data_loss_error("truncated uint");
      return Value::of_uint(v);
    }
    case Tag::kDouble: {
      double v = in.f64();
      if (!in.ok()) return data_loss_error("truncated double");
      return Value::of_double(v);
    }
    case Tag::kString: {
      std::string s = in.str();
      if (!in.ok()) return data_loss_error("truncated string");
      return Value::of_string(std::move(s));
    }
    case Tag::kBytes: {
      BytesView v = in.blob();
      if (!in.ok()) return data_loss_error("truncated bytes");
      return Value::of_bytes(to_buffer(v));
    }
    case Tag::kList: {
      uint64_t n = in.varint();
      if (!in.ok() || n > in.remaining() + 1) {
        return data_loss_error("bad list length");
      }
      ValueList list;
      list.reserve(static_cast<size_t>(n));
      for (uint64_t i = 0; i < n; ++i) {
        auto elem = decode_tagged(in, max_depth - 1);
        if (!elem.ok()) return elem.status();
        list.push_back(std::move(elem).value());
      }
      return Value::of_list(std::move(list));
    }
    case Tag::kUnion: {
      uint64_t case_index = in.varint();
      if (!in.ok() || case_index > UINT32_MAX) {
        return data_loss_error("bad union case");
      }
      auto inner = decode_tagged(in, max_depth - 1);
      if (!inner.ok()) return inner.status();
      return Value::of_union(static_cast<uint32_t>(case_index),
                             std::move(inner).value());
    }
  }
  return internal_error("unhandled tag");
}

Buffer encode_tagged(const Value& value) {
  ByteWriter w;
  encode_tagged(value, w);
  return w.take();
}

StatusOr<Value> decode_tagged(BytesView data) {
  ByteReader r(data);
  auto v = decode_tagged(r);
  if (!v.ok()) return v;
  if (!r.at_end()) return data_loss_error("trailing bytes after value");
  return v;
}

}  // namespace marea::enc
