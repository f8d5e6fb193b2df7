// Dynamic values carried by the middleware primitives. A Value is a
// descriptor-shaped tree; the codec (codec.h) checks shape against a
// TypeDescriptor when putting it on the wire.
//
// An array whose element type is f32 or f64 has two equivalent forms: a
// ValueList of double nodes, or a packed F64Array holding the doubles in
// one contiguous block. The codec and to_value produce the packed form;
// encode and from_value accept either, and operator== treats a packed
// array and a ValueList of equal doubles as equal. Every other array, and
// every struct, is a ValueList.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <variant>
#include <vector>

#include "encoding/type.h"
#include "util/bytes.h"

namespace marea::enc {

class Value;

// Ordered field values (names live in the descriptor).
using ValueList = std::vector<Value>;

// Packed elements of an f32 or f64 array (f32 elements widened).
using F64Array = std::vector<double>;

struct UnionValue {
  uint32_t case_index = 0;
  std::shared_ptr<Value> value;  // never null in a well-formed Value
};

class Value {
 public:
  using Storage = std::variant<bool, int64_t, uint64_t, double, std::string,
                               Buffer, ValueList, UnionValue, F64Array>;

  Value() : storage_(false) {}

  static Value of_bool(bool v) { return Value(Storage(v)); }
  static Value of_int(int64_t v) { return Value(Storage(v)); }
  static Value of_uint(uint64_t v) { return Value(Storage(v)); }
  static Value of_double(double v) { return Value(Storage(v)); }
  static Value of_string(std::string v) { return Value(Storage(std::move(v))); }
  static Value of_bytes(Buffer v) { return Value(Storage(std::move(v))); }
  // Arrays and structs share ValueList storage; the descriptor disambiguates.
  static Value of_list(ValueList v) { return Value(Storage(std::move(v))); }
  static Value of_union(uint32_t case_index, Value v) {
    return Value(Storage(
        UnionValue{case_index, std::make_shared<Value>(std::move(v))}));
  }
  // The packed form of an f32 or f64 array.
  static Value of_f64_array(F64Array v) { return Value(Storage(std::move(v))); }

  bool is_bool() const { return std::holds_alternative<bool>(storage_); }
  bool is_int() const { return std::holds_alternative<int64_t>(storage_); }
  bool is_uint() const { return std::holds_alternative<uint64_t>(storage_); }
  bool is_double() const { return std::holds_alternative<double>(storage_); }
  bool is_string() const {
    return std::holds_alternative<std::string>(storage_);
  }
  bool is_bytes() const { return std::holds_alternative<Buffer>(storage_); }
  bool is_list() const { return std::holds_alternative<ValueList>(storage_); }
  bool is_union() const {
    return std::holds_alternative<UnionValue>(storage_);
  }
  bool is_f64_array() const {
    return std::holds_alternative<F64Array>(storage_);
  }

  bool as_bool() const { return std::get<bool>(storage_); }
  int64_t as_int() const { return std::get<int64_t>(storage_); }
  uint64_t as_uint() const { return std::get<uint64_t>(storage_); }
  double as_double() const { return std::get<double>(storage_); }
  const std::string& as_string() const {
    return std::get<std::string>(storage_);
  }
  const Buffer& as_bytes() const { return std::get<Buffer>(storage_); }
  const ValueList& as_list() const { return std::get<ValueList>(storage_); }
  ValueList& as_list() { return std::get<ValueList>(storage_); }
  const UnionValue& as_union() const {
    return std::get<UnionValue>(storage_);
  }
  const F64Array& as_f64_array() const { return std::get<F64Array>(storage_); }

  // In-place mutators for decoders that refill a reused tree
  // (decode_value_into). Each switches the storage to the named kind,
  // keeping the existing string/buffer/list capacity when the storage
  // already holds that kind.
  std::string& mutable_string() { return ensure<std::string>(); }
  Buffer& mutable_bytes() { return ensure<Buffer>(); }
  ValueList& mutable_list() { return ensure<ValueList>(); }
  F64Array& mutable_f64_array() { return ensure<F64Array>(); }
  // Sets the union case and returns its payload. Copies of a Value share
  // union payloads, so the payload node is reused only when unshared.
  Value& mutable_union(uint32_t case_index);

  // Numeric convenience: accepts int/uint/double storage (the common case
  // when values cross language-ish boundaries), converting to double.
  double number() const;

  std::string to_string() const;

  friend bool operator==(const Value& a, const Value& b);

 private:
  explicit Value(Storage s) : storage_(std::move(s)) {}

  template <typename T>
  T& ensure() {
    if (!std::holds_alternative<T>(storage_)) storage_.emplace<T>();
    return std::get<T>(storage_);
  }

  Storage storage_;
};

inline bool operator==(const UnionValue& a, const UnionValue& b) {
  if (a.case_index != b.case_index) return false;
  if (!a.value || !b.value) return a.value == b.value;
  return *a.value == *b.value;
}

// Fluent builder for struct values:
//   Value v = StructBuilder().add(Value::of_double(41.3)).add(...).build();
class StructBuilder {
 public:
  StructBuilder& add(Value v) {
    fields_.push_back(std::move(v));
    return *this;
  }
  Value build() { return Value::of_list(std::move(fields_)); }

 private:
  ValueList fields_;
};

}  // namespace marea::enc
