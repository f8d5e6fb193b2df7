#include "encoding/value.h"

#include <cassert>

namespace marea::enc {

Value& Value::mutable_union(uint32_t case_index) {
  UnionValue& u = ensure<UnionValue>();
  u.case_index = case_index;
  if (!u.value || u.value.use_count() != 1) u.value = std::make_shared<Value>();
  return *u.value;
}

double Value::number() const {
  if (is_double()) return as_double();
  if (is_int()) return static_cast<double>(as_int());
  if (is_uint()) return static_cast<double>(as_uint());
  if (is_bool()) return as_bool() ? 1.0 : 0.0;
  assert(false && "Value::number on non-numeric value");
  return 0.0;
}

namespace {

std::string format_double(double v) {
  char buf[32];
  snprintf(buf, sizeof buf, "%g", v);
  return buf;
}

// "{a, b, c}", each element printed by `print`.
template <typename Seq, typename Print>
std::string braced(const Seq& seq, Print print) {
  std::string s = "{";
  for (size_t i = 0; i < seq.size(); ++i) {
    if (i) s += ", ";
    s += print(seq[i]);
  }
  return s + "}";
}

// A packed array equals a ValueList holding the same doubles.
bool packed_equals_list(const F64Array& packed, const ValueList& list) {
  if (packed.size() != list.size()) return false;
  for (size_t i = 0; i < packed.size(); ++i) {
    if (!list[i].is_double() || list[i].as_double() != packed[i]) {
      return false;
    }
  }
  return true;
}

}  // namespace

std::string Value::to_string() const {
  if (is_bool()) return as_bool() ? "true" : "false";
  if (is_int()) return std::to_string(as_int());
  if (is_uint()) return std::to_string(as_uint());
  if (is_double()) return format_double(as_double());
  if (is_string()) return "\"" + as_string() + "\"";
  if (is_bytes()) {
    return "bytes[" + std::to_string(as_bytes().size()) + "]";
  }
  if (is_list()) {
    return braced(as_list(), [](const Value& v) { return v.to_string(); });
  }
  if (is_f64_array()) return braced(as_f64_array(), format_double);
  const auto& u = as_union();
  return "case" + std::to_string(u.case_index) + "(" +
         (u.value ? u.value->to_string() : "null") + ")";
}

bool operator==(const Value& a, const Value& b) {
  if (a.is_f64_array() && b.is_list()) {
    return packed_equals_list(a.as_f64_array(), b.as_list());
  }
  if (a.is_list() && b.is_f64_array()) {
    return packed_equals_list(b.as_f64_array(), a.as_list());
  }
  return a.storage_ == b.storage_;
}

}  // namespace marea::enc
