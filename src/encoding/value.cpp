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

std::string Value::to_string() const {
  if (is_bool()) return as_bool() ? "true" : "false";
  if (is_int()) return std::to_string(as_int());
  if (is_uint()) return std::to_string(as_uint());
  if (is_double()) {
    char buf[32];
    snprintf(buf, sizeof buf, "%g", as_double());
    return buf;
  }
  if (is_string()) return "\"" + as_string() + "\"";
  if (is_bytes()) {
    return "bytes[" + std::to_string(as_bytes().size()) + "]";
  }
  if (is_list()) {
    std::string s = "{";
    const auto& list = as_list();
    for (size_t i = 0; i < list.size(); ++i) {
      if (i) s += ", ";
      s += list[i].to_string();
    }
    return s + "}";
  }
  const auto& u = as_union();
  return "case" + std::to_string(u.case_index) + "(" +
         (u.value ? u.value->to_string() : "null") + ")";
}

bool operator==(const Value& a, const Value& b) {
  return a.storage_ == b.storage_;
}

}  // namespace marea::enc
