// Static typed facade over the dynamic type system: reflect a plain C++
// struct once with MAREA_REFLECT and get descriptor + Value conversion +
// wire codec for free. This is what service code actually uses; the
// dynamic Value layer underneath is what crosses the wire.
//
//   struct GpsFix { double lat; double lon; double alt_m; uint64_t t_ns; };
//   MAREA_REFLECT(GpsFix, lat, lon, alt_m, t_ns)
//
//   Buffer wire = enc::encode_struct(fix).value();
//   GpsFix back = enc::decode_struct<GpsFix>(wire).value();
#pragma once

#include <string>
#include <type_traits>
#include <vector>

#include "encoding/codec.h"
#include "encoding/type.h"
#include "encoding/value.h"

namespace marea::enc {

// Specialized by MAREA_REFLECT (or by hand, for a struct the macro cannot
// take): kName, kFieldCount and for_each_field(f), which calls
// f(name, member_ptr) once per field in declaration order.
template <typename T>
struct Reflect;

template <typename T, typename = void>
struct is_reflected : std::false_type {};
template <typename T>
struct is_reflected<T, std::void_t<decltype(Reflect<T>::kName)>>
    : std::true_type {};
template <typename T>
inline constexpr bool is_reflected_v = is_reflected<T>::value;

template <typename T>
const TypePtr& descriptor_of();
template <typename T>
Value to_value(const T& obj);
template <typename T>
bool from_value(const Value& v, T& out);

namespace detail {

template <typename M>
TypePtr member_type();

template <typename M>
Value member_to_value(const M& m);

template <typename M>
bool member_from_value(const Value& v, M& out);

template <typename T>
struct is_std_vector : std::false_type {};
template <typename E, typename A>
struct is_std_vector<std::vector<E, A>> : std::true_type {};

// std::vector<float|double>: maps to the packed F64Array form.
template <typename T>
struct is_float_vector : std::false_type {};
template <typename E, typename A>
struct is_float_vector<std::vector<E, A>> : std::is_floating_point<E> {};

template <typename M>
TypePtr member_type() {
  if constexpr (std::is_same_v<M, bool>) {
    return bool_type();
  } else if constexpr (std::is_same_v<M, int8_t>) {
    return i8_type();
  } else if constexpr (std::is_same_v<M, int16_t>) {
    return i16_type();
  } else if constexpr (std::is_same_v<M, int32_t>) {
    return i32_type();
  } else if constexpr (std::is_same_v<M, int64_t>) {
    return i64_type();
  } else if constexpr (std::is_same_v<M, uint8_t>) {
    return u8_type();
  } else if constexpr (std::is_same_v<M, uint16_t>) {
    return u16_type();
  } else if constexpr (std::is_same_v<M, uint32_t>) {
    return u32_type();
  } else if constexpr (std::is_same_v<M, uint64_t>) {
    return u64_type();
  } else if constexpr (std::is_same_v<M, float>) {
    return f32_type();
  } else if constexpr (std::is_same_v<M, double>) {
    return f64_type();
  } else if constexpr (std::is_same_v<M, std::string>) {
    return string_type();
  } else if constexpr (std::is_same_v<M, std::vector<uint8_t>>) {
    return bytes_type();
  } else if constexpr (is_std_vector<M>::value) {
    return TypeDescriptor::array_of(member_type<typename M::value_type>());
  } else if constexpr (is_reflected_v<M>) {
    return descriptor_of<M>();
  } else {
    static_assert(sizeof(M) == 0, "unsupported field type for MAREA_REFLECT");
  }
}

}  // namespace detail

// Descriptor of a reflected struct (built once, cached per type).
template <typename T>
const TypePtr& descriptor_of() {
  static const TypePtr desc = [] {
    std::vector<Field> fields;
    Reflect<T>::for_each_field([&fields](const char* name, auto member_ptr) {
      using M = std::remove_cvref_t<
          decltype(std::declval<T>().*member_ptr)>;
      fields.push_back(Field{name, detail::member_type<M>()});
    });
    return TypeDescriptor::struct_of(Reflect<T>::kName, std::move(fields));
  }();
  return desc;
}

namespace detail {

template <typename M>
Value member_to_value(const M& m) {
  if constexpr (std::is_same_v<M, bool>) {
    return Value::of_bool(m);
  } else if constexpr (std::is_integral_v<M> && std::is_signed_v<M>) {
    return Value::of_int(static_cast<int64_t>(m));
  } else if constexpr (std::is_same_v<M, std::vector<uint8_t>>) {
    return Value::of_bytes(m);
  } else if constexpr (std::is_integral_v<M>) {
    return Value::of_uint(static_cast<uint64_t>(m));
  } else if constexpr (std::is_floating_point_v<M>) {
    return Value::of_double(static_cast<double>(m));
  } else if constexpr (std::is_same_v<M, std::string>) {
    return Value::of_string(m);
  } else if constexpr (is_float_vector<M>::value) {
    return Value::of_f64_array(F64Array(m.begin(), m.end()));
  } else if constexpr (is_std_vector<M>::value) {
    ValueList list;
    list.reserve(m.size());
    for (const auto& e : m) list.push_back(member_to_value(e));
    return Value::of_list(std::move(list));
  } else if constexpr (is_reflected_v<M>) {
    return to_value(m);
  } else {
    static_assert(sizeof(M) == 0, "unsupported field type");
  }
}

template <typename M>
bool member_from_value(const Value& v, M& out) {
  if constexpr (std::is_same_v<M, bool>) {
    if (!v.is_bool()) return false;
    out = v.as_bool();
    return true;
  } else if constexpr (std::is_same_v<M, std::vector<uint8_t>>) {
    if (!v.is_bytes()) return false;
    out = v.as_bytes();
    return true;
  } else if constexpr (std::is_integral_v<M> && std::is_signed_v<M>) {
    if (!v.is_int()) return false;
    out = static_cast<M>(v.as_int());
    return true;
  } else if constexpr (std::is_integral_v<M>) {
    if (!v.is_uint()) return false;
    out = static_cast<M>(v.as_uint());
    return true;
  } else if constexpr (std::is_floating_point_v<M>) {
    if (!v.is_double()) return false;
    out = static_cast<M>(v.as_double());
    return true;
  } else if constexpr (std::is_same_v<M, std::string>) {
    if (!v.is_string()) return false;
    out = v.as_string();
    return true;
  } else if constexpr (is_std_vector<M>::value) {
    if constexpr (is_float_vector<M>::value) {
      if (v.is_f64_array()) {
        const F64Array& array = v.as_f64_array();
        out.assign(array.begin(), array.end());
        return true;
      }
    }
    if (!v.is_list()) return false;
    const auto& list = v.as_list();
    out.clear();
    out.reserve(list.size());
    for (const auto& e : list) {
      typename M::value_type elem{};
      if (!member_from_value(e, elem)) return false;
      out.push_back(std::move(elem));
    }
    return true;
  } else if constexpr (is_reflected_v<M>) {
    return from_value(v, out);
  } else {
    static_assert(sizeof(M) == 0, "unsupported field type");
  }
}

}  // namespace detail

// Struct -> dynamic Value.
template <typename T>
Value to_value(const T& obj) {
  static_assert(is_reflected_v<T>, "T must be MAREA_REFLECTed");
  ValueList fields;
  fields.reserve(Reflect<T>::kFieldCount);
  Reflect<T>::for_each_field([&](const char*, auto member_ptr) {
    fields.push_back(detail::member_to_value(obj.*member_ptr));
  });
  return Value::of_list(std::move(fields));
}

// Dynamic Value -> struct. Returns false on shape mismatch.
template <typename T>
bool from_value(const Value& v, T& out) {
  static_assert(is_reflected_v<T>, "T must be MAREA_REFLECTed");
  if (!v.is_list()) return false;
  const auto& list = v.as_list();
  size_t i = 0;
  bool ok = true;
  Reflect<T>::for_each_field([&](const char*, auto member_ptr) {
    if (!ok) return;
    if (i >= list.size()) {
      ok = false;
      return;
    }
    ok = detail::member_from_value(list[i++], out.*member_ptr);
  });
  return ok && i == list.size();
}

// One-shot wire helpers.
template <typename T>
StatusOr<Buffer> encode_struct(const T& obj) {
  return encode_value(to_value(obj), *descriptor_of<T>());
}

template <typename T>
StatusOr<T> decode_struct(BytesView data) {
  auto v = decode_value(data, *descriptor_of<T>());
  if (!v.ok()) return v.status();
  T out{};
  if (!from_value(*v, out)) {
    return data_loss_error("decoded value does not fit struct");
  }
  return out;
}

}  // namespace marea::enc

// --- MAREA_REFLECT macro machinery (up to 16 fields) ------------------------
#define MAREA_RFL_CAT(a, b) a##b
#define MAREA_RFL_NARGS(...)                                             \
  MAREA_RFL_NARGS_IMPL(__VA_ARGS__, 16, 15, 14, 13, 12, 11, 10, 9, 8, 7, \
                       6, 5, 4, 3, 2, 1)
#define MAREA_RFL_NARGS_IMPL(_1, _2, _3, _4, _5, _6, _7, _8, _9, _10, _11, \
                             _12, _13, _14, _15, _16, N, ...) N

#define MAREA_RFL_F1(T, f, x) f(#x, &T::x);
#define MAREA_RFL_F2(T, f, x, ...) f(#x, &T::x); MAREA_RFL_F1(T, f, __VA_ARGS__)
#define MAREA_RFL_F3(T, f, x, ...) f(#x, &T::x); MAREA_RFL_F2(T, f, __VA_ARGS__)
#define MAREA_RFL_F4(T, f, x, ...) f(#x, &T::x); MAREA_RFL_F3(T, f, __VA_ARGS__)
#define MAREA_RFL_F5(T, f, x, ...) f(#x, &T::x); MAREA_RFL_F4(T, f, __VA_ARGS__)
#define MAREA_RFL_F6(T, f, x, ...) f(#x, &T::x); MAREA_RFL_F5(T, f, __VA_ARGS__)
#define MAREA_RFL_F7(T, f, x, ...) f(#x, &T::x); MAREA_RFL_F6(T, f, __VA_ARGS__)
#define MAREA_RFL_F8(T, f, x, ...) f(#x, &T::x); MAREA_RFL_F7(T, f, __VA_ARGS__)
#define MAREA_RFL_F9(T, f, x, ...) f(#x, &T::x); MAREA_RFL_F8(T, f, __VA_ARGS__)
#define MAREA_RFL_F10(T, f, x, ...) f(#x, &T::x); MAREA_RFL_F9(T, f, __VA_ARGS__)
#define MAREA_RFL_F11(T, f, x, ...) f(#x, &T::x); MAREA_RFL_F10(T, f, __VA_ARGS__)
#define MAREA_RFL_F12(T, f, x, ...) f(#x, &T::x); MAREA_RFL_F11(T, f, __VA_ARGS__)
#define MAREA_RFL_F13(T, f, x, ...) f(#x, &T::x); MAREA_RFL_F12(T, f, __VA_ARGS__)
#define MAREA_RFL_F14(T, f, x, ...) f(#x, &T::x); MAREA_RFL_F13(T, f, __VA_ARGS__)
#define MAREA_RFL_F15(T, f, x, ...) f(#x, &T::x); MAREA_RFL_F14(T, f, __VA_ARGS__)
#define MAREA_RFL_F16(T, f, x, ...) f(#x, &T::x); MAREA_RFL_F15(T, f, __VA_ARGS__)
#define MAREA_RFL_DISPATCH(T, f, N, ...) \
  MAREA_RFL_CAT(MAREA_RFL_F, N)(T, f, __VA_ARGS__)
#define MAREA_RFL_FIELDS(T, f, N, ...) MAREA_RFL_DISPATCH(T, f, N, __VA_ARGS__)

// Place at namespace scope, after the struct definition.
#define MAREA_REFLECT(Type, ...)                                           \
  template <>                                                              \
  struct marea::enc::Reflect<Type> {                                       \
    static constexpr const char* kName = #Type;                            \
    static constexpr size_t kFieldCount = MAREA_RFL_NARGS(__VA_ARGS__);    \
    template <typename F>                                                  \
    static void for_each_field(F&& f) {                                    \
      MAREA_RFL_FIELDS(Type, f, MAREA_RFL_NARGS(__VA_ARGS__), __VA_ARGS__) \
    }                                                                      \
  };
