#include <gtest/gtest.h>

#include "encoding/codec.h"
#include "encoding/schema.h"
#include "encoding/type.h"
#include "encoding/typed.h"
#include "encoding/value.h"

namespace marea::enc {
namespace {

TypePtr position_type() {
  return TypeDescriptor::struct_of(
      "Position", {{"lat", f64_type()}, {"lon", f64_type()},
                   {"alt", f32_type()}});
}

// --- TypeDescriptor ----------------------------------------------------------

TEST(TypeTest, PrimitivesAreSingletons) {
  EXPECT_EQ(f64_type().get(), f64_type().get());
  EXPECT_EQ(f64_type()->kind(), TypeKind::kF64);
  EXPECT_TRUE(is_primitive(TypeKind::kString));
  EXPECT_FALSE(is_primitive(TypeKind::kStruct));
  EXPECT_FALSE(is_primitive(TypeKind::kArray));
}

TEST(TypeTest, StructuralHashIgnoresDisplayName) {
  auto a = TypeDescriptor::struct_of("A", {{"x", i32_type()}});
  auto b = TypeDescriptor::struct_of("B", {{"x", i32_type()}});
  auto c = TypeDescriptor::struct_of("A", {{"y", i32_type()}});
  EXPECT_EQ(a->structural_hash(), b->structural_hash());
  EXPECT_NE(a->structural_hash(), c->structural_hash());  // field name counts
}

TEST(TypeTest, HashDistinguishesKindsAndNesting) {
  EXPECT_NE(i32_type()->structural_hash(), u32_type()->structural_hash());
  auto arr = TypeDescriptor::array_of(i32_type());
  auto fixed = TypeDescriptor::array_of(i32_type(), 4);
  EXPECT_NE(arr->structural_hash(), fixed->structural_hash());
}

TEST(TypeTest, EqualIsDeepStructural) {
  auto a = position_type();
  auto b = position_type();
  EXPECT_TRUE(TypeDescriptor::equal(*a, *b));
  auto c = TypeDescriptor::struct_of(
      "Position", {{"lat", f64_type()}, {"lon", f64_type()},
                   {"alt", f64_type()}});
  EXPECT_FALSE(TypeDescriptor::equal(*a, *c));
}

TEST(TypeTest, ToStringReadable) {
  EXPECT_EQ(position_type()->to_string(),
            "struct Position { f64 lat; f64 lon; f32 alt; }");
  EXPECT_EQ(TypeDescriptor::array_of(u8_type(), 16)->to_string(), "u8[16]");
}

TEST(TypeTest, FieldIndex) {
  auto t = position_type();
  EXPECT_EQ(t->field_index("lon"), 1);
  EXPECT_EQ(t->field_index("nope"), -1);
}

TEST(TypeTest, DescriptorWireRoundTrip) {
  auto complex = TypeDescriptor::struct_of(
      "Outer",
      {{"pos", position_type()},
       {"tags", TypeDescriptor::array_of(string_type())},
       {"mode", TypeDescriptor::union_of(
                    "Mode", {{"idle", bool_type()}, {"speed", f64_type()}})}});
  ByteWriter w;
  complex->encode(w);
  ByteReader r(w.view());
  auto decoded = TypeDescriptor::decode(r);
  ASSERT_TRUE(decoded.ok());
  EXPECT_TRUE(TypeDescriptor::equal(*complex, **decoded));
  EXPECT_EQ(complex->structural_hash(), (*decoded)->structural_hash());
}

TEST(TypeTest, DescriptorDecodeRejectsGarbage) {
  Buffer garbage = {0xFF, 0x01, 0x02};
  ByteReader r(as_bytes_view(garbage));
  EXPECT_FALSE(TypeDescriptor::decode(r).ok());
}

TEST(TypeTest, DescriptorDecodeRejectsDeepNesting) {
  // array of array of array ... beyond max depth
  ByteWriter w;
  for (int i = 0; i < 64; ++i) {
    w.u8(static_cast<uint8_t>(TypeKind::kArray));
    w.varint(0);
  }
  w.u8(static_cast<uint8_t>(TypeKind::kBool));
  ByteReader r(w.view());
  EXPECT_FALSE(TypeDescriptor::decode(r).ok());
}

// --- Value / codec --------------------------------------------------------------

TEST(CodecTest, PrimitiveRoundTrips) {
  struct Case {
    Value value;
    TypePtr type;
  };
  std::vector<Case> cases;
  cases.push_back({Value::of_bool(true), bool_type()});
  cases.push_back({Value::of_int(-42), i8_type()});
  cases.push_back({Value::of_int(30000), i16_type()});
  cases.push_back({Value::of_int(-2000000000), i32_type()});
  cases.push_back({Value::of_int(INT64_MIN), i64_type()});
  cases.push_back({Value::of_uint(255), u8_type()});
  cases.push_back({Value::of_uint(UINT64_MAX), u64_type()});
  cases.push_back({Value::of_double(1.5), f32_type()});
  cases.push_back({Value::of_double(-3.14159), f64_type()});
  cases.push_back({Value::of_string("héllo"), string_type()});
  cases.push_back({Value::of_bytes({1, 2, 3}), bytes_type()});

  for (const auto& c : cases) {
    auto encoded = encode_value(c.value, *c.type);
    ASSERT_TRUE(encoded.ok()) << c.type->to_string();
    auto decoded = decode_value(as_bytes_view(*encoded), *c.type);
    ASSERT_TRUE(decoded.ok()) << c.type->to_string();
    EXPECT_EQ(*decoded, c.value) << c.type->to_string();
  }
}

TEST(CodecTest, StructRoundTrip) {
  auto type = position_type();
  Value v = StructBuilder()
                .add(Value::of_double(41.275))
                .add(Value::of_double(1.986))
                .add(Value::of_double(120.0))
                .build();
  auto encoded = encode_value(v, *type);
  ASSERT_TRUE(encoded.ok());
  auto decoded = decode_value(as_bytes_view(*encoded), *type);
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->as_list()[0].as_double(), 41.275);
  // f32 round-trips through float precision.
  EXPECT_FLOAT_EQ(static_cast<float>(decoded->as_list()[2].as_double()),
                  120.0f);
}

TEST(CodecTest, ArrayAndFixedArray) {
  auto var_arr = TypeDescriptor::array_of(i32_type());
  auto fix_arr = TypeDescriptor::array_of(i32_type(), 3);
  Value v = Value::of_list(
      {Value::of_int(1), Value::of_int(2), Value::of_int(3)});

  auto e1 = encode_value(v, *var_arr);
  auto e2 = encode_value(v, *fix_arr);
  ASSERT_TRUE(e1.ok());
  ASSERT_TRUE(e2.ok());
  EXPECT_EQ(e1->size(), e2->size() + 1);  // fixed saves the length prefix
  EXPECT_EQ(*decode_value(as_bytes_view(*e1), *var_arr), v);
  EXPECT_EQ(*decode_value(as_bytes_view(*e2), *fix_arr), v);

  Value wrong = Value::of_list({Value::of_int(1)});
  EXPECT_FALSE(encode_value(wrong, *fix_arr).ok());
}

TEST(CodecTest, UnionRoundTrip) {
  auto type = TypeDescriptor::union_of(
      "Cmd", {{"stop", bool_type()}, {"goto_alt", f64_type()}});
  Value v = Value::of_union(1, Value::of_double(250.0));
  auto encoded = encode_value(v, *type);
  ASSERT_TRUE(encoded.ok());
  auto decoded = decode_value(as_bytes_view(*encoded), *type);
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(*decoded, v);

  Value bad_case = Value::of_union(7, Value::of_bool(true));
  EXPECT_FALSE(encode_value(bad_case, *type).ok());
}

TEST(CodecTest, ShapeMismatchRejected) {
  EXPECT_FALSE(encode_value(Value::of_int(1), *bool_type()).ok());
  EXPECT_FALSE(encode_value(Value::of_string("x"), *f64_type()).ok());
  EXPECT_FALSE(
      encode_value(Value::of_int(300), *i8_type()).ok());  // out of range
  EXPECT_FALSE(encode_value(Value::of_uint(70000), *u16_type()).ok());
}

TEST(CodecTest, DecodeRejectsTrailingBytes) {
  auto encoded = encode_value(Value::of_int(5), *i32_type());
  ASSERT_TRUE(encoded.ok());
  encoded->push_back(0);
  EXPECT_FALSE(decode_value(as_bytes_view(*encoded), *i32_type()).ok());
}

TEST(CodecTest, DecodeRejectsTruncation) {
  auto type = position_type();
  Value v = StructBuilder()
                .add(Value::of_double(1))
                .add(Value::of_double(2))
                .add(Value::of_double(3))
                .build();
  auto encoded = encode_value(v, *type);
  ASSERT_TRUE(encoded.ok());
  for (size_t cut = 0; cut < encoded->size(); ++cut) {
    BytesView partial(encoded->data(), cut);
    EXPECT_FALSE(decode_value(partial, *type).ok()) << cut;
  }
}

// Publishers validate by encoding: the shape check is the encode itself.
TEST(CodecTest, ValidateMatchesEncode) {
  EXPECT_TRUE(encode_value(Value::of_double(1.0), *f64_type()).ok());
  EXPECT_FALSE(encode_value(Value::of_double(1.0), *i32_type()).ok());
}

// --- tagged (self-describing) codec ------------------------------------------

TEST(TaggedCodecTest, RoundTripsEveryShape) {
  std::vector<Value> values = {
      Value::of_bool(false),
      Value::of_int(-77),
      Value::of_uint(12345678901234ull),
      Value::of_double(2.71828),
      Value::of_string("tagged"),
      Value::of_bytes({9, 8, 7}),
      Value::of_list({Value::of_int(1), Value::of_string("two"),
                      Value::of_list({Value::of_bool(true)})}),
      Value::of_union(3, Value::of_string("case3")),
  };
  for (const auto& v : values) {
    Buffer wire = encode_tagged(v);
    auto back = decode_tagged(as_bytes_view(wire));
    ASSERT_TRUE(back.ok()) << v.to_string();
    EXPECT_EQ(*back, v) << v.to_string();
  }
}

TEST(TaggedCodecTest, RejectsGarbageAndTruncation) {
  Buffer garbage = {0xEE};
  EXPECT_FALSE(decode_tagged(as_bytes_view(garbage)).ok());
  Buffer wire = encode_tagged(Value::of_string("hello"));
  BytesView cut(wire.data(), wire.size() - 2);
  EXPECT_FALSE(decode_tagged(cut).ok());
}

TEST(TaggedCodecTest, RejectsDeepNesting) {
  Value v = Value::of_int(1);
  for (int i = 0; i < 64; ++i) v = Value::of_list({std::move(v)});
  Buffer wire = encode_tagged(v);
  EXPECT_FALSE(decode_tagged(as_bytes_view(wire)).ok());
}

// --- packed f32/f64 arrays ------------------------------------------------------

Value double_list(std::initializer_list<double> values) {
  ValueList list;
  for (double v : values) list.push_back(Value::of_double(v));
  return Value::of_list(std::move(list));
}

TEST(PackedArrayTest, EncodesLikeListAndDecodesPacked) {
  // Exact in f32 too, so every element type round-trips them.
  const Value packed = Value::of_f64_array({1.5, -2.25, 8.0});
  const Value list = double_list({1.5, -2.25, 8.0});
  for (const TypePtr& type :
       {TypeDescriptor::array_of(f64_type()),
        TypeDescriptor::array_of(f64_type(), 3),
        TypeDescriptor::array_of(f32_type()),
        TypeDescriptor::array_of(f32_type(), 3)}) {
    auto from_list = encode_value(list, *type);
    auto from_packed = encode_value(packed, *type);
    ASSERT_TRUE(from_list.ok()) << type->to_string();
    ASSERT_TRUE(from_packed.ok()) << type->to_string();
    EXPECT_EQ(*from_list, *from_packed) << type->to_string();
    auto back = decode_value(as_bytes_view(*from_list), *type);
    ASSERT_TRUE(back.ok()) << type->to_string();
    EXPECT_TRUE(back->is_f64_array()) << type->to_string();
    EXPECT_EQ(*back, list) << type->to_string();
  }
  // Empty arrays too.
  const auto var = TypeDescriptor::array_of(f64_type());
  EXPECT_EQ(*encode_value(Value::of_f64_array({}), *var),
            *encode_value(Value::of_list({}), *var));
}

TEST(PackedArrayTest, ShapeChecksMatchTheListForm) {
  const Value packed = Value::of_f64_array({1.0, 2.0});
  EXPECT_FALSE(
      encode_value(packed, *TypeDescriptor::array_of(i32_type())).ok());
  EXPECT_FALSE(encode_value(packed, *f64_type()).ok());
  EXPECT_FALSE(
      encode_value(packed, *TypeDescriptor::array_of(f64_type(), 3)).ok());
  EXPECT_TRUE(
      encode_value(packed, *TypeDescriptor::array_of(f64_type(), 2)).ok());
}

TEST(PackedArrayTest, ForgedLengthIsDataLossBeforeAllocating) {
  for (const TypePtr& elem : {f64_type(), f32_type()}) {
    const auto type = TypeDescriptor::array_of(elem);
    ByteWriter w;
    w.varint(uint64_t{1} << 40);
    w.f64(1.0);
    auto fresh = decode_value(w.view(), *type);
    ASSERT_FALSE(fresh.ok());
    EXPECT_EQ(fresh.status().code(), StatusCode::kDataLoss);
    Value reused = Value::of_f64_array({1, 2, 3});
    EXPECT_EQ(decode_value_into(w.view(), *type, reused).code(),
              StatusCode::kDataLoss);
  }
}

TEST(PackedArrayTest, TruncationAtEveryOffsetIsDataLoss) {
  F64Array values(128);
  for (size_t i = 0; i < values.size(); ++i) {
    values[i] = static_cast<double>(i) * 0.5 - 17;
  }
  for (const TypePtr& type : {TypeDescriptor::array_of(f64_type()),
                              TypeDescriptor::array_of(f64_type(), 128)}) {
    const Buffer wire = *encode_value(Value::of_f64_array(values), *type);
    Value reused;
    for (size_t cut = 0; cut < wire.size(); ++cut) {
      BytesView partial(wire.data(), cut);
      auto fresh = decode_value(partial, *type);
      ASSERT_FALSE(fresh.ok()) << cut;
      EXPECT_EQ(fresh.status().code(), StatusCode::kDataLoss) << cut;
      EXPECT_EQ(decode_value_into(partial, *type, reused).code(),
                StatusCode::kDataLoss)
          << cut;
    }
    ASSERT_TRUE(decode_value_into(as_bytes_view(wire), *type, reused).is_ok());
    EXPECT_EQ(reused.as_f64_array(), values);
  }
}

TEST(PackedArrayTest, TaggedBytesMatchTheListForm) {
  F64Array values;
  for (int i = 0; i < 200; ++i) values.push_back(i * 1.25 - 3);
  ValueList list;
  for (double v : values) list.push_back(Value::of_double(v));
  const Value packed = Value::of_f64_array(values);
  const Buffer wire = encode_tagged(packed);
  EXPECT_EQ(wire, encode_tagged(Value::of_list(list)));
  // After other bytes in the writer, and nested.
  ByteWriter a;
  a.str("prefix");
  encode_tagged(StructBuilder().add(Value::of_uint(9)).add(packed).build(), a);
  ByteWriter b;
  b.str("prefix");
  encode_tagged(
      StructBuilder().add(Value::of_uint(9)).add(Value::of_list(list)).build(),
      b);
  EXPECT_EQ(a.buffer(), b.buffer());
  EXPECT_EQ(encode_tagged(Value::of_f64_array({})),
            encode_tagged(Value::of_list({})));
  // decode_tagged gives the list form, which still equals the packed one.
  auto back = decode_tagged(as_bytes_view(wire));
  ASSERT_TRUE(back.ok());
  EXPECT_TRUE(back->is_list());
  EXPECT_EQ(*back, packed);
}

TEST(PackedArrayTest, EqualityAcrossForms) {
  const Value packed = Value::of_f64_array({1.0, 2.0});
  EXPECT_EQ(packed, double_list({1.0, 2.0}));
  EXPECT_EQ(double_list({1.0, 2.0}), packed);
  EXPECT_EQ(Value::of_f64_array({}), Value::of_list({}));
  EXPECT_FALSE(packed == double_list({1.0, 3.0}));
  EXPECT_FALSE(double_list({1.0}) == packed);
  EXPECT_FALSE(packed ==
               Value::of_list({Value::of_double(1.0), Value::of_int(2)}));
  EXPECT_FALSE(packed == Value::of_double(1.0));
  // Nested in either direction.
  const Value nested_list = double_list({1, 2});
  EXPECT_EQ(StructBuilder().add(Value::of_int(1)).add(packed).build(),
            StructBuilder().add(Value::of_int(1)).add(nested_list).build());
  EXPECT_EQ(Value::of_union(2, nested_list), Value::of_union(2, packed));
}

TEST(PackedArrayTest, ToStringIsTheSameForBothForms) {
  EXPECT_EQ(Value::of_f64_array({1.5, -2, 1e300}).to_string(),
            double_list({1.5, -2, 1e300}).to_string());
  EXPECT_EQ(Value::of_f64_array({1.5, -2}).to_string(), "{1.5, -2}");
  EXPECT_EQ(Value::of_f64_array({}).to_string(), "{}");
}

// --- schema registry ------------------------------------------------------------

TEST(SchemaTest, AddFindHash) {
  SchemaRegistry reg;
  ASSERT_TRUE(reg.add("pos", position_type()).is_ok());
  ASSERT_TRUE(reg.find("pos").has_value());
  EXPECT_EQ(reg.hash_of("pos"), position_type()->structural_hash());
  EXPECT_EQ(reg.hash_of("missing"), 0u);
}

TEST(SchemaTest, IdempotentReRegistration) {
  SchemaRegistry reg;
  ASSERT_TRUE(reg.add("pos", position_type()).is_ok());
  EXPECT_TRUE(reg.add("pos", position_type()).is_ok());
  EXPECT_EQ(reg.size(), 1u);
  EXPECT_EQ(
      reg.add("pos", TypeDescriptor::struct_of("X", {{"a", i8_type()}}))
          .code(),
      StatusCode::kAlreadyExists);
}

TEST(SchemaTest, Compatibility) {
  SchemaRegistry reg;
  (void)reg.add("pos", position_type());
  EXPECT_TRUE(reg.compatible("pos", position_type()->structural_hash()));
  EXPECT_FALSE(reg.compatible("pos", 0xDEAD));
  EXPECT_TRUE(reg.compatible("unknown", 0xDEAD));  // unknown = permissive
}

// --- typed reflection -------------------------------------------------------------

struct Inner {
  int32_t a = 0;
  std::string b;
};
struct Outer {
  bool flag = false;
  double x = 0;
  std::vector<int32_t> values;
  std::vector<uint8_t> raw;
  Inner inner;
  std::vector<Inner> inners;
};
struct Samples {
  std::vector<float> f;
  std::vector<double> d;
  std::vector<std::vector<double>> rows;
};

}  // namespace
}  // namespace marea::enc

MAREA_REFLECT(marea::enc::Inner, a, b)
MAREA_REFLECT(marea::enc::Outer, flag, x, values, raw, inner, inners)
MAREA_REFLECT(marea::enc::Samples, f, d, rows)

namespace marea::enc {
namespace {

TEST(TypedTest, DescriptorShape) {
  const auto& d = *descriptor_of<Outer>();
  EXPECT_EQ(d.kind(), TypeKind::kStruct);
  EXPECT_EQ(d.name(), "marea::enc::Outer");
  ASSERT_EQ(d.fields().size(), 6u);
  EXPECT_EQ(d.fields()[0].name, "flag");
  EXPECT_EQ(d.fields()[2].type->kind(), TypeKind::kArray);
  EXPECT_EQ(d.fields()[3].type->kind(), TypeKind::kBytes);
  EXPECT_EQ(d.fields()[4].type->kind(), TypeKind::kStruct);
}

TEST(TypedTest, StructWireRoundTrip) {
  Outer o;
  o.flag = true;
  o.x = 9.75;
  o.values = {1, -2, 3};
  o.raw = {0xde, 0xad};
  o.inner = {7, "seven"};
  o.inners = {{1, "one"}, {2, "two"}};

  auto wire = encode_struct(o);
  ASSERT_TRUE(wire.ok());
  auto back = decode_struct<Outer>(as_bytes_view(*wire));
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back->flag, o.flag);
  EXPECT_EQ(back->x, o.x);
  EXPECT_EQ(back->values, o.values);
  EXPECT_EQ(back->raw, o.raw);
  EXPECT_EQ(back->inner.a, 7);
  EXPECT_EQ(back->inner.b, "seven");
  ASSERT_EQ(back->inners.size(), 2u);
  EXPECT_EQ(back->inners[1].b, "two");
}

TEST(TypedTest, FromValueRejectsWrongShape) {
  Inner i;
  EXPECT_FALSE(from_value(Value::of_int(3), i));
  EXPECT_FALSE(from_value(Value::of_list({Value::of_int(1)}), i));  // missing b
  EXPECT_FALSE(from_value(
      Value::of_list({Value::of_string("x"), Value::of_string("y")}), i));
  EXPECT_TRUE(from_value(
      Value::of_list({Value::of_int(1), Value::of_string("y")}), i));
}

TEST(TypedTest, FloatVectorsUseThePackedForm) {
  Samples s;
  s.f = {0.5f, -1.25f, 3.0e6f};
  s.d = {0.1, 2.0, -3.5e200};
  s.rows = {{1.0}, {}, {2.0, 3.0}};
  const Value v = to_value(s);
  EXPECT_TRUE(v.as_list()[0].is_f64_array());
  EXPECT_TRUE(v.as_list()[1].is_f64_array());
  EXPECT_TRUE(v.as_list()[2].as_list()[2].is_f64_array());

  auto wire = encode_struct(s);
  ASSERT_TRUE(wire.ok());
  auto back = decode_struct<Samples>(as_bytes_view(*wire));
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back->f, s.f);
  EXPECT_EQ(back->d, s.d);
  EXPECT_EQ(back->rows, s.rows);
}

TEST(TypedTest, FromValueFloatVectorsAcceptBothForms) {
  const auto list = [](std::initializer_list<double> values) {
    ValueList l;
    for (double v : values) l.push_back(Value::of_double(v));
    return Value::of_list(std::move(l));
  };
  const Value empty_rows = Value::of_list({});
  Samples out;
  ASSERT_TRUE(from_value(Value::of_list({list({0.5, 2}), list({0.25}),
                                         empty_rows}),
                         out));
  EXPECT_EQ(out.f, (std::vector<float>{0.5f, 2.0f}));
  EXPECT_EQ(out.d, (std::vector<double>{0.25}));
  ASSERT_TRUE(from_value(
      Value::of_list({Value::of_f64_array({1.5}), Value::of_f64_array({4, 5}),
                      Value::of_list({Value::of_f64_array({6})})}),
      out));
  EXPECT_EQ(out.f, (std::vector<float>{1.5f}));
  EXPECT_EQ(out.d, (std::vector<double>{4, 5}));
  EXPECT_EQ(out.rows, (std::vector<std::vector<double>>{{6}}));

  // A non-double element is a shape mismatch for either vector type.
  const Value int_elem = Value::of_list({Value::of_int(1)});
  EXPECT_FALSE(from_value(
      Value::of_list({int_elem, list({1}), empty_rows}), out));
  EXPECT_FALSE(from_value(
      Value::of_list({list({1}), int_elem, empty_rows}), out));
  // A packed array is no match for a vector of another element type.
  Outer o;
  Value outer = to_value(o);
  ValueList fields = outer.as_list();
  fields[2] = Value::of_f64_array({1});
  EXPECT_FALSE(from_value(Value::of_list(fields), o));
}

TEST(TypedTest, DecodeStructRejectsCorruptWire) {
  Outer o;
  o.values = {1, 2, 3};
  auto wire = encode_struct(o);
  ASSERT_TRUE(wire.ok());
  wire->resize(wire->size() / 2);
  EXPECT_FALSE(decode_struct<Outer>(as_bytes_view(*wire)).ok());
}

}  // namespace
}  // namespace marea::enc
