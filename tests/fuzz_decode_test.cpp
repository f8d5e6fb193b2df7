// Decoder hardening: every wire decoder must be total — random garbage,
// truncations and bit flips may fail, but must never crash, hang, or
// allocate absurd amounts. Seeded pseudo-fuzz (deterministic, so a failure
// reproduces), parameterized over seeds.
#include <gtest/gtest.h>

#include "encoding/codec.h"
#include "encoding/type.h"
#include "frame_forge.h"
#include "protocol/frame.h"
#include "protocol/messages.h"
#include "services/image.h"
#include "services/telemetry_service.h"
#include "util/rle.h"
#include "util/rng.h"

namespace marea {
namespace {

Buffer random_bytes(Rng& rng, size_t max_len) {
  Buffer b(rng.uniform(0, max_len));
  for (auto& byte : b) byte = static_cast<uint8_t>(rng.next_u64());
  return b;
}

// Exercise every decoder against one blob; assert only "no crash".
void feed_all_decoders(BytesView data) {
  {
    ByteReader r(data);
    proto::ContainerHelloMsg m;
    (void)proto::ContainerHelloMsg::decode(r, m);
  }
  {
    ByteReader r(data);
    proto::HeartbeatMsg m;
    (void)proto::HeartbeatMsg::decode(r, m);
  }
  {
    ByteReader r(data);
    proto::VarSampleMsg m;
    (void)proto::VarSampleMsg::decode(r, m);
  }
  {
    ByteReader r(data);
    proto::ReliableDataMsg m;
    (void)proto::ReliableDataMsg::decode(r, m);
  }
  {
    ByteReader r(data);
    proto::ReliableAckMsg m;
    (void)proto::ReliableAckMsg::decode(r, m);
  }
  {
    ByteReader r(data);
    proto::FileChunkMsg m;
    (void)proto::FileChunkMsg::decode(r, m);
  }
  {
    ByteReader r(data);
    proto::FileNackMsg m;
    (void)proto::FileNackMsg::decode(r, m);
  }
  {
    ByteReader r(data);
    proto::RpcRequestMsg m;
    (void)proto::RpcRequestMsg::decode(r, m);
  }
  {
    ByteReader r(data);
    RunSet s;
    (void)RunSet::decode(r, s);
  }
  (void)proto::open_frame(data, nullptr);
  (void)enc::decode_tagged(data);
  {
    ByteReader r(data);
    (void)enc::TypeDescriptor::decode(r);
  }
  auto pos_type = enc::TypeDescriptor::struct_of(
      "P", {{"lat", enc::f64_type()},
            {"tags", enc::TypeDescriptor::array_of(enc::string_type())}});
  (void)enc::decode_value(data, *pos_type);
  (void)services::Image::deserialize(data);
  (void)services::decode_telemetry(data);
}

class FuzzDecodeTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(FuzzDecodeTest, RandomGarbageNeverCrashes) {
  Rng rng(GetParam());
  for (int i = 0; i < 500; ++i) {
    Buffer blob = random_bytes(rng, 512);
    feed_all_decoders(as_bytes_view(blob));
  }
  SUCCEED();
}

TEST_P(FuzzDecodeTest, MutatedValidFramesNeverCrash) {
  Rng rng(GetParam() ^ 0xF00D);
  // Start from valid frames of several types, then flip bits / truncate.
  std::vector<Buffer> seeds;
  FramePool pool;
  auto seed = [&](proto::MsgType type, const auto& msg) {
    seeds.push_back(
        to_buffer(testutil::forge_frame(pool, type, 1, msg).view()));
  };
  {
    proto::ContainerHelloMsg hello;
    hello.incarnation = 1;
    hello.data_port = 4500;
    hello.node_name = "x";
    proto::ServiceInfo svc;
    svc.name = "s";
    svc.items.push_back(proto::ProvidedItem{proto::ItemKind::kVariable,
                                            "v", 1, 2, 3});
    hello.services.push_back(svc);
    seed(proto::MsgType::kContainerHello, hello);
  }
  seed(proto::MsgType::kHelloRequest, proto::HelloRequestMsg{});
  {
    proto::VarSampleMsg sample;
    sample.channel = 7;
    sample.seq = 9;
    sample.value = Buffer(64, 0xAA);
    seed(proto::MsgType::kVarSample, sample);
  }
  {
    proto::FileNackMsg nack;
    nack.transfer_id = 5;
    nack.revision = 1;
    nack.missing.insert_run(0, 100);
    nack.missing.insert_run(500, 32);
    seed(proto::MsgType::kFileNack, nack);
  }

  for (int round = 0; round < 300; ++round) {
    Buffer mutated = seeds[rng.uniform(0, seeds.size() - 1)];
    int flips = static_cast<int>(rng.uniform(1, 8));
    for (int f = 0; f < flips && !mutated.empty(); ++f) {
      mutated[rng.uniform(0, mutated.size() - 1)] ^=
          static_cast<uint8_t>(1u << rng.uniform(0, 7));
    }
    if (rng.bernoulli(0.3) && !mutated.empty()) {
      mutated.resize(rng.uniform(0, mutated.size() - 1));
    }
    // The frame layer sees it first (CRC normally rejects)...
    BytesView payload;
    auto header = proto::open_frame(as_bytes_view(mutated), &payload);
    // ...but decoders must hold up even if fed directly.
    feed_all_decoders(as_bytes_view(mutated));
    if (header.ok()) feed_all_decoders(payload);
  }
  SUCCEED();
}

TEST_P(FuzzDecodeTest, TaggedValueRoundTripUnderRandomShapes) {
  Rng rng(GetParam() ^ 0xBEEF);
  // Generate random Values, encode, decode, compare (structural fuzz).
  std::function<enc::Value(int)> gen = [&](int depth) -> enc::Value {
    uint64_t pick = rng.uniform(0, depth > 3 ? 5 : 7);
    switch (pick) {
      case 0: return enc::Value::of_bool(rng.bernoulli(0.5));
      case 1: return enc::Value::of_int(static_cast<int64_t>(rng.next_u64()));
      case 2: return enc::Value::of_uint(rng.next_u64());
      case 3: return enc::Value::of_double(rng.uniform_real(-1e9, 1e9));
      case 4: {
        std::string s;
        for (uint64_t i = rng.uniform(0, 12); i > 0; --i) {
          s.push_back(static_cast<char>(rng.uniform(32, 126)));
        }
        return enc::Value::of_string(std::move(s));
      }
      case 5: {
        Buffer b(rng.uniform(0, 16));
        for (auto& byte : b) byte = static_cast<uint8_t>(rng.next_u64());
        return enc::Value::of_bytes(std::move(b));
      }
      case 6: {
        enc::ValueList list;
        for (uint64_t i = rng.uniform(0, 4); i > 0; --i) {
          list.push_back(gen(depth + 1));
        }
        return enc::Value::of_list(std::move(list));
      }
      default:
        return enc::Value::of_union(
            static_cast<uint32_t>(rng.uniform(0, 3)), gen(depth + 1));
    }
  };
  for (int i = 0; i < 200; ++i) {
    enc::Value v = gen(0);
    Buffer wire = enc::encode_tagged(v);
    auto back = enc::decode_tagged(as_bytes_view(wire));
    ASSERT_TRUE(back.ok());
    EXPECT_EQ(*back, v);
  }
}

// --- descriptor-shaped decode into a reused Value ---------------------------

enc::TypePtr random_type(Rng& rng, int depth) {
  // Kinds 0..12 are the primitives (bool .. bytes); deeper levels stop
  // nesting so shapes stay small.
  const uint64_t pick = rng.uniform(0, depth >= 3 ? 12 : 15);
  if (pick <= static_cast<uint64_t>(enc::TypeKind::kBytes)) {
    return enc::TypeDescriptor::primitive(static_cast<enc::TypeKind>(pick));
  }
  if (pick == 13) {
    const auto fixed = static_cast<uint32_t>(
        rng.bernoulli(0.3) ? rng.uniform(1, 4) : 0);
    return enc::TypeDescriptor::array_of(random_type(rng, depth + 1), fixed);
  }
  std::vector<enc::Field> fields;
  for (uint64_t i = rng.uniform(1, 4); i > 0; --i) {
    fields.push_back({"f" + std::to_string(fields.size()),
                      random_type(rng, depth + 1)});
  }
  return pick == 14 ? enc::TypeDescriptor::struct_of("S", std::move(fields))
                    : enc::TypeDescriptor::union_of("U", std::move(fields));
}

bool is_float_array(const enc::TypeDescriptor& type) {
  return type.kind() == enc::TypeKind::kArray &&
         (type.element()->kind() == enc::TypeKind::kF32 ||
          type.element()->kind() == enc::TypeKind::kF64);
}

enc::Value random_value(Rng& rng, const enc::TypeDescriptor& type) {
  using enc::TypeKind;
  using enc::Value;
  switch (type.kind()) {
    case TypeKind::kBool: return Value::of_bool(rng.bernoulli(0.5));
    case TypeKind::kI8: return Value::of_int(static_cast<int8_t>(rng.next_u64()));
    case TypeKind::kI16:
      return Value::of_int(static_cast<int16_t>(rng.next_u64()));
    case TypeKind::kI32:
      return Value::of_int(static_cast<int32_t>(rng.next_u64()));
    case TypeKind::kI64:
      return Value::of_int(static_cast<int64_t>(rng.next_u64()));
    case TypeKind::kU8:
      return Value::of_uint(static_cast<uint8_t>(rng.next_u64()));
    case TypeKind::kU16:
      return Value::of_uint(static_cast<uint16_t>(rng.next_u64()));
    case TypeKind::kU32:
      return Value::of_uint(static_cast<uint32_t>(rng.next_u64()));
    case TypeKind::kU64: return Value::of_uint(rng.next_u64());
    case TypeKind::kF32:
      return Value::of_double(
          static_cast<float>(rng.uniform_real(-1e6, 1e6)));
    case TypeKind::kF64: return Value::of_double(rng.uniform_real(-1e9, 1e9));
    case TypeKind::kString: {
      // Up to 40 chars: past the small-string buffer, so reuse matters.
      std::string s(rng.uniform(0, 40), ' ');
      for (char& c : s) c = static_cast<char>(rng.uniform(32, 126));
      return Value::of_string(std::move(s));
    }
    case TypeKind::kBytes: return Value::of_bytes(random_bytes(rng, 40));
    case TypeKind::kArray: {
      const uint64_t n =
          type.fixed_size() ? type.fixed_size() : rng.uniform(0, 6);
      // An f32/f64 array takes either of its two forms.
      if (is_float_array(type) && rng.bernoulli(0.5)) {
        enc::F64Array array;
        for (uint64_t i = 0; i < n; ++i) {
          array.push_back(random_value(rng, *type.element()).as_double());
        }
        return Value::of_f64_array(std::move(array));
      }
      enc::ValueList list;
      for (uint64_t i = 0; i < n; ++i) {
        list.push_back(random_value(rng, *type.element()));
      }
      return Value::of_list(std::move(list));
    }
    case TypeKind::kStruct: {
      enc::ValueList list;
      for (const auto& f : type.fields()) {
        list.push_back(random_value(rng, *f.type));
      }
      return Value::of_list(std::move(list));
    }
    case TypeKind::kUnion: {
      const uint64_t c = rng.uniform(0, type.fields().size() - 1);
      return Value::of_union(static_cast<uint32_t>(c),
                             random_value(rng, *type.fields()[c].type));
    }
  }
  return Value();
}

// decode_value_into must give exactly what decode_value gives, whatever
// tree the target held before: a different shape (the previous round's
// type), or the same type with longer/shorter arrays, other union cases
// and other string lengths. On damaged input both decoders must agree
// on rejecting it, and agree on the result when it still parses.
TEST_P(FuzzDecodeTest, DecodeIntoReusedValueMatchesFreshDecode) {
  Rng rng(GetParam() ^ 0xD1CE);
  enc::Value reused;
  for (int round = 0; round < 300; ++round) {
    const enc::TypePtr type = random_type(rng, 0);
    for (int rep = 0; rep < 3; ++rep) {
      const enc::Value v = random_value(rng, *type);
      auto wire = enc::encode_value(v, *type);
      ASSERT_TRUE(wire.ok()) << type->to_string();
      auto fresh = enc::decode_value(as_bytes_view(*wire), *type);
      ASSERT_TRUE(fresh.ok());
      EXPECT_EQ(*fresh, v);
      ASSERT_TRUE(
          enc::decode_value_into(as_bytes_view(*wire), *type, reused).is_ok());
      EXPECT_EQ(reused, v) << type->to_string();

      Buffer bad = *wire;
      if (!bad.empty() && rng.bernoulli(0.5)) {
        bad[rng.uniform(0, bad.size() - 1)] ^=
            static_cast<uint8_t>(1u << rng.uniform(0, 7));
      }
      if (rng.bernoulli(0.5)) {
        bad.resize(bad.empty() ? 0 : rng.uniform(0, bad.size() - 1));
      } else {
        bad.push_back(0);  // trailing byte
      }
      auto fresh_bad = enc::decode_value(as_bytes_view(bad), *type);
      Status into_bad =
          enc::decode_value_into(as_bytes_view(bad), *type, reused);
      ASSERT_EQ(fresh_bad.ok(), into_bad.is_ok()) << type->to_string();
      if (fresh_bad.ok()) {
        EXPECT_EQ(reused, *fresh_bad);
      }
    }
    Buffer garbage = random_bytes(rng, 64);
    EXPECT_EQ(enc::decode_value(as_bytes_view(garbage), *type).ok(),
              enc::decode_value_into(as_bytes_view(garbage), *type, reused)
                  .is_ok());
  }
}

// --- the two forms of an f32/f64 array ---------------------------------------

// Shapes with f32/f64 arrays wherever the packed form can sit: at the
// top, fixed-size, and inside arrays, structs and unions (next to fields
// of any other type).
enc::TypePtr random_float_array_shape(Rng& rng, int depth) {
  const uint64_t pick = rng.uniform(0, depth >= 2 ? 1 : 4);
  if (pick <= 1) {
    const auto fixed = static_cast<uint32_t>(
        rng.bernoulli(0.3) ? rng.uniform(1, 4) : 0);
    return enc::TypeDescriptor::array_of(
        pick == 0 ? enc::f64_type() : enc::f32_type(), fixed);
  }
  if (pick == 2) {
    return enc::TypeDescriptor::array_of(
        random_float_array_shape(rng, depth + 1),
        static_cast<uint32_t>(rng.bernoulli(0.3) ? rng.uniform(1, 3) : 0));
  }
  std::vector<enc::Field> fields;
  for (uint64_t i = rng.uniform(1, 4); i > 0; --i) {
    fields.push_back({"f" + std::to_string(fields.size()),
                      rng.bernoulli(0.6)
                          ? random_float_array_shape(rng, depth + 1)
                          : random_type(rng, 3)});
  }
  return pick == 3 ? enc::TypeDescriptor::struct_of("S", std::move(fields))
                   : enc::TypeDescriptor::union_of("U", std::move(fields));
}

// `v` (of `type`) with every f32/f64 array rewritten into one form:
// packed, or a ValueList of doubles.
enc::Value with_float_arrays(const enc::Value& v,
                             const enc::TypeDescriptor& type, bool packed) {
  using enc::Value;
  if (is_float_array(type)) {
    enc::F64Array array;
    if (v.is_f64_array()) {
      array = v.as_f64_array();
    } else {
      for (const Value& e : v.as_list()) array.push_back(e.as_double());
    }
    if (packed) return Value::of_f64_array(std::move(array));
    enc::ValueList list;
    for (double d : array) list.push_back(Value::of_double(d));
    return Value::of_list(std::move(list));
  }
  switch (type.kind()) {
    case enc::TypeKind::kArray: {
      enc::ValueList list;
      for (const Value& e : v.as_list()) {
        list.push_back(with_float_arrays(e, *type.element(), packed));
      }
      return Value::of_list(std::move(list));
    }
    case enc::TypeKind::kStruct: {
      enc::ValueList list;
      for (size_t i = 0; i < type.fields().size(); ++i) {
        list.push_back(
            with_float_arrays(v.as_list()[i], *type.fields()[i].type, packed));
      }
      return Value::of_list(std::move(list));
    }
    case enc::TypeKind::kUnion: {
      const auto& u = v.as_union();
      return Value::of_union(
          u.case_index,
          with_float_arrays(*u.value, *type.fields()[u.case_index].type,
                            packed));
    }
    default:
      return v;
  }
}

// True when every f32/f64 array in `v` (of `type`) is packed.
bool float_arrays_packed(const enc::Value& v, const enc::TypeDescriptor& type) {
  if (is_float_array(type)) return v.is_f64_array();
  switch (type.kind()) {
    case enc::TypeKind::kArray:
      for (const enc::Value& e : v.as_list()) {
        if (!float_arrays_packed(e, *type.element())) return false;
      }
      return true;
    case enc::TypeKind::kStruct:
      for (size_t i = 0; i < type.fields().size(); ++i) {
        if (!float_arrays_packed(v.as_list()[i], *type.fields()[i].type)) {
          return false;
        }
      }
      return true;
    case enc::TypeKind::kUnion:
      return float_arrays_packed(
          *v.as_union().value,
          *type.fields()[v.as_union().case_index].type);
    default:
      return true;
  }
}

// Packed and ValueList forms of the same arrays are one value: identical
// binary and tagged bytes, equal both ways, and decode yields the packed
// form whichever form was encoded.
TEST_P(FuzzDecodeTest, PackedAndListFloatArraysAreOneValue) {
  Rng rng(GetParam() ^ 0xF64A);
  for (int round = 0; round < 300; ++round) {
    const enc::TypePtr type = random_float_array_shape(rng, 0);
    const enc::Value v = random_value(rng, *type);
    const enc::Value packed = with_float_arrays(v, *type, true);
    const enc::Value list = with_float_arrays(v, *type, false);
    ASSERT_TRUE(float_arrays_packed(packed, *type)) << type->to_string();
    EXPECT_TRUE(packed == list) << type->to_string();
    EXPECT_TRUE(list == packed) << type->to_string();
    EXPECT_EQ(packed.to_string(), list.to_string());

    auto packed_wire = enc::encode_value(packed, *type);
    auto list_wire = enc::encode_value(list, *type);
    ASSERT_TRUE(packed_wire.ok()) << type->to_string();
    ASSERT_TRUE(list_wire.ok()) << type->to_string();
    EXPECT_EQ(*packed_wire, *list_wire) << type->to_string();
    EXPECT_EQ(enc::encode_tagged(packed), enc::encode_tagged(list))
        << type->to_string();

    auto back = enc::decode_value(as_bytes_view(*list_wire), *type);
    ASSERT_TRUE(back.ok()) << type->to_string();
    EXPECT_TRUE(float_arrays_packed(*back, *type)) << type->to_string();
    EXPECT_TRUE(*back == list && list == *back) << type->to_string();
    EXPECT_TRUE(*back == packed && packed == *back) << type->to_string();
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FuzzDecodeTest,
                         ::testing::Values(1, 7, 42, 1234, 987654321));

TEST(DecodeIntoTest, RefillsDirtyValueAndNeverWritesThroughSharedPayload) {
  using enc::Value;
  const auto type = enc::TypeDescriptor::struct_of(
      "T", {{"tags", enc::TypeDescriptor::array_of(enc::string_type())},
            {"pick", enc::TypeDescriptor::union_of(
                         "Pick", {{"num", enc::f64_type()},
                                  {"text", enc::string_type()}})}});
  const std::string long_text(64, 'x');
  const Value big = enc::StructBuilder()
                        .add(Value::of_list({Value::of_string(long_text),
                                             Value::of_string(long_text),
                                             Value::of_string(long_text)}))
                        .add(Value::of_union(1, Value::of_string(long_text)))
                        .build();
  const Value small = enc::StructBuilder()
                          .add(Value::of_list({Value::of_string("a")}))
                          .add(Value::of_union(0, Value::of_double(1.5)))
                          .build();
  const Buffer big_wire = enc::encode_value(big, *type).value();
  const Buffer small_wire = enc::encode_value(small, *type).value();

  Value v = Value::of_string("some other shape entirely");
  ASSERT_TRUE(enc::decode_value_into(as_bytes_view(big_wire), *type, v).is_ok());
  EXPECT_EQ(v, big);
  // Shorter array, other union case.
  ASSERT_TRUE(
      enc::decode_value_into(as_bytes_view(small_wire), *type, v).is_ok());
  EXPECT_EQ(v, small);

  // A copy shares the union payload; refilling v must not change it.
  const Value held = v;
  ASSERT_TRUE(enc::decode_value_into(as_bytes_view(big_wire), *type, v).is_ok());
  EXPECT_EQ(v, big);
  EXPECT_EQ(held, small);

  // Garbage fails in both decoders.
  const Buffer junk{0xFF, 0xFF, 0xFF};
  EXPECT_FALSE(enc::decode_value(as_bytes_view(junk), *type).ok());
  EXPECT_FALSE(enc::decode_value_into(as_bytes_view(junk), *type, v).is_ok());
}

}  // namespace
}  // namespace marea
