// Implementation-efficiency microbenchmarks (paper §6 argues a minimal
// middleware beats heavyweight stacks; these are real CPU-time numbers
// for the per-message costs on the host CPU): PEPt encode/decode (a
// GpsFix, and a 128-double payload frame through the Encoding layer
// alone: encode_value_into / decode_value_into on a warm buffer and Value),
// framing through proto::FrameBuilder + open_frame (the datapath's
// framing path), CRC-32, message round trips, and C8's warm directory
// lookup at 10/100/1000 entries.
//
// Each case runs a fixed op count and reports CPU ns/op from
// CLOCK_PROCESS_CPUTIME_ID, the median of 5 repeats. Every op's result
// folds into the printed checksum so the compiler cannot drop the work.
// The numbers vary with the host CPU and are context only: nothing gates
// them.
//
//   ./build/bench/bench_wire_codec > BENCH_wire_codec.json
#include <time.h>

#include <algorithm>
#include <array>
#include <cstdio>
#include <string>

#include "encoding/codec.h"
#include "encoding/typed.h"
#include "middleware/directory.h"
#include "protocol/frame.h"
#include "protocol/messages.h"
#include "services/messages.h"
#include "util/crc32.h"

namespace marea {
namespace {

// The telemetry payload shape: a tagged run of doubles.
struct PayloadFrame {
  uint32_t id = 0;
  std::string tag;
  std::vector<double> values;
};

}  // namespace
}  // namespace marea

MAREA_REFLECT(marea::PayloadFrame, id, tag, values)

namespace marea {
namespace {

using services::GpsFix;

constexpr int kRepeats = 5;
uint64_t g_checksum = 0;

double cpu_ns() {
  timespec ts;
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) * 1e9 +
         static_cast<double>(ts.tv_nsec);
}

// Median CPU ns/op over kRepeats runs of `ops` calls; `op` returns a
// value that depends on its work.
template <typename Op>
double ns_per_op(int ops, Op op) {
  std::array<double, kRepeats> runs;
  for (double& run : runs) {
    double start = cpu_ns();
    for (int i = 0; i < ops; ++i) g_checksum += static_cast<uint64_t>(op());
    run = (cpu_ns() - start) / ops;
  }
  std::sort(runs.begin(), runs.end());
  return runs[kRepeats / 2];
}

GpsFix sample_fix() {
  GpsFix fix;
  fix.lat_deg = 41.2751234;
  fix.lon_deg = 1.9865678;
  fix.alt_m = 120.5;
  fix.heading_deg = 271.25;
  fix.speed_mps = 22.5;
  fix.time_ns = 123456789012345;
  return fix;
}

proto::ContainerHelloMsg sample_manifest() {
  proto::ContainerHelloMsg hello;
  hello.incarnation = 3;
  hello.data_port = 4500;
  hello.node_name = "payload";
  for (int s = 0; s < 8; ++s) {
    proto::ServiceInfo svc;
    svc.name = "service" + std::to_string(s);
    svc.state = proto::ServiceState::kRunning;
    for (int i = 0; i < 6; ++i) {
      svc.items.push_back(proto::ProvidedItem{
          proto::ItemKind::kVariable,
          "svc" + std::to_string(s) + ".item" + std::to_string(i),
          0xABCD1234, 100000000, 400000000});
    }
    hello.services.push_back(std::move(svc));
  }
  return hello;
}

// A directory holding `entries` variables, resolved from the middle.
double warm_lookup_ns(int entries) {
  mw::NameDirectory dir;
  proto::ContainerHelloMsg hello;
  hello.data_port = 4500;
  for (int i = 0; i < entries; ++i) {
    proto::ServiceInfo svc;
    svc.name = "svc" + std::to_string(i);
    svc.state = proto::ServiceState::kRunning;
    svc.items.push_back(proto::ProvidedItem{
        proto::ItemKind::kVariable, "var." + std::to_string(i), 0, 0, 0});
    hello.services.push_back(std::move(svc));
  }
  dir.apply_hello(1, transport::Address{1, 4500}, hello);
  std::string target = "var." + std::to_string(entries / 2);
  auto lookup = [&] {
    return dir.resolve(proto::ItemKind::kVariable, target) != nullptr;
  };
  return ns_per_op(200'000, lookup);
}

void print(const char* key, double value) {
  std::printf("  \"%s\": %.1f,\n", key, value);
}

int run() {
  const GpsFix fix = sample_fix();
  const Buffer fix_wire = std::move(enc::encode_struct(fix)).value();
  const enc::Value fix_value = enc::to_value(fix);

  std::printf("{\n  \"bench\": \"wire_codec\",\n");
  std::printf("  \"repeats\": %d,\n", kRepeats);
  print("gps_fix_wire_bytes", static_cast<double>(fix_wire.size()));
  auto encode = [&] { return enc::encode_struct(fix)->size(); };
  print("encode_gps_fix_ns", ns_per_op(100'000, encode));
  auto decode = [&] {
    return enc::decode_struct<GpsFix>(as_bytes_view(fix_wire))->time_ns;
  };
  print("decode_gps_fix_ns", ns_per_op(100'000, decode));
  auto encode_tagged = [&] { return enc::encode_tagged(fix_value).size(); };
  print("encode_tagged_ns", ns_per_op(100'000, encode_tagged));

  PayloadFrame frame;
  frame.id = 4242;
  frame.tag = "cam12345";
  for (int i = 0; i < 128; ++i) frame.values.push_back(i * 7.75 - 300.0);
  const enc::Value frame_value = enc::to_value(frame);
  const enc::TypeDescriptor& frame_type = *enc::descriptor_of<PayloadFrame>();
  Buffer frame_buf;
  auto encode_frame = [&] {
    (void)enc::encode_value_into(frame_value, frame_type, frame_buf);
    return frame_buf.size();
  };
  print("encode_frame128_ns", ns_per_op(100'000, encode_frame));
  const Buffer frame_wire = frame_buf;
  enc::Value frame_decoded;
  auto decode_frame = [&] {
    return enc::decode_value_into(as_bytes_view(frame_wire), frame_type,
                                  frame_decoded)
        .is_ok();
  };
  print("decode_frame128_ns", ns_per_op(100'000, decode_frame));

  FramePool pool;
  for (size_t bytes : {64, 1024, 16384}) {
    const Buffer payload(bytes, 0x42);
    auto build_and_open = [&] {
      proto::FrameBuilder builder(
          pool, proto::FrameHeader{proto::MsgType::kVarSample, 1});
      builder.payload().bytes(as_bytes_view(payload));
      SharedFrame frame = std::move(builder).seal();
      BytesView body;
      return proto::open_frame(frame.view(), &body).ok() + body.size();
    };
    const std::string key = "frame_build_open_" + std::to_string(bytes) + "_ns";
    print(key.c_str(),
          ns_per_op(bytes > 1024 ? 10'000 : 100'000, build_and_open));
  }
  for (size_t bytes : {1024, 65536}) {
    const Buffer data(bytes, 0xA5);
    auto crc = [&] { return crc32(as_bytes_view(data)); };
    const std::string key = "crc32_" + std::to_string(bytes) + "_ns";
    print(key.c_str(), ns_per_op(bytes > 1024 ? 10'000 : 200'000, crc));
  }

  proto::VarSampleMsg sample;
  sample.channel = proto::channel_of("gps.position");
  sample.seq = 12345;
  sample.pub_time_ns = 987654321;
  sample.value = std::move(enc::encode_struct(fix)).value();
  auto sample_round_trip = [&] {
    ByteWriter w;
    sample.encode(w);
    ByteReader r(w.view());
    proto::VarSampleMsg out;
    return proto::VarSampleMsg::decode(r, out) + out.seq;
  };
  print("var_sample_round_trip_ns", ns_per_op(100'000, sample_round_trip));
  const proto::ContainerHelloMsg hello = sample_manifest();
  auto manifest_round_trip = [&] {
    ByteWriter w;
    hello.encode(w);
    ByteReader r(w.view());
    proto::ContainerHelloMsg out;
    return proto::ContainerHelloMsg::decode(r, out) + out.services.size();
  };
  print("manifest_round_trip_ns", ns_per_op(10'000, manifest_round_trip));
  for (int entries : {10, 100, 1000}) {
    const std::string key = "warm_lookup_" + std::to_string(entries) + "_ns";
    print(key.c_str(), warm_lookup_ns(entries));
  }
  std::printf("  \"checksum\": %llu\n}\n",
              static_cast<unsigned long long>(g_checksum));
  return 0;
}

}  // namespace
}  // namespace marea

int main() { return marea::run(); }
