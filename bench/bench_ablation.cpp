// Ablations of the design choices behind the paper's claims:
#include <set>
//   A1 — ARQ fast retransmit (the dup-ack analogue) ON vs OFF: how much of
//        the C3 win over TCP comes from gap-triggered repair vs just
//        having per-message sequencing.
//   A2 — MFTP chunk size sweep: the bulk-efficiency / loss-amplification
//        trade (bigger chunks = fewer packets but more bytes lost per drop).
//   A3 — NACK run-length compression vs a naive index list: the wire cost
//        of the completion phase for bursty vs scattered loss patterns.
#include "bench_util.h"

#include "protocol/arq.h"
#include "protocol/mftp.h"
#include "util/crc32.h"
#include "util/rle.h"

namespace marea::bench {
namespace {

// --- A1: fast retransmit ----------------------------------------------------

LatencyStats run_arq_latency(double loss, bool fast_retransmit) {
  sim::Simulator sim;
  sim::SimNetwork net(sim, Rng(7));
  sched::SimExecutor exec(sim);
  sim::NodeId a = net.add_node("a");
  sim::NodeId b = net.add_node("b");
  sim::LinkParams lp;
  lp.loss = loss;
  net.set_link_symmetric(a, b, lp);

  proto::ArqParams params;
  if (!fast_retransmit) params.skip_threshold = 1 << 30;  // effectively off

  LatencyStats latency;
  std::vector<TimePoint> sent_at(300);
  proto::ArqSender sender(exec, sched::Priority::kEvent, params,
                          [&](const proto::ReliableDataMsg& msg) {
                            ByteWriter w;
                            msg.encode(w);
                            (void)net.send(sim::Endpoint{a, 1},
                                           sim::Endpoint{b, 1}, w.view());
                          });
  proto::ArqReceiver receiver(
      [&](const proto::ReliableAckMsg& ack) {
        ByteWriter w;
        ack.encode(w);
        (void)net.send(sim::Endpoint{b, 1}, sim::Endpoint{a, 1}, w.view());
      },
      [&](proto::InnerType, BytesView inner) {
        ByteReader r(inner);
        latency.add(sim.now() - sent_at[r.u32()]);
      });
  (void)net.bind(sim::Endpoint{b, 1}, [&](sim::Endpoint, BytesView d) {
    ByteReader r(d);
    proto::ReliableDataMsg msg;
    if (proto::ReliableDataMsg::decode(r, msg)) receiver.on_data(msg);
  });
  (void)net.bind(sim::Endpoint{a, 1}, [&](sim::Endpoint, BytesView d) {
    ByteReader r(d);
    proto::ReliableAckMsg ack;
    if (proto::ReliableAckMsg::decode(r, ack)) sender.on_ack(ack);
  });
  for (int i = 0; i < 300; ++i) {
    sim.after(milliseconds(5) * i, [&, i] {
      sent_at[static_cast<size_t>(i)] = sim.now();
      ByteWriter w;
      w.u32(static_cast<uint32_t>(i));
      w.bytes(Buffer(200, 0x55));
      sender.send(proto::InnerType::kEvent, w.take());
    });
  }
  sim.run(10'000'000);
  return latency;
}

void BM_ArqFastRetransmitAblation(benchmark::State& state) {
  double loss = static_cast<double>(state.range(0)) / 100.0;
  bool fast = state.range(1) == 1;
  for (auto _ : state) {
    LatencyStats latency = run_arq_latency(loss, fast);
    state.counters["mean_us"] = latency.mean();
    state.counters["p99_us"] = latency.percentile(0.99);
    state.counters["fast_rtx"] = fast ? 1 : 0;
  }
}
BENCHMARK(BM_ArqFastRetransmitAblation)
    ->ArgsProduct({{10, 30}, {0, 1}})
    ->Iterations(1);

// --- A2: MFTP chunk size -----------------------------------------------------

void BM_MftpChunkSizeAblation(benchmark::State& state) {
  uint32_t chunk = static_cast<uint32_t>(state.range(0));
  const double loss = 0.10;
  for (auto _ : state) {
    sim::Simulator sim;
    sim::SimNetwork net(sim, Rng(5));
    sched::SimExecutor exec(sim);
    sim::LinkParams lp;
    lp.loss = loss;
    net.set_default_link(lp);
    sim::NodeId pub = net.add_node("pub");
    sim::NodeId rx = net.add_node("rx");
    constexpr sim::GroupId kGroup = 9;

    Rng rng(1);
    Buffer content(128 * 1024);
    for (auto& b : content) b = static_cast<uint8_t>(rng.next_u64());
    proto::FileMeta meta;
    meta.name = "f";
    meta.revision = 1;
    meta.size = content.size();
    meta.chunk_size = chunk;
    meta.content_crc = crc32(as_bytes_view(content));

    proto::MftpParams params;
    params.chunk_size = chunk;
    params.chunk_interval = microseconds(50);
    params.status_timeout = milliseconds(30);

    proto::MftpPublisher publisher(
        exec, params, 1, meta, std::make_shared<const Buffer>(content),
        [&](const proto::FileChunkMsg& msg) {
          ByteWriter w;
          w.u8(1);
          msg.encode(w);
          (void)net.send_multicast(sim::Endpoint{pub, 1}, kGroup, w.view());
        },
        [&](const proto::FileStatusRequestMsg& msg) {
          ByteWriter w;
          w.u8(2);
          msg.encode(w);
          (void)net.send_multicast(sim::Endpoint{pub, 1}, kGroup, w.view());
        });
    bool done = false;
    TimePoint done_at{};
    proto::MftpReceiver receiver(
        1, meta,
        [&](const proto::FileAckMsg& ack) {
          ByteWriter w;
          w.u8(3);
          ack.encode(w);
          (void)net.send(sim::Endpoint{rx, 1}, sim::Endpoint{pub, 1},
                         w.view());
        },
        [&](const proto::FileNackMsg& nack) {
          ByteWriter w;
          w.u8(4);
          nack.encode(w);
          (void)net.send(sim::Endpoint{rx, 1}, sim::Endpoint{pub, 1},
                         w.view());
        });
    receiver.set_on_complete([&](const Buffer&) {
      done = true;
      done_at = sim.now();
    });
    (void)net.bind(sim::Endpoint{pub, 1}, [&](sim::Endpoint from,
                                              BytesView d) {
      ByteReader r(d);
      uint8_t tag = r.u8();
      if (tag == 3) {
        proto::FileAckMsg ack;
        if (proto::FileAckMsg::decode(r, ack)) {
          publisher.on_ack(from.node, ack);
        }
      } else if (tag == 4) {
        proto::FileNackMsg nack;
        if (proto::FileNackMsg::decode(r, nack)) {
          publisher.on_nack(from.node, nack);
        }
      }
    });
    (void)net.bind(sim::Endpoint{rx, 1}, [&](sim::Endpoint, BytesView d) {
      ByteReader r(d);
      uint8_t tag = r.u8();
      if (tag == 1) {
        proto::FileChunkMsg msg;
        if (proto::FileChunkMsg::decode(r, msg)) receiver.on_chunk(msg);
      } else if (tag == 2) {
        proto::FileStatusRequestMsg msg;
        if (proto::FileStatusRequestMsg::decode(r, msg)) {
          receiver.on_status_request(msg);
        }
      }
    });
    (void)net.join_group(kGroup, sim::Endpoint{rx, 1});
    publisher.add_subscriber(rx);
    publisher.start();
    sim.run(50'000'000);

    state.counters["chunk_bytes"] = chunk;
    state.counters["done"] = done ? 1 : 0;
    state.counters["completion_ms"] = Duration{done_at.ns}.millis();
    state.counters["wire_KB"] =
        static_cast<double>(net.stats().bytes_sent) / 1024.0;
    state.counters["rounds"] =
        static_cast<double>(publisher.stats().rounds);
  }
}
BENCHMARK(BM_MftpChunkSizeAblation)
    ->Arg(256)->Arg(1024)->Arg(4096)->Arg(16384)
    ->Iterations(1);

// --- A3: NACK compression ------------------------------------------------------

// Naive encoding for comparison: varint count + one varint per index.
size_t naive_nack_bytes(const std::vector<uint32_t>& missing) {
  ByteWriter w;
  w.varint(missing.size());
  for (uint32_t v : missing) w.varint(v);
  return w.size();
}

size_t rle_nack_bytes(const std::vector<uint32_t>& missing) {
  RunSet set = RunSet::from_sorted(missing);
  ByteWriter w;
  set.encode(w);
  return w.size();
}

void BM_NackCompression(benchmark::State& state) {
  // Pattern: `bursts` bursts of `burst_len` missing chunks out of 10k.
  int bursts = static_cast<int>(state.range(0));
  int burst_len = static_cast<int>(state.range(1));
  Rng rng(9);
  std::set<uint32_t> missing_set;
  for (int b = 0; b < bursts; ++b) {
    uint32_t start = static_cast<uint32_t>(rng.uniform(0, 10000 - 100));
    for (int i = 0; i < burst_len; ++i) {
      missing_set.insert(start + static_cast<uint32_t>(i));
    }
  }
  std::vector<uint32_t> missing(missing_set.begin(), missing_set.end());
  for (auto _ : state) {
    size_t rle = rle_nack_bytes(missing);
    size_t naive = naive_nack_bytes(missing);
    benchmark::DoNotOptimize(rle);
    state.counters["missing"] = static_cast<double>(missing.size());
    state.counters["rle_bytes"] = static_cast<double>(rle);
    state.counters["naive_bytes"] = static_cast<double>(naive);
    state.counters["ratio"] =
        static_cast<double>(naive) / static_cast<double>(rle);
  }
}
BENCHMARK(BM_NackCompression)
    ->Args({1, 500})    // one long tail (late join)
    ->Args({20, 10})    // bursty loss
    ->Args({200, 1})    // fully scattered
    ->Iterations(1);

}  // namespace
}  // namespace marea::bench
