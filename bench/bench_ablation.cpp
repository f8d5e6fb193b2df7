// Ablations of the design choices behind the paper's claims:
//   A1 — ARQ fast retransmit (the dup-ack analogue) ON vs OFF: how much of
//        the C3 win over TCP comes from gap-triggered repair vs just
//        having per-message sequencing.
//   A2 — MFTP chunk size sweep: the bulk-efficiency / loss-amplification
//        trade (bigger chunks = fewer packets but more bytes lost per drop).
//   A3 — NACK run-length compression vs a naive index list: the wire cost
//        of the completion phase for bursty vs scattered loss patterns.
#include <set>

#include "bench_util.h"

#include "protocol/mftp.h"
#include "util/crc32.h"
#include "util/rle.h"

namespace marea::bench {
namespace {

// --- A2: MFTP chunk size -----------------------------------------------------

void mftp_chunk_size(Report& report, uint32_t chunk) {
  const double loss = 0.10;
  sim::Simulator sim;
  sim::SimNetwork net(sim, Rng(5));
  sched::SimExecutor exec(sim);
  sim::LinkParams lp;
  lp.loss = loss;
  net.set_default_link(lp);
  sim::NodeId pub = net.add_node("pub");
  sim::NodeId rx = net.add_node("rx");
  constexpr GroupId kGroup = 9;

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
        (void)net.send_multicast(Address{pub, 1}, kGroup,
                                 net.frame_pool().copy_in(w.view()));
      },
      [&](const proto::FileStatusRequestMsg& msg) {
        ByteWriter w;
        w.u8(2);
        msg.encode(w);
        (void)net.send_multicast(Address{pub, 1}, kGroup,
                                 net.frame_pool().copy_in(w.view()));
      });
  bool done = false;
  TimePoint done_at{};
  proto::MftpReceiver receiver(
      1, meta,
      [&](const proto::FileAckMsg& ack) {
        ByteWriter w;
        w.u8(3);
        ack.encode(w);
        (void)net.send(Address{rx, 1}, Address{pub, 1},
                       net.frame_pool().copy_in(w.view()));
      },
      [&](const proto::FileNackMsg& nack) {
        ByteWriter w;
        w.u8(4);
        nack.encode(w);
        (void)net.send(Address{rx, 1}, Address{pub, 1},
                       net.frame_pool().copy_in(w.view()));
      });
  receiver.set_on_complete([&](const Buffer&) {
    done = true;
    done_at = sim.now();
  });
  (void)net.bind_frames(
      Address{pub, 1},
      [&](Address from, const SharedFrame& frame) {
        ByteReader r(frame.view());
        uint8_t tag = r.u8();
        if (tag == 3) {
          proto::FileAckMsg ack;
          if (proto::FileAckMsg::decode(r, ack)) {
            publisher.on_ack(from.host, ack);
          }
        } else if (tag == 4) {
          proto::FileNackMsg nack;
          if (proto::FileNackMsg::decode(r, nack)) {
            publisher.on_nack(from.host, nack);
          }
        }
      });
  (void)net.bind_frames(
      Address{rx, 1},
      [&](Address, const SharedFrame& frame) {
        ByteReader r(frame.view());
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
  (void)net.join_group(kGroup, Address{rx, 1});
  publisher.add_subscriber(rx);
  publisher.start();
  sim.run(50'000'000);

  const std::string point = "a2.chunk_" + std::to_string(chunk);
  report[point + ".done"] = done ? 1 : 0;
  report[point + ".completion_ms"] = Duration{done_at.ns}.millis();
  report[point + ".wire_KB"] =
      static_cast<double>(net.stats().bytes_sent) / 1024.0;
  report[point + ".rounds"] = static_cast<double>(publisher.stats().rounds);
}

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

void nack_compression(Report& report, const std::string& point, int bursts,
                      int burst_len) {
  // Pattern: `bursts` bursts of `burst_len` missing chunks out of 10k.
  Rng rng(9);
  std::set<uint32_t> missing_set;
  for (int b = 0; b < bursts; ++b) {
    uint32_t start = static_cast<uint32_t>(rng.uniform(0, 10000 - 100));
    for (int i = 0; i < burst_len; ++i) {
      missing_set.insert(start + static_cast<uint32_t>(i));
    }
  }
  std::vector<uint32_t> missing(missing_set.begin(), missing_set.end());
  size_t rle = rle_nack_bytes(missing);
  size_t naive = naive_nack_bytes(missing);
  report[point + ".missing"] = static_cast<double>(missing.size());
  report[point + ".rle_bytes"] = static_cast<double>(rle);
  report[point + ".naive_bytes"] = static_cast<double>(naive);
  report[point + ".ratio"] =
      static_cast<double>(naive) / static_cast<double>(rle);
}

}  // namespace

void ablation(Report& report) {
  for (int loss_pct : {10, 30}) {
    for (bool fast : {false, true}) {
      proto::ArqParams params;
      if (!fast) params.skip_threshold = 1 << 30;  // effectively off
      LatencyStats latency = run_arq(loss_pct / 100.0, params).latency;
      const std::string point = "a1.loss" + std::to_string(loss_pct) +
                                (fast ? "_fast_rtx" : "_rto_only");
      report[point + ".mean_us"] = latency.mean();
      report[point + ".p99_us"] = latency.percentile(0.99);
    }
  }
  // The claim: most of C3's win is the gap-triggered repair.
  report["a1.claim.rto_over_fast_mean_10"] =
      report["a1.loss10_rto_only.mean_us"] /
      report["a1.loss10_fast_rtx.mean_us"];

  for (uint32_t chunk : {256u, 1024u, 4096u, 16384u}) {
    mftp_chunk_size(report, chunk);
  }

  nack_compression(report, "a3.tail", 1, 500);       // late-join tail
  nack_compression(report, "a3.bursty", 20, 10);     // bursty loss
  nack_compression(report, "a3.scattered", 200, 1);  // fully scattered
}

}  // namespace marea::bench
