// Experiment C4 + X12 (paper §4.4): the multicast file-transfer
// primitive, now with the content-addressed bulk path (ROADMAP item 3).
//
// Custom JSON main, gated by
// scripts/bench_compare.py against bench/baselines/filetransfer.json:
//
//   * wire_reduction_pct — per-chunk LZ compression of compressible
//     imagery vs the same transfer with codec none (>= 30% floor);
//   * dedup_skip_pct — duplicate-chunk elision when receivers hold the
//     announce manifest (same-hash sibling fills);
//   * republish_wire_bytes — an identical-revision republish against a
//     warm ChunkStore must move ~no chunk payload (resume by hash);
//   * noise_compress_calls / noise_republish_compress_calls /
//     noise_wire_bytes — a 256 KiB incompressible file: the per-revision
//     probe tries 8 chunks and ships the rest raw untried, and an
//     identical republish takes every verdict from the previous revision
//     (exact counts);
//   * hash_mb_s / compress_mb_s — single-thread hash64 and LZ compress
//     rates over the chunks a ChunkTable build sees (wall clock;
//     generous tolerance, machines vary);
//   * transfer_ms at loss 0/5/20% — virtual completion time of the
//     slowest subscriber, NACK-driven repair doing its job;
//   * unicast context — what the paper would have had to do without the
//     primitive: one reliable stream per subscriber (EXPERIMENTS C4).
//
// All transfers run on the deterministic simulator; the loss-5% scenario
// runs twice and the wire/time counters must match exactly, or the bench
// exits nonzero (the content-addressed path must not perturb virtual
// time). Incomplete delivery in any scenario is also a hard failure —
// equal delivery is the precondition for comparing wire bytes.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "protocol/chunk_table.h"
#include "protocol/mftp.h"
#include "sched/sim_executor.h"
#include "sim/network.h"
#include "transport/sim_transport.h"
#include "transport/tcp_model.h"
#include "util/crc32.h"
#include "util/hash.h"
#include "util/logging.h"

namespace marea::bench {
namespace {

constexpr uint32_t kChunk = 1024;
constexpr size_t kImageryRows = 256;  // 256 KiB at 1 KiB rows

// Compressible imagery: alternating flat and gradient scanlines with a
// noise row every 8th — every row distinct (no accidental dedup), so the
// wire reduction measured here is compression alone.
Buffer imagery(size_t rows, uint64_t seed = 9) {
  Rng rng(seed);
  Buffer b;
  b.reserve(rows * kChunk);
  for (size_t r = 0; r < rows; ++r) {
    if (r % 8 == 5) {
      for (size_t i = 0; i < kChunk; ++i) {
        b.push_back(static_cast<uint8_t>(rng.next_u64()));
      }
    } else if (r % 2 == 0) {
      b.insert(b.end(), kChunk, static_cast<uint8_t>((r * 7) & 0xFF));
    } else {
      for (size_t i = 0; i < kChunk; ++i) {
        b.push_back(static_cast<uint8_t>((i + r * 3) & 0xFF));
      }
    }
  }
  return b;
}

// `n` bytes of noise: no chunk of it compresses.
Buffer noise_bytes(size_t n, uint64_t seed) {
  Rng rng(seed);
  Buffer b(n);
  for (auto& byte : b) byte = static_cast<uint8_t>(rng.next_u64());
  return b;
}

// 16 distinct random (incompressible) tiles, each appearing 4 times:
// isolates manifest-driven dedup from compression.
Buffer duplicate_tiles(uint32_t distinct, uint32_t repeats) {
  Rng rng(11);
  std::vector<Buffer> tiles(distinct);
  for (auto& t : tiles) {
    t.resize(kChunk);
    for (auto& byte : t) byte = static_cast<uint8_t>(rng.next_u64());
  }
  Buffer b;
  b.reserve(static_cast<size_t>(distinct) * repeats * kChunk);
  for (uint32_t rep = 0; rep < repeats; ++rep) {
    for (const auto& t : tiles) b.insert(b.end(), t.begin(), t.end());
  }
  return b;
}

proto::FileMeta make_meta(const Buffer& content, util::Codec codec,
                          uint32_t revision = 1) {
  proto::FileMeta meta;
  meta.name = "res.img";
  meta.revision = revision;
  meta.size = content.size();
  meta.chunk_size = kChunk;
  meta.content_crc = crc32(as_bytes_view(content));
  meta.codec = static_cast<uint8_t>(codec);
  return meta;
}

struct FtOptions {
  int receivers = 4;
  double loss = 0.0;
  util::Codec codec = util::Codec::kLz;
  bool manifest = true;  // receivers get the announce manifest
  uint64_t seed = 7;
  uint32_t revision = 1;
  // Optional per-receiver cross-transfer dedup stores (not owned); when
  // resume_from_store is set, receivers fill from the store before the
  // first completion poll — the identical-revision republish path.
  std::vector<proto::ChunkStore*> stores;
  bool resume_from_store = false;
};

struct FtResult {
  proto::MftpPublisherStats pub;
  uint64_t net_bytes_sent = 0;  // everything incl. control traffic
  uint64_t completed = 0;
  uint64_t intact = 0;     // completions matching the content
  int64_t completion_ns = 0;  // slowest subscriber, virtual time
  uint64_t store_fills = 0;   // chunks satisfied by the ChunkStore
};

// Publisher node 0, receivers 1..N: multicast chunks + status polls,
// unicast ACK/NACK — the same topology the middleware uses. The transfer
// is poll-driven: add_subscriber opens a completion poll and fresh
// receivers NACK everything they lack (the protocol's own announce
// path; no imperative push).
FtResult run_mftp(const Buffer& content, const FtOptions& opt) {
  sim::Simulator sim;
  sim::SimNetwork net(sim, Rng(opt.seed));
  sched::SimExecutor exec(sim);
  sim::LinkParams lp;
  lp.loss = opt.loss;
  net.set_default_link(lp);
  sim::NodeId pub_node = net.add_node("pub");
  constexpr GroupId kGroup = 500;

  proto::FileMeta meta = make_meta(content, opt.codec, opt.revision);
  proto::MftpParams params;
  params.chunk_size = kChunk;
  params.chunk_interval = microseconds(50);
  params.status_timeout = milliseconds(30);
  params.codec = opt.codec;

  proto::MftpPublisher publisher(
      exec, params, /*transfer_id=*/opt.revision, meta,
      std::make_shared<const Buffer>(content),
      [&](const proto::FileChunkMsg& msg) {
        ByteWriter w;
        w.u8(1);
        msg.encode(w);
        (void)net.send_multicast(Address{pub_node, 1}, kGroup,
                                 net.frame_pool().copy_in(w.view()));
        return kDurationZero;
      },
      [&](const proto::FileStatusRequestMsg& msg) {
        ByteWriter w;
        w.u8(2);
        msg.encode(w);
        (void)net.send_multicast(Address{pub_node, 1}, kGroup,
                                 net.frame_pool().copy_in(w.view()));
      });

  (void)net.bind_frames(
      Address{pub_node, 1},
      [&](Address from, const SharedFrame& frame) {
        ByteReader r{frame.view()};
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

  FtResult result;
  TimePoint slowest{0};
  std::vector<std::unique_ptr<proto::MftpReceiver>> rxs;
  for (int i = 0; i < opt.receivers; ++i) {
    sim::NodeId node = net.add_node("rx" + std::to_string(i));
    auto receiver = std::make_unique<proto::MftpReceiver>(
        opt.revision, meta,
        [&, node](const proto::FileAckMsg& ack) {
          ByteWriter w;
          w.u8(3);
          ack.encode(w);
          (void)net.send(Address{node, 1}, Address{pub_node, 1},
                         net.frame_pool().copy_in(w.view()));
        },
        [&, node](const proto::FileNackMsg& nack) {
          ByteWriter w;
          w.u8(4);
          nack.encode(w);
          (void)net.send(Address{node, 1}, Address{pub_node, 1},
                         net.frame_pool().copy_in(w.view()));
        });
    if (opt.manifest) receiver->set_manifest(publisher.chunk_hashes());
    if (static_cast<size_t>(i) < opt.stores.size() && opt.stores[i]) {
      receiver->set_chunk_store(opt.stores[static_cast<size_t>(i)]);
    }
    receiver->set_on_complete([&](std::shared_ptr<const Buffer> data) {
      result.completed++;
      if (*data == content) result.intact++;
      if (sim.now() > slowest) slowest = sim.now();
    });
    proto::MftpReceiver* raw = receiver.get();
    (void)net.bind_frames(
        Address{node, 1},
        [raw](Address, const SharedFrame& frame) {
          ByteReader r{frame.view()};
          uint8_t tag = r.u8();
          if (tag == 1) {
            proto::FileChunkMsg msg;
            if (proto::FileChunkMsg::decode(r, msg)) {
              raw->on_chunk(msg);
            }
          } else if (tag == 2) {
            proto::FileStatusRequestMsg msg;
            if (proto::FileStatusRequestMsg::decode(r, msg)) {
              raw->on_status_request(msg);
            }
          }
        });
    (void)net.join_group(kGroup, Address{node, 1});
    if (opt.resume_from_store) receiver->resume_from_store();
    publisher.add_subscriber(node);
    rxs.push_back(std::move(receiver));
  }

  sim.run();
  result.pub = publisher.stats();
  result.net_bytes_sent = net.stats().bytes_sent;
  result.completion_ns = slowest.ns;
  for (const auto& rx : rxs) {
    result.store_fills += rx->stats().chunks_from_store;
  }
  return result;
}

// The counterfactual from experiment C4: per-subscriber reliable unicast
// (one TCP-model stream each) — wire bytes scale linearly in N.
uint64_t run_unicast_wire_bytes(const Buffer& content, int subscribers,
                                double loss) {
  sim::Simulator sim;
  sim::SimNetwork net(sim, Rng(5));
  sim::LinkParams lp;
  lp.loss = loss;
  net.set_default_link(lp);
  sim::NodeId pub = net.add_node("pub");
  auto pub_transport = std::make_unique<transport::SimTransport>(net, pub);

  std::vector<std::unique_ptr<transport::SimTransport>> transports;
  std::vector<std::unique_ptr<transport::TcpModelEndpoint>> senders;
  std::vector<std::unique_ptr<transport::TcpModelEndpoint>> sinks;
  for (int i = 0; i < subscribers; ++i) {
    sim::NodeId node = net.add_node("rx" + std::to_string(i));
    transports.push_back(std::make_unique<transport::SimTransport>(net, node));
    uint16_t port = static_cast<uint16_t>(100 + i);
    sinks.push_back(std::make_unique<transport::TcpModelEndpoint>(
        sim, *transports.back(), port, transport::Address{pub, port},
        transport::TcpParams{}, [](BytesView) {}));
    senders.push_back(std::make_unique<transport::TcpModelEndpoint>(
        sim, *pub_transport, port, transport::Address{node, port},
        transport::TcpParams{}, nullptr));
    (void)senders.back()->send_message(as_bytes_view(content));
  }
  sim.run(50'000'000);
  return net.stats().bytes_sent;
}

}  // namespace
}  // namespace marea::bench

int main() {
  using namespace marea;
  using namespace marea::bench;
  set_log_level(LogLevel::kError);

  constexpr int kSubscribers = 4;
  const Buffer img = imagery(kImageryRows);
  bool all_delivered = true;

  auto check = [&](const FtResult& r, int expect) {
    if (r.completed != static_cast<uint64_t>(expect) ||
        r.intact != static_cast<uint64_t>(expect)) {
      all_delivered = false;
    }
  };

  // --- compression: codec none vs LZ, equal delivery ---------------------
  FtOptions raw_opt;
  raw_opt.codec = util::Codec::kNone;
  FtResult raw = run_mftp(img, raw_opt);
  check(raw, kSubscribers);

  FtOptions lz_opt;
  lz_opt.codec = util::Codec::kLz;
  FtResult lz = run_mftp(img, lz_opt);
  check(lz, kSubscribers);

  const double reduction_pct =
      100.0 * (1.0 - static_cast<double>(lz.pub.wire_bytes_sent) /
                         static_cast<double>(raw.pub.wire_bytes_sent));
  const double compress_ratio =
      static_cast<double>(lz.pub.payload_bytes_sent) /
      static_cast<double>(lz.pub.wire_bytes_sent);

  // --- incompressible file: decided once per revision -------------------
  const Buffer noise = noise_bytes(kImageryRows * kChunk, /*seed=*/13);
  FtResult noise_run = run_mftp(noise, lz_opt);
  check(noise_run, kSubscribers);
  const proto::ChunkTable noise_rev1 = proto::ChunkTable::build(
      as_bytes_view(noise), kChunk, util::Codec::kLz);
  const proto::ChunkTable noise_rev2 = proto::ChunkTable::build(
      as_bytes_view(noise), kChunk, util::Codec::kLz, &noise_rev1,
      as_bytes_view(noise));

  // --- dedup: duplicate tiles, manifest-holding receivers ----------------
  const Buffer dup = duplicate_tiles(/*distinct=*/16, /*repeats=*/4);
  FtOptions dup_opt;
  dup_opt.codec = util::Codec::kNone;  // random tiles; isolate dedup
  FtResult dd = run_mftp(dup, dup_opt);
  check(dd, kSubscribers);
  const double dedup_pct =
      100.0 * static_cast<double>(dd.pub.chunks_dedup_skipped) /
      static_cast<double>(dd.pub.chunks_dedup_skipped + dd.pub.chunks_sent);

  // --- identical-revision republish against a warm ChunkStore ------------
  proto::ChunkStore store(4u << 20);
  FtOptions warm;
  warm.receivers = 1;
  warm.stores = {&store};
  FtResult first = run_mftp(img, warm);
  check(first, 1);
  FtOptions repub = warm;
  repub.revision = 2;
  repub.resume_from_store = true;
  FtResult second = run_mftp(img, repub);
  check(second, 1);

  // --- loss sweep at LZ codec -------------------------------------------
  struct LossRow {
    const char* key;
    double loss;
    FtResult r;
  };
  LossRow rows[] = {{"l0", 0.0, {}}, {"l5", 0.05, {}}, {"l20", 0.20, {}}};
  for (auto& row : rows) {
    FtOptions o;
    o.loss = row.loss;
    o.seed = 21;
    row.r = run_mftp(img, o);
    check(row.r, kSubscribers);
  }

  // --- determinism: the loss-5% run must reproduce exactly ---------------
  FtOptions redo;
  redo.loss = 0.05;
  redo.seed = 21;
  FtResult again = run_mftp(img, redo);
  const bool deterministic =
      again.pub.wire_bytes_sent == rows[1].r.pub.wire_bytes_sent &&
      again.net_bytes_sent == rows[1].r.net_bytes_sent &&
      again.completion_ns == rows[1].r.completion_ns;

  // --- single-thread hash/compress rates (wall clock) --------------------
  // The per-chunk work of a ChunkTable build, one phase at a time over
  // 4 MiB sliced at kChunk; the results fold into the printed checksum
  // so the compiler cannot drop the work.
  const Buffer big = imagery(4096, /*seed=*/17);  // 4 MiB
  const BytesView big_view = as_bytes_view(big);
  const util::Compressor* codec = util::compressor_for(util::Codec::kLz);
  Buffer slot(kChunk - 1);
  uint64_t rate_checksum = 0;
  const auto t0 = std::chrono::steady_clock::now();
  for (size_t off = 0; off < big.size(); off += kChunk) {
    rate_checksum ^= util::hash64(big_view.subspan(off, kChunk));
  }
  const auto t1 = std::chrono::steady_clock::now();
  for (size_t off = 0; off < big.size(); off += kChunk) {
    rate_checksum += codec->compress(big_view.subspan(off, kChunk), slot);
  }
  const auto t2 = std::chrono::steady_clock::now();
  auto mb_s = [&big](std::chrono::steady_clock::duration d) {
    const double us = std::chrono::duration<double, std::micro>(d).count();
    return static_cast<double>(big.size()) / std::max(us, 1e-3);
  };
  const double hash_mb_s = mb_s(t1 - t0);
  const double compress_mb_s = mb_s(t2 - t1);

  // --- C4 counterfactual: reliable unicast to each subscriber ------------
  const uint64_t unicast_bytes =
      run_unicast_wire_bytes(img, kSubscribers, /*loss=*/0.0);

  std::printf("{\n  \"bench\": \"filetransfer\",\n");
  std::printf("  \"subscribers\": %d,\n", kSubscribers);
  std::printf("  \"file_bytes\": %zu,\n", img.size());
  std::printf("  \"wire_bytes_raw_codec\": %llu,\n",
              static_cast<unsigned long long>(raw.pub.wire_bytes_sent));
  std::printf("  \"wire_bytes_lz\": %llu,\n",
              static_cast<unsigned long long>(lz.pub.wire_bytes_sent));
  std::printf("  \"wire_reduction_pct\": %.1f,\n", reduction_pct);
  std::printf("  \"compress_ratio\": %.2f,\n", compress_ratio);
  std::printf("  \"noise_wire_bytes\": %llu,\n",
              static_cast<unsigned long long>(noise_run.pub.wire_bytes_sent));
  std::printf("  \"noise_compress_calls\": %u,\n",
              noise_rev1.stats().compress_calls);
  std::printf("  \"noise_republish_compress_calls\": %u,\n",
              noise_rev2.stats().compress_calls);
  std::printf("  \"dedup_skip_pct\": %.1f,\n", dedup_pct);
  std::printf("  \"republish_wire_bytes\": %llu,\n",
              static_cast<unsigned long long>(second.pub.wire_bytes_sent));
  std::printf("  \"republish_store_fills\": %llu,\n",
              static_cast<unsigned long long>(second.store_fills));
  std::printf("  \"hash_mb_s\": %.0f,\n", hash_mb_s);
  std::printf("  \"compress_mb_s\": %.0f,\n", compress_mb_s);
  std::printf("  \"rate_checksum\": %llu,\n",
              static_cast<unsigned long long>(rate_checksum));
  std::printf("  \"loss\": {\n");
  for (size_t i = 0; i < 3; ++i) {
    const auto& row = rows[i];
    std::printf("    \"%s\": {\"loss\": %.2f, \"completed\": %llu, "
                "\"wire_bytes\": %llu, \"net_bytes\": %llu, "
                "\"retransmits\": %llu, \"transfer_ms\": %.3f}%s\n",
                row.key, row.loss,
                static_cast<unsigned long long>(row.r.completed),
                static_cast<unsigned long long>(row.r.pub.wire_bytes_sent),
                static_cast<unsigned long long>(row.r.net_bytes_sent),
                static_cast<unsigned long long>(row.r.pub.chunk_retransmits),
                Duration{row.r.completion_ns}.millis(), i < 2 ? "," : "");
  }
  std::printf("  },\n");
  std::printf("  \"transfer_ms_loss0\": %.3f,\n",
              Duration{rows[0].r.completion_ns}.millis());
  std::printf("  \"transfer_ms_loss5\": %.3f,\n",
              Duration{rows[1].r.completion_ns}.millis());
  std::printf("  \"transfer_ms_loss20\": %.3f,\n",
              Duration{rows[2].r.completion_ns}.millis());
  std::printf("  \"unicast_wire_bytes_4rx\": %llu,\n",
              static_cast<unsigned long long>(unicast_bytes));
  std::printf("  \"delivered_all\": %s,\n", all_delivered ? "true" : "false");
  std::printf("  \"deterministic\": %s\n}\n",
              deterministic ? "true" : "false");
  return (all_delivered && deterministic) ? 0 : 1;
}
