#include "sim_common.h"

#include <algorithm>

#include "protocol/frame.h"

namespace perfbench {

using marea::mw::SimDomain;

namespace {

double per(double num, double den) { return den > 0 ? num / den : 0; }

template <typename Fn>
double time_calls_ns(size_t n_items, int budget_ms, Fn&& call) {
  if (n_items == 0) return 0;
  const int64_t budget = static_cast<int64_t>(budget_ms) * 1000000;
  const int64_t t0 = wall_ns();
  uint64_t calls = 0;
  int64_t t = t0;
  size_t i = 0;
  while (t - t0 < budget) {
    for (int k = 0; k < 64; ++k) {
      call(i);
      if (++i == n_items) i = 0;
    }
    calls += 64;
    t = wall_ns();
  }
  return per(static_cast<double>(t - t0), static_cast<double>(calls));
}

}  // namespace

SimCounters SimCounters::read(SimDomain& d) {
  marea::obs::MetricsRegistry& reg = d.obs().metrics;
  reg.collect();
  SimCounters c;
  c.net_bytes_sent = reg.counter_value("net.bytes_sent");
  c.net_packets_sent = reg.counter_value("net.packets_sent");
  c.net_packets_delivered = reg.counter_value("net.packets_delivered");
  c.net_payload_copies = reg.counter_value("net.payload_copies");
  c.sim_events = reg.counter_value("sim.events_executed");
  c.fn_heap_fallbacks = reg.counter_value("sim.fn_heap_fallbacks");
  c.pool_checkouts = reg.counter_value("pool.checkouts");
  c.pool_hits = reg.counter_value("pool.hits");
  c.pool_slab_allocs = reg.counter_value("pool.slab_allocs");
  for (size_t i = 0; i < d.node_count(); ++i) {
    const marea::mw::ServiceContainer& ct = d.container(i);
    const marea::mw::ContainerStats& s = ct.stats();
    c.frames_received += s.frames_received;
    c.frames_dropped += s.frames_dropped;
    c.name_queries += s.name_queries_sent;
    for (const auto& [name, u] : ct.usage()) c.payload_bytes += u.payload_bytes_sent;
    const std::string p = "mw." + std::to_string(ct.config().id) + ".";
    c.arq_messages += reg.counter_value(p + "arq.messages_accepted");
    c.arq_frames_sent += reg.counter_value(p + "arq.frames_sent");
    c.arq_retransmits += reg.counter_value(p + "arq.retransmits");
    c.arq_frames_received += reg.counter_value(p + "arq.frames_received");
    c.arq_duplicates += reg.counter_value(p + "arq.duplicates");
    c.arq_acks += reg.counter_value(p + "arq.acks_sent");
    c.mftp_chunks_sent += reg.counter_value(p + "mftp.chunks_sent");
    c.mftp_duplicate_chunks += reg.counter_value(p + "mftp.duplicate_chunks");
    c.mftp_payload_bytes += reg.counter_value(p + "mftp.payload_bytes_sent");
    c.mftp_wire_bytes += reg.counter_value(p + "mftp.bytes_on_wire");
    c.mftp_chunks_received += reg.counter_value(p + "mftp.chunks_received");
    c.mftp_chunks_deduped += reg.counter_value(p + "mftp.chunks_deduped");
    c.mftp_hash_mismatches += reg.counter_value(p + "mftp.hash_mismatches");
    const marea::sched::SimExecutorStats& es = d.executor(i).stats();
    c.tasks_run += es.tasks_run;
    for (int k = 0; k < marea::sched::kPriorityCount; ++k) {
      c.wait_ns[k] += es.total_wait[k].ns;
      c.wait_count[k] += es.count[k];
      c.max_wait_ns = std::max(c.max_wait_ns, es.max_wait[k].ns);
    }
  }
  return c;
}

SimCounters SimCounters::before(SimDomain& d) {
  SimCounters c = read(d);
  c.allocs = allocs_total() - calibration_allocs();
  return c;
}

SimCounters SimCounters::after(SimDomain& d) {
  const uint64_t a = allocs_total() - calibration_allocs();
  SimCounters c = read(d);
  c.allocs = a;
  return c;
}

SimCounters SimCounters::operator-(const SimCounters& o) const {
  SimCounters r = *this;
#define PB_SUB(f) r.f = f - o.f
  PB_SUB(allocs);
  PB_SUB(net_bytes_sent);
  PB_SUB(net_packets_sent);
  PB_SUB(net_packets_delivered);
  PB_SUB(net_payload_copies);
  PB_SUB(sim_events);
  PB_SUB(fn_heap_fallbacks);
  PB_SUB(pool_checkouts);
  PB_SUB(pool_hits);
  PB_SUB(pool_slab_allocs);
  PB_SUB(frames_received);
  PB_SUB(frames_dropped);
  PB_SUB(name_queries);
  PB_SUB(payload_bytes);
  PB_SUB(arq_messages);
  PB_SUB(arq_frames_sent);
  PB_SUB(arq_retransmits);
  PB_SUB(arq_frames_received);
  PB_SUB(arq_duplicates);
  PB_SUB(arq_acks);
  PB_SUB(mftp_chunks_sent);
  PB_SUB(mftp_duplicate_chunks);
  PB_SUB(mftp_payload_bytes);
  PB_SUB(mftp_wire_bytes);
  PB_SUB(mftp_chunks_received);
  PB_SUB(mftp_chunks_deduped);
  PB_SUB(mftp_hash_mismatches);
  PB_SUB(tasks_run);
#undef PB_SUB
  for (int k = 0; k < marea::sched::kPriorityCount; ++k) {
    r.wait_ns[k] = wait_ns[k] - o.wait_ns[k];
    r.wait_count[k] = wait_count[k] - o.wait_count[k];
  }
  return r;  // max_wait_ns stays the later snapshot's running maximum
}

SegmentTimes run_segments(const RunOptions& opt, int det_segments,
                          const std::function<uint64_t()>& segment,
                          const std::function<void()>& on_det_done) {
  SegmentTimes st;
  const int64_t deadline =
      wall_ns() + static_cast<int64_t>(opt.seconds * 1e9);
  for (int i = 0;; ++i) {
    const bool traced = opt.trace && (i % 2 == 1);
    const double calib0 = calibration_cpu_ns();
    tracing_enable(traced);
    const int64_t w0 = wall_ns();
    const int64_t c0 = process_cpu_ns();
    const uint64_t ops = segment();
    const int64_t c1 = process_cpu_ns();
    const int64_t w1 = wall_ns();
    tracing_enable(false);
    st.ops += ops;
    const double cpu_per_op =
        scaled_cpu_per_op(static_cast<double>(c1 - c0), static_cast<double>(ops),
                          0.5 * (calib0 + calibration_cpu_ns()));
    if (traced) {
      st.traced_ops += ops;
      st.traced_wall_ns += w1 - w0;
      st.traced_cpu_per_op.push_back(cpu_per_op);
    } else {
      st.untraced_cpu_per_op.push_back(cpu_per_op);
    }
    if (i == det_segments - 1) on_det_done();
    const bool enough_traced = !opt.trace || st.traced_cpu_per_op.size() >= 2;
    if (i + 1 >= det_segments && enough_traced && w1 >= deadline) break;
  }
  return st;
}

double replay_encode_ns(const std::vector<ReplayItem>& items, int budget_ms) {
  marea::Buffer buf;
  return time_calls_ns(items.size(), budget_ms, [&](size_t i) {
    (void)marea::enc::encode_value_into(items[i].value, *items[i].type, buf);
  });
}

double replay_decode_ns(const std::vector<ReplayItem>& items, int budget_ms) {
  std::vector<marea::Buffer> wire(items.size());
  for (size_t i = 0; i < items.size(); ++i) {
    (void)marea::enc::encode_value_into(items[i].value, *items[i].type,
                                        wire[i]);
  }
  return time_calls_ns(items.size(), budget_ms, [&](size_t i) {
    auto v = marea::enc::decode_value(marea::BytesView(wire[i]),
                                      *items[i].type);
    (void)v;
  });
}

double replay_tagged_encode_ns(const std::vector<ReplayItem>& items,
                               int budget_ms) {
  marea::Buffer buf;
  return time_calls_ns(items.size(), budget_ms, [&](size_t i) {
    buf.clear();
    marea::ByteWriter w(buf);
    marea::enc::encode_tagged(items[i].value, w);
  });
}

double replay_frame_ns(const std::vector<ReplayItem>& items, int budget_ms) {
  std::vector<marea::Buffer> wire(items.size());
  for (size_t i = 0; i < items.size(); ++i) {
    (void)marea::enc::encode_value_into(items[i].value, *items[i].type,
                                        wire[i]);
  }
  marea::FramePool pool;
  return time_calls_ns(items.size(), budget_ms, [&](size_t i) {
    marea::proto::FrameBuilder fb(
        pool, marea::proto::FrameHeader{marea::proto::MsgType::kVarSample, 1});
    fb.payload().bytes(marea::BytesView(wire[i]));
    marea::SharedFrame f = std::move(fb).seal();
    marea::BytesView payload;
    auto h = marea::proto::open_frame(f.view(), &payload);
    (void)h;
  });
}

void report_sim_layers(Report& r, const SimCounters& c, uint64_t ops,
                       uint64_t file_bytes, const SegmentTimes& seg,
                       const std::vector<ReplayItem>& replay) {
  const double n = static_cast<double>(ops);
  r.set("middleware.frames_received_per_op",
        per(static_cast<double>(c.frames_received), n));
  r.set("middleware.frames_dropped", static_cast<double>(c.frames_dropped));
  r.set("middleware.name_queries_sent", static_cast<double>(c.name_queries));
  const double payload_on_wire = static_cast<double>(c.payload_bytes) -
                                 static_cast<double>(file_bytes) +
                                 static_cast<double>(c.mftp_wire_bytes);
  r.set("protocol.header_bytes_per_op",
        per(static_cast<double>(c.net_bytes_sent) - payload_on_wire, n));
  r.set("protocol.arq_retransmit_ratio",
        per(static_cast<double>(c.arq_retransmits),
            static_cast<double>(c.arq_frames_sent)));
  r.set("protocol.arq_duplicate_ratio",
        per(static_cast<double>(c.arq_duplicates),
            static_cast<double>(c.arq_frames_received)));
  r.set("protocol.arq_acks_per_message",
        per(static_cast<double>(c.arq_acks),
            static_cast<double>(c.arq_messages)));
  // Chunk arrivals a receiver already had: repair sends that were wasted
  // on it. (The publisher's own chunk_retransmits counts every send after
  // round 0, and the container starts every transfer from a status poll,
  // so that ratio is always 1.)
  r.set("protocol.mftp_chunk_retransmit_ratio",
        per(static_cast<double>(c.mftp_duplicate_chunks),
            static_cast<double>(c.mftp_duplicate_chunks + c.mftp_chunks_received)));
  r.set("protocol.mftp_wire_per_payload",
        per(static_cast<double>(c.mftp_wire_bytes),
            static_cast<double>(c.mftp_payload_bytes)));
  r.set("protocol.mftp_dedup_ratio",
        per(static_cast<double>(c.mftp_chunks_deduped),
            static_cast<double>(c.mftp_chunks_deduped +
                                c.mftp_chunks_received)));
  r.set("protocol.mftp_hash_mismatches",
        static_cast<double>(c.mftp_hash_mismatches));
  r.set("transport.frames_sent_per_op",
        per(static_cast<double>(c.net_packets_sent), n));
  r.set("transport.payload_copies_per_op",
        per(static_cast<double>(c.net_payload_copies), n));
  r.set("util.pool_hit_ratio", per(static_cast<double>(c.pool_hits),
                                   static_cast<double>(c.pool_checkouts)));
  r.set("util.pool_slab_allocs_per_op",
        per(static_cast<double>(c.pool_slab_allocs), n));
  r.set("sim.events_per_op", per(static_cast<double>(c.sim_events), n));
  r.set("sim.packets_per_op",
        per(static_cast<double>(c.net_packets_delivered), n));
  r.set("sim.fn_heap_fallbacks_per_op",
        per(static_cast<double>(c.fn_heap_fallbacks), n));
  r.set("sched.tasks_per_op", per(static_cast<double>(c.tasks_run), n));
  using marea::sched::Priority;
  auto wait_us = [&](Priority p) {
    const int k = static_cast<int>(p);
    return per(static_cast<double>(c.wait_ns[k]) / 1000.0,
               static_cast<double>(c.wait_count[k]));
  };
  r.set("sched.wait_us.event", wait_us(Priority::kEvent));
  r.set("sched.wait_us.rpc", wait_us(Priority::kRpc));
  r.set("sched.wait_us.variable", wait_us(Priority::kVariable));
  r.set("sched.wait_us.file", wait_us(Priority::kFileTransfer));
  r.set("sched.max_wait_us", static_cast<double>(c.max_wait_ns) / 1000.0);

  LayerTotals lt[static_cast<size_t>(Layer::kCount)] = {};
  collect_layer_totals(lt);
  auto at = [&](Layer l) -> const LayerTotals& {
    return lt[static_cast<size_t>(l)];
  };
  const double tn = static_cast<double>(seg.traced_ops);
  r.set("encoding.to_value_ns_per_op",
        per(static_cast<double>(at(Layer::kToValue).self_ns), tn));
  r.set("encoding.from_value_ns_per_delivery",
        per(static_cast<double>(at(Layer::kFromValue).self_ns),
            static_cast<double>(at(Layer::kFromValue).count)));
  r.set("encoding.presentation_allocs_per_op",
        per(static_cast<double>(at(Layer::kToValue).self_allocs +
                                at(Layer::kFromValue).self_allocs),
            tn));
  r.set("middleware.publish_ns_per_op",
        per(static_cast<double>(at(Layer::kMiddleware).self_ns), tn));
  r.set("middleware.publish_allocs_per_op",
        per(static_cast<double>(at(Layer::kMiddleware).self_allocs), tn));
  r.set("sim.run_self_ns_per_op",
        per(static_cast<double>(at(Layer::kSim).self_ns), tn));
  // Tasks of the traced segments, prorated by their share of all ops.
  const double traced_tasks = per(static_cast<double>(c.tasks_run) * tn, n);
  r.set("sched.run_ns_per_task",
        per(static_cast<double>(at(Layer::kSim).total_ns), traced_tasks));
  r.set("services.handler_ns",
        per(static_cast<double>(at(Layer::kHandler).self_ns),
            static_cast<double>(at(Layer::kHandler).count)));
  int64_t self_sum = 0;
  for (const LayerTotals& t : lt) self_sum += t.self_ns;
  r.set("obs.trace_coverage", per(static_cast<double>(self_sum),
                                  static_cast<double>(seg.traced_wall_ns)));
  r.set("obs.trace_overhead", per(cpu_low_decile(seg.traced_cpu_per_op),
                                  cpu_low_decile(seg.untraced_cpu_per_op)) -
                                  1.0);

  r.set("encoding.encode_ns", replay_encode_ns(replay, 50));
  r.set("encoding.decode_ns", replay_decode_ns(replay, 50));
  r.set("encoding.tagged_encode_ns", replay_tagged_encode_ns(replay, 50));
  r.set("protocol.frame_ns", replay_frame_ns(replay, 50));
}

bool start_and_discover(SimDomain& d, marea::Duration discovery) {
  d.start_all();
  d.run_for(discovery);
  for (size_t i = 0; i < d.node_count(); ++i) {
    if (d.container(i).known_peers().size() + 1 != d.node_count()) return false;
  }
  return true;
}

double median_setup_s(int repeats, const std::function<double()>& setup) {
  std::vector<double> t;
  for (int i = 0; i < repeats; ++i) {
    const double c0 = calibration_cpu_ns();
    const double s = setup();
    const double c1 = calibration_cpu_ns();
    t.push_back(s * kCalibrationRefNs / (0.5 * (c0 + c1)));
  }
  return median_of(t);
}

}  // namespace perfbench
