// Experiment C3 (paper §4.2): the app-layer acknowledge/resend mechanism
// "is more efficient for event messages than the generic case provided by
// the TCP stack."
//
// Head-to-head on the same lossy link: a stream of event messages through
//   (a) the middleware's per-message selective-repeat ARQ, and
//   (b) the TCP model (ordered byte stream, cumulative ACK, RTO).
// Metric: virtual-time delivery latency (mean/p99/max). Expected shape:
// comparable at 0% loss; ARQ's p99 grows mildly with loss while TCP's
// explodes (head-of-line blocking + coarse RTO).
#include "bench_util.h"

#include "transport/sim_transport.h"
#include "transport/tcp_model.h"

namespace marea::bench {
namespace {

constexpr int kMessages = 300;
constexpr size_t kPayload = 200;
constexpr Duration kGap = milliseconds(5);

}  // namespace

// (a) middleware ARQ between two raw nodes.
ReliableRun run_arq(double loss, const proto::ArqParams& params) {
  sim::Simulator sim;
  sim::SimNetwork net(sim, Rng(7));
  sched::SimExecutor exec(sim);
  sim::NodeId a = net.add_node("a");
  sim::NodeId b = net.add_node("b");
  sim::LinkParams lp;
  lp.loss = loss;
  net.set_link_symmetric(a, b, lp);

  ReliableRun result;
  std::vector<TimePoint> sent_at(kMessages);

  proto::ArqSender sender(
      exec, sched::Priority::kEvent, params,
      [&](const proto::ReliableDataMsg& msg) {
        ByteWriter w;
        msg.encode(w);
        (void)net.send(Address{a, 1}, Address{b, 1},
                       net.frame_pool().copy_in(w.view()));
      });
  proto::ArqReceiver receiver(
      [&](const proto::ReliableAckMsg& ack) {
        ByteWriter w;
        ack.encode(w);
        (void)net.send(Address{b, 1}, Address{a, 1},
                       net.frame_pool().copy_in(w.view()));
      },
      [&](proto::InnerType, BytesView inner) {
        ByteReader r(inner);
        uint32_t id = r.u32();
        result.delivered++;
        result.latency.add(sim.now() - sent_at[id]);
      });
  (void)net.bind_frames(
      Address{b, 1},
      [&](Address, const SharedFrame& frame) {
        ByteReader r(frame.view());
        proto::ReliableDataMsg msg;
        if (proto::ReliableDataMsg::decode(r, msg)) receiver.on_data(msg);
      });
  (void)net.bind_frames(
      Address{a, 1},
      [&](Address, const SharedFrame& frame) {
        ByteReader r(frame.view());
        proto::ReliableAckMsg ack;
        if (proto::ReliableAckMsg::decode(r, ack)) sender.on_ack(ack);
      });

  for (int i = 0; i < kMessages; ++i) {
    sim.after(kGap * i, [&, i] {
      sent_at[static_cast<size_t>(i)] = sim.now();
      ByteWriter w;
      w.u32(static_cast<uint32_t>(i));
      w.bytes(Buffer(kPayload, 0x55));
      sender.send(proto::InnerType::kEvent, w.take());
    });
  }
  sim.run(10'000'000);
  result.wire_bytes = net.stats().bytes_sent;
  return result;
}

namespace {

// (b) TCP model on the identical link.
ReliableRun run_tcp(double loss) {
  sim::Simulator sim;
  sim::SimNetwork net(sim, Rng(7));
  sim::NodeId a = net.add_node("a");
  sim::NodeId b = net.add_node("b");
  sim::LinkParams lp;
  lp.loss = loss;
  net.set_link_symmetric(a, b, lp);
  transport::SimTransport ta(net, a), tb(net, b);

  ReliableRun result;
  std::vector<TimePoint> sent_at(kMessages);

  transport::TcpModelEndpoint peer_b(
      sim, tb, 1, transport::Address{a, 1}, transport::TcpParams{},
      [&](BytesView msg) {
        ByteReader r(msg);
        uint32_t id = r.u32();
        result.delivered++;
        result.latency.add(sim.now() - sent_at[id]);
      });
  transport::TcpModelEndpoint peer_a(sim, ta, 1, transport::Address{b, 1},
                                     transport::TcpParams{}, nullptr);

  for (int i = 0; i < kMessages; ++i) {
    sim.after(kGap * i, [&, i] {
      sent_at[static_cast<size_t>(i)] = sim.now();
      ByteWriter w;
      w.u32(static_cast<uint32_t>(i));
      w.bytes(Buffer(kPayload, 0x55));
      Buffer msg = w.take();
      (void)peer_a.send_message(as_bytes_view(msg));
    });
  }
  sim.run(10'000'000);
  result.wire_bytes = peer_a.stats().bytes_sent + peer_b.stats().bytes_sent;
  return result;
}

void put(Report& report, const std::string& point, const ReliableRun& result) {
  report[point + ".mean_us"] = result.latency.mean();
  report[point + ".p99_us"] = result.latency.percentile(0.99);
  report[point + ".max_us"] = result.latency.max();
  report[point + ".delivered"] = static_cast<double>(result.delivered);
  report[point + ".wire_bytes"] = static_cast<double>(result.wire_bytes);
}

}  // namespace

void event_reliability(Report& report) {
  for (int loss_pct : {0, 5, 10, 20, 30}) {
    const double loss = loss_pct / 100.0;
    const std::string pct = std::to_string(loss_pct);
    put(report, "c3.arq_loss" + pct, run_arq(loss, proto::ArqParams{}));
    put(report, "c3.tcp_loss" + pct, run_tcp(loss));
  }
  // The claim: per-message selective repeat beats TCP's ordered stream
  // under loss, in latency and in wire bytes.
  report["c3.claim.tcp_over_arq_mean_30"] =
      report["c3.tcp_loss30.mean_us"] / report["c3.arq_loss30.mean_us"];
  report["c3.claim.tcp_over_arq_wire_30"] =
      report["c3.tcp_loss30.wire_bytes"] / report["c3.arq_loss30.wire_bytes"];
}

}  // namespace marea::bench
