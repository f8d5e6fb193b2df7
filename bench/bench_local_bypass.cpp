// Experiments F2 + C6 (paper Fig 2 / §4.4): same-container communication
// is handled by local message delivery and, for file resources, "the
// transfer is bypassed by the container as direct access to the resource".
//
// For each primitive, compares virtual-time latency and wire bytes for a
// consumer co-located with the producer vs one on a remote node.
// Expected shape: local latencies are scheduler-only (microseconds, zero
// wire bytes); remote add network latency and bandwidth.
#include "bench_util.h"

namespace marea::bench {
namespace {

struct BypassResult {
  double latency_us = 0;
  uint64_t wire_bytes = 0;
};

template <typename Producer, typename Consumer, typename Fire>
BypassResult run(bool local, Fire fire, size_t payload) {
  mw::SimDomain domain(13);
  auto& n1 = domain.add_node("producer");
  auto prod = std::make_unique<Producer>(payload);
  auto* prod_ptr = prod.get();
  (void)n1.add_service(std::move(prod));
  Consumer* cons_ptr = nullptr;
  if (local) {
    auto cons = std::make_unique<Consumer>();
    cons_ptr = cons.get();
    (void)n1.add_service(std::move(cons));
  } else {
    auto& n2 = domain.add_node("consumer");
    auto cons = std::make_unique<Consumer>();
    cons_ptr = cons.get();
    (void)n2.add_service(std::move(cons));
  }
  domain.start_all();
  domain.run_for(seconds(1.0));
  domain.network().reset_stats();
  for (int i = 0; i < 100; ++i) {
    fire(prod_ptr);
    domain.run_for(milliseconds(5));
  }
  domain.run_for(milliseconds(100));
  BypassResult result;
  result.latency_us = cons_ptr->latency.mean();
  result.wire_bytes = domain.network().stats().bytes_sent;
  domain.stop_all();
  return result;
}

// File resource: a 512 KiB image delivered to a co-located vs remote
// subscriber (the §4.4 bypass in the container).
BypassResult run_file(bool local) {
  static constexpr size_t kBytes = 512 * 1024;

  class FilePub final : public mw::Service {
   public:
    FilePub() : Service("fpub") {}
    Status on_start() override { return Status::ok(); }
    void publish() {
      Rng rng(1);
      Buffer b(kBytes);
      for (auto& byte : b) byte = static_cast<uint8_t>(rng.next_u64());
      publish_at = now();
      (void)publish_file("img", std::move(b));
    }
    TimePoint publish_at{};
  };
  class FileSub final : public mw::Service {
   public:
    FileSub() : Service("fsub") {}
    Status on_start() override {
      return subscribe_file("img",
                            [this](const proto::FileMeta&, const Buffer&) {
                              done_at = now();
                            });
    }
    std::optional<TimePoint> done_at;
  };

  mw::SimDomain domain(14);
  auto& n1 = domain.add_node("pub");
  auto pub = std::make_unique<FilePub>();
  auto* pub_ptr = pub.get();
  (void)n1.add_service(std::move(pub));
  auto sub = std::make_unique<FileSub>();
  auto* sub_ptr = sub.get();
  (void)(local ? n1 : domain.add_node("sub")).add_service(std::move(sub));
  domain.start_all();
  domain.run_for(seconds(1.0));
  domain.network().reset_stats();
  pub_ptr->publish();
  domain.run_for(seconds(30.0));
  BypassResult result;
  // Delivery time in microseconds like the other primitives; -1 = never.
  result.latency_us =
      sub_ptr->done_at ? (*sub_ptr->done_at - pub_ptr->publish_at).micros()
                       : -1.0;
  result.wire_bytes = domain.network().stats().bytes_sent;
  domain.stop_all();
  return result;
}

}  // namespace

void local_bypass(Report& report) {
  for (bool local : {true, false}) {
    const std::string where = local ? "local" : "remote";
    auto put = [&](const std::string& primitive, const BypassResult& r) {
      const std::string point = "f2." + where + "_" + primitive;
      report[point + ".latency_us"] = r.latency_us;
      report[point + ".wire_bytes"] = static_cast<double>(r.wire_bytes);
    };
    // Events are the latency-critical path.
    auto event = run<EventProducer, EventConsumer>(
        local, [](EventProducer* p) { p->fire(); }, 64);
    put("event", event);
    auto variable = run<VarProducer, VarConsumer>(
        local, [](VarProducer* p) { p->push(); }, 64);
    put("variable", variable);
    put("file", run_file(local));
  }
}

}  // namespace marea::bench
