// Shared scaffolding for the benches: tiny services that produce/consume
// each primitive with virtual-time latency capture, and the experiment
// entry points bench_claims runs. Those experiments run on the
// deterministic simulator and report only virtual time and counts, so
// two runs agree byte for byte.
#pragma once

#include <algorithm>
#include <map>
#include <memory>
#include <numeric>
#include <string>
#include <vector>

#include "encoding/typed.h"
#include "middleware/domain.h"
#include "protocol/arq.h"

namespace marea::bench {

// Flat "<id>.<point>.<metric>" -> value; bench_claims prints it as one
// JSON document (std::map keeps the key order, and so the bytes, stable).
using Report = std::map<std::string, double>;

// One per experiment file; each runs its sweep and writes its keys.
void primitives_latency(Report& report);   // C1
void variable_fanout(Report& report);      // C2
void event_reliability(Report& report);    // C3
void file_late_join(Report& report);       // C5
void local_bypass(Report& report);         // F2 / C6
void rpc_failover(Report& report);         // C7
void name_resolution(Report& report);      // C8
void scheduler_priority(Report& report);   // C9
void comm_models(Report& report);          // C10
void scenario(Report& report);             // F3
void ablation(Report& report);             // A1-A3

struct Payload {
  std::vector<uint8_t> data;
};

struct LatencyStats {
  std::vector<double> samples_us;

  void add(Duration d) { samples_us.push_back(d.micros()); }
  double mean() const {
    if (samples_us.empty()) return 0;
    return std::accumulate(samples_us.begin(), samples_us.end(), 0.0) /
           static_cast<double>(samples_us.size());
  }
  double percentile(double p) const {
    if (samples_us.empty()) return 0;
    std::vector<double> sorted = samples_us;
    std::sort(sorted.begin(), sorted.end());
    size_t idx = static_cast<size_t>(p * static_cast<double>(sorted.size() - 1));
    return sorted[idx];
  }
  double max() const {
    return samples_us.empty()
               ? 0
               : *std::max_element(samples_us.begin(), samples_us.end());
  }
};

// One reliable event stream: 300 events of 200 B, 5 ms apart.
struct ReliableRun {
  LatencyStats latency;
  uint64_t wire_bytes = 0;
  uint64_t delivered = 0;
};

// C3's middleware-ARQ stream between two raw nodes over a link with
// `loss` (bench_event_reliability.cpp); ablation A1 reuses it with fast
// retransmit switched off.
ReliableRun run_arq(double loss, const proto::ArqParams& params);

// --- minimal bench services -----------------------------------------------------

class VarProducer final : public mw::Service {
 public:
  explicit VarProducer(size_t payload_bytes)
      : Service("producer"), payload_bytes_(payload_bytes) {}

  Status on_start() override {
    auto h = provide_variable<Payload>(
        "bench.var", {.period = kDurationZero, .validity = seconds(10.0)});
    if (!h.ok()) return h.status();
    handle_ = *h;
    return Status::ok();
  }

  void push() {
    Payload p;
    p.data.assign(payload_bytes_, 0x7E);
    (void)handle_.publish(p);
  }

 private:
  size_t payload_bytes_;
  mw::VariableHandle handle_;
};

class VarConsumer final : public mw::Service {
 public:
  explicit VarConsumer(std::string name = "consumer")
      : Service(std::move(name)) {}

  Status on_start() override {
    return subscribe_variable<Payload>(
        "bench.var", [this](const Payload&, const mw::SampleInfo& info) {
          ++received;
          if (!info.from_snapshot) latency.add(info.latency);
        });
  }

  uint64_t received = 0;
  LatencyStats latency;
};

class EventProducer final : public mw::Service {
 public:
  explicit EventProducer(size_t payload_bytes)
      : Service("eproducer"), payload_bytes_(payload_bytes) {}

  Status on_start() override {
    auto h = provide_event<Payload>("bench.event");
    if (!h.ok()) return h.status();
    handle_ = *h;
    return Status::ok();
  }

  void fire() {
    Payload p;
    p.data.assign(payload_bytes_, 0x7E);
    (void)handle_.publish(p);
  }

 private:
  size_t payload_bytes_;
  mw::EventHandle handle_;
};

class EventConsumer final : public mw::Service {
 public:
  explicit EventConsumer(std::string name = "econsumer")
      : Service(std::move(name)) {}

  Status on_start() override {
    return subscribe_event<Payload>(
        "bench.event", [this](const Payload&, const mw::EventInfo& info) {
          ++received;
          latency.add(info.latency);
        });
  }

  uint64_t received = 0;
  LatencyStats latency;
};

class EchoServer final : public mw::Service {
 public:
  EchoServer() : Service("echo") {}
  Status on_start() override {
    return provide_function(
        "bench.echo", enc::bytes_type(), enc::bytes_type(),
        [](const enc::Value& v) -> StatusOr<enc::Value> { return v; });
  }
};

class EchoClient final : public mw::Service {
 public:
  explicit EchoClient(size_t payload_bytes)
      : Service("echo_client"), payload_bytes_(payload_bytes) {}
  Status on_start() override { return Status::ok(); }

  void invoke() {
    TimePoint sent = now();
    call("bench.echo",
         enc::Value::of_bytes(Buffer(payload_bytes_, 0x7E)),
         [this, sent](StatusOr<enc::Value> result) {
           if (result.ok()) {
             ++completed;
             round_trip.add(now() - sent);
           } else {
             ++failed;
           }
         });
  }

  uint64_t completed = 0;
  uint64_t failed = 0;
  LatencyStats round_trip;

 private:
  size_t payload_bytes_;
};

}  // namespace marea::bench

MAREA_REFLECT(marea::bench::Payload, data)
