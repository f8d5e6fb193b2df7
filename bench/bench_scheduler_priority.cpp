// Experiment C9 (paper §6/§4.2): the scheduler is "a simple thread pool
// with fixed priorities for each named primitive", and for events
// "reservation of time slots in both the processor and the network will
// ensure this critical [latency] constraint".
//
// An event stream shares one node's CPU with a heavy file transfer
// (bulk chunk handlers). Three scheduler configurations:
//   fifo      — no priorities (baseline);
//   priority  — fixed per-primitive priorities (the paper's scheduler);
//   priority+slots — priorities plus reserved periodic event slots.
// Metric: event handler queue wait (mean/max, virtual time). Expected
// shape: fifo >> priority >= priority+slots for mean; slots cap the max.
//
// The network half (c9.net): an event stream shares the producer's
// 8 Mbps egress with a 128 KiB file. MFTP admits a chunk only once the
// egress queue has drained, so an event waits behind at most one chunk
// (about 1 ms), not behind the whole queued file (about 135 ms).
#include "bench_util.h"

#include "sched/sim_executor.h"

namespace marea::bench {
namespace {

struct SchedResult {
  double event_mean_wait_us = 0;
  double event_max_wait_us = 0;
  double bulk_mean_wait_us = 0;
  uint64_t events_run = 0;
};

SchedResult run(bool fifo, bool slots) {
  sim::Simulator sim;
  sched::SimExecutor exec(sim);
  exec.set_fifo(fifo);
  if (slots) exec.reserve_event_slots(milliseconds(2), microseconds(300));

  // Bulk load: file-chunk handlers, 400us of CPU each, arriving every
  // 250us for 100ms — the CPU is oversubscribed and a backlog builds.
  for (int i = 0; i < 400; ++i) {
    exec.schedule(microseconds(250) * i, sched::Priority::kFileTransfer,
                  [] {}, microseconds(400));
  }
  // Event handlers: 50us of CPU, every 2ms.
  for (int i = 0; i < 100; ++i) {
    exec.schedule(milliseconds(2) * i, sched::Priority::kEvent, [] {},
                  microseconds(50));
  }
  sim.run(10'000'000);

  const auto& stats = exec.stats();
  SchedResult result;
  int ev = static_cast<int>(sched::Priority::kEvent);
  int file = static_cast<int>(sched::Priority::kFileTransfer);
  if (stats.count[ev]) {
    result.event_mean_wait_us =
        stats.total_wait[ev].micros() / static_cast<double>(stats.count[ev]);
    result.event_max_wait_us = stats.max_wait[ev].micros();
    result.events_run = stats.count[ev];
  }
  if (stats.count[file]) {
    result.bulk_mean_wait_us =
        stats.total_wait[file].micros() /
        static_cast<double>(stats.count[file]);
  }
  return result;
}

void put(Report& report, const std::string& point, const SchedResult& r) {
  report[point + ".event_mean_wait_us"] = r.event_mean_wait_us;
  report[point + ".event_max_wait_us"] = r.event_max_wait_us;
  report[point + ".bulk_mean_wait_us"] = r.bulk_mean_wait_us;
  report[point + ".events_run"] = static_cast<double>(r.events_run);
}

// Publishes one incompressible file of `bytes` as "bulk".
class FilePub final : public mw::Service {
 public:
  explicit FilePub(size_t bytes) : Service("fpub"), bytes_(bytes) {}
  Status on_start() override { return Status::ok(); }
  void publish() {
    Rng rng(1);
    Buffer b(bytes_);
    for (auto& byte : b) byte = static_cast<uint8_t>(rng.next_u64());
    (void)publish_file("bulk", std::move(b));
  }

 private:
  size_t bytes_;
};

class FileSub final : public mw::Service {
 public:
  FileSub() : Service("fsub") {}
  Status on_start() override {
    return subscribe_file("bulk",
                          [this](const proto::FileMeta&, const Buffer&) {
                            ++completed;
                          });
  }
  uint64_t completed = 0;
};

void put_e2e(Report& report, const std::string& point,
             const EventConsumer& econs) {
  report[point + ".event_mean_us"] = econs.latency.mean();
  report[point + ".event_p99_us"] = econs.latency.percentile(0.99);
  report[point + ".event_max_us"] = econs.latency.max();
  report[point + ".delivered"] = static_cast<double>(econs.received);
}

// End-to-end variant: real middleware event latency while a file transfer
// saturates the consumer node, priorities on vs off (fifo).
void under_file_load(Report& report, bool fifo) {
  // Chunk/event handlers cost real CPU on the consumer node (a slow
  // payload computer), so the scheduling policy decides event latency.
  mw::ContainerConfig slow_cpu;
  slow_cpu.handler_cost = microseconds(150);

  mw::SimDomain domain(19);
  auto& n1 = domain.add_node("producer");
  auto eprod = std::make_unique<EventProducer>(64);
  auto* eprod_ptr = eprod.get();
  (void)n1.add_service(std::move(eprod));
  auto fpub = std::make_unique<FilePub>(1024 * 1024);
  auto* fpub_ptr = fpub.get();
  (void)n1.add_service(std::move(fpub));

  auto& n2 = domain.add_node("consumer", slow_cpu);
  domain.executor(1).set_fifo(fifo);
  auto econs = std::make_unique<EventConsumer>();
  auto* econs_ptr = econs.get();
  (void)n2.add_service(std::move(econs));
  (void)n2.add_service(std::make_unique<FileSub>());

  domain.start_all();
  domain.run_for(seconds(1.0));
  fpub_ptr->publish();  // kicks off the bulk transfer
  for (int i = 0; i < 200; ++i) {
    eprod_ptr->fire();
    domain.run_for(milliseconds(2));
  }
  domain.run_for(seconds(5.0));
  put_e2e(report, fifo ? "c9.e2e_fifo" : "c9.e2e_priority", *econs_ptr);
  domain.stop_all();
}

// Network variant: an event every 2 ms while a 128 KiB file crosses the
// producer's 8 Mbps egress (about 135 ms of chunks, as in mission_sim).
void behind_file_on_slow_link(Report& report) {
  mw::SimDomain domain(23);
  sim::LinkParams slow;
  slow.rate_bps = 8e6;
  domain.network().set_default_link(slow);
  auto& n1 = domain.add_node("producer");
  auto eprod = std::make_unique<EventProducer>(64);
  auto* eprod_ptr = eprod.get();
  (void)n1.add_service(std::move(eprod));
  auto fpub = std::make_unique<FilePub>(128 * 1024);
  auto* fpub_ptr = fpub.get();
  (void)n1.add_service(std::move(fpub));

  auto& n2 = domain.add_node("consumer");
  auto econs = std::make_unique<EventConsumer>();
  auto* econs_ptr = econs.get();
  (void)n2.add_service(std::move(econs));
  auto fsub = std::make_unique<FileSub>();
  auto* fsub_ptr = fsub.get();
  (void)n2.add_service(std::move(fsub));

  domain.start_all();
  domain.run_for(seconds(1.0));
  fpub_ptr->publish();
  for (int i = 0; i < 100; ++i) {
    eprod_ptr->fire();
    domain.run_for(milliseconds(2));
  }
  domain.run_for(seconds(5.0));
  put_e2e(report, "c9.net", *econs_ptr);
  report["c9.net.file_done"] = static_cast<double>(fsub_ptr->completed);
  domain.stop_all();
}

}  // namespace

void scheduler_priority(Report& report) {
  put(report, "c9.fifo", run(/*fifo=*/true, /*slots=*/false));
  put(report, "c9.priority", run(/*fifo=*/false, /*slots=*/false));
  put(report, "c9.slots", run(/*fifo=*/false, /*slots=*/true));
  under_file_load(report, /*fifo=*/true);
  under_file_load(report, /*fifo=*/false);
  behind_file_on_slow_link(report);
  // The claim: fixed per-primitive priorities keep events ahead of bulk
  // work, on the synthetic CPU and end to end under a file transfer.
  report["c9.claim.fifo_over_priority_event_wait"] =
      report["c9.fifo.event_mean_wait_us"] /
      report["c9.priority.event_mean_wait_us"];
  report["c9.claim.fifo_over_priority_e2e_mean"] =
      report["c9.e2e_fifo.event_mean_us"] /
      report["c9.e2e_priority.event_mean_us"];
}

}  // namespace marea::bench
