// Experiment C5 (paper §4.4): "when the transfer is on-going, a new
// service can subscribe to it and resume at the current point. At the
// completion phase it will ask for all the chunks sent before it was
// connected."
//
// A subscriber joins when the publisher is `join_pct`% through the file.
// Compared against the strawman of restarting a dedicated full transfer
// for the latecomer. Metric: extra chunks the publisher transmits beyond
// the single base pass. Expected shape: late join costs ~join_pct% extra
// (the missed prefix), not 100%.
#include "bench_util.h"

namespace marea::bench {
namespace {

struct JoinResult {
  uint64_t total_chunks_sent = 0;
  uint64_t base_chunks = 0;
  bool late_done = false;
  double late_completion_ms = 0;
};

JoinResult run(int join_pct) {
  mw::SimDomain domain(12);
  auto& n1 = domain.add_node("pub");

  class Pub final : public mw::Service {
   public:
    Pub() : Service("pub") {}
    Status on_start() override { return Status::ok(); }
    void publish(Buffer content) {
      (void)publish_file("big", std::move(content));
    }
  };
  auto pub = std::make_unique<Pub>();
  auto* pub_ptr = pub.get();
  (void)n1.add_service(std::move(pub));

  class Sub final : public mw::Service {
   public:
    explicit Sub(std::string name) : Service(std::move(name)) {}
    Status on_start() override {
      return subscribe_file("big",
                            [this](const proto::FileMeta&, const Buffer&) {
                              done_at = now();
                            });
    }
    std::optional<TimePoint> done_at;
  };

  // First subscriber from the start.
  auto& n2 = domain.add_node("early");
  auto early = std::make_unique<Sub>("early");
  (void)n2.add_service(std::move(early));

  domain.start_all();
  domain.run_for(milliseconds(500));

  const size_t kFileBytes = 200 * 1024;
  Rng rng(3);
  Buffer content(kFileBytes);
  for (auto& b : content) b = static_cast<uint8_t>(rng.next_u64());
  pub_ptr->publish(content);

  // 1024-byte chunks every 100us (mftp defaults): the transfer takes
  // ~200 chunks * 100us = ~20ms. Join at join_pct of that.
  Duration join_at = microseconds(100) * (200 * join_pct / 100);
  domain.run_for(join_at);

  auto& n3 = domain.add_node("late");
  auto late = std::make_unique<Sub>("late");
  auto* late_ptr = late.get();
  (void)n3.add_service(std::move(late));
  (void)n3.start();

  TimePoint join_time = domain.sim().now();
  domain.run_for(seconds(10.0));

  JoinResult result;
  result.base_chunks = (kFileBytes + 1023) / 1024;
  // Count chunks from the publisher's node traffic: approximate via wire
  // packet count of the pub node minus control chatter — instead expose
  // the exact count from container stats? The MFTP publisher stats are
  // internal; use delivered-to-group packets: chunks dominate.
  result.total_chunks_sent =
      domain.network().node_stats(domain.node_id(0)).packets_sent;
  if (late_ptr->done_at) {
    result.late_done = true;
    result.late_completion_ms = (*late_ptr->done_at - join_time).millis();
  }
  domain.stop_all();
  return result;
}

}  // namespace

void file_late_join(Report& report) {
  for (int join_pct : {0, 25, 50, 75}) {
    JoinResult result = run(join_pct);
    const std::string point = "c5.join_" + std::to_string(join_pct);
    report[point + ".pub_packets"] =
        static_cast<double>(result.total_chunks_sent);
    report[point + ".base_chunks"] = static_cast<double>(result.base_chunks);
    report[point + ".extra_ratio"] =
        static_cast<double>(result.total_chunks_sent) /
        static_cast<double>(result.base_chunks);
    report[point + ".late_done"] = result.late_done ? 1 : 0;
    report[point + ".late_completion_ms"] = result.late_completion_ms;
  }
  // The claim: a latecomer costs the prefix it missed (about one packet
  // per missed chunk over the join-at-0% run), not a second transfer.
  const double missed_at_50 = report["c5.join_50.base_chunks"] / 2;
  report["c5.claim.extra_pkts_per_missed_chunk_50"] =
      (report["c5.join_50.pub_packets"] - report["c5.join_0.pub_packets"]) /
      missed_at_50;
}

}  // namespace marea::bench
