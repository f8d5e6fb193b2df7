// Container restart semantics: stop() -> start() bumps the incarnation,
// re-announces the manifest, and makes peers discard every piece of state
// bound to the old incarnation — variable sequence watermarks, ordered
// event streams, ARQ channels — so traffic resumes cleanly instead of
// being gated by ghosts of the previous life.
#include <gtest/gtest.h>

#include <iostream>
#include <memory>

#include "encoding/typed.h"
#include "frame_forge.h"
#include "middleware/domain.h"

namespace marea::mw {
namespace {

struct Beat {
  int32_t n = 0;
};

}  // namespace
}  // namespace marea::mw

MAREA_REFLECT(marea::mw::Beat, n)

namespace marea::mw {
namespace {

class BeatPublisher final : public Service {
 public:
  BeatPublisher() : Service("beat_pub") {}
  Status on_start() override {
    auto v = provide_variable<Beat>("beat.var", {.validity = seconds(5.0)});
    if (!v.ok()) return v.status();
    var_ = *v;
    auto e = provide_event<Beat>("beat.event");
    if (!e.ok()) return e.status();
    event_ = *e;
    return Status::ok();
  }
  void emit(int n) {
    Beat b;
    b.n = n;
    (void)var_.publish(b);
    (void)event_.publish(b);
  }

 private:
  VariableHandle var_;
  EventHandle event_;
};

class BeatWatcher final : public Service {
 public:
  BeatWatcher() : Service("beat_watch") {}
  Status on_start() override {
    Status s = subscribe_variable<Beat>(
        "beat.var", [this](const Beat& b, const SampleInfo& info) {
          last_var = b.n;
          last_var_seq = info.seq;
          ++var_got;
        });
    if (!s.is_ok()) return s;
    return subscribe_event<Beat>(
        "beat.event",
        [this](const Beat& b, const EventInfo&) {
          last_event = b.n;
          ++event_got;
        },
        {.ordered = true});
  }
  int last_var = -1;
  int last_event = -1;
  uint64_t last_var_seq = 0;
  int var_got = 0;
  int event_got = 0;
};

struct RestartRig {
  SimDomain domain{51};
  BeatPublisher* pub = nullptr;
  BeatWatcher* watch = nullptr;
  ServiceContainer* pub_container = nullptr;
  ServiceContainer* watch_container = nullptr;

  RestartRig() {
    auto& n0 = domain.add_node("pub");
    auto p = std::make_unique<BeatPublisher>();
    pub = p.get();
    (void)n0.add_service(std::move(p));
    pub_container = &n0;
    auto& n1 = domain.add_node("watch");
    auto w = std::make_unique<BeatWatcher>();
    watch = w.get();
    (void)n1.add_service(std::move(w));
    watch_container = &n1;
    set_log_level(LogLevel::kError);
    domain.start_all();
    domain.run_for(milliseconds(500));
  }

  // On invariant failure, dump the flight recorder so the failing event
  // sequence (crash/restart/heartbeat ordering) is visible in CI logs.
  ~RestartRig() {
    if (::testing::Test::HasFailure()) {
      std::cerr << "[flight-recorder] restart-rig failure, domain dump "
                   "follows:\n"
                << domain.obs().dump_json() << "\n";
    }
  }
};

TEST(ContainerRestartTest, StopStartBumpsIncarnationAndReannounces) {
  RestartRig rig;
  uint64_t inc1 = rig.pub_container->incarnation();
  EXPECT_GE(inc1, 1u);
  ASSERT_FALSE(rig.watch_container->known_peers().empty());

  rig.pub_container->stop();
  rig.domain.run_for(seconds(1.0));
  // The bye (or heartbeat silence) evicted the publisher everywhere.
  EXPECT_TRUE(rig.watch_container->known_peers().empty());

  ASSERT_TRUE(rig.pub_container->start().is_ok());
  EXPECT_EQ(rig.pub_container->incarnation(), inc1 + 1);
  rig.domain.run_for(seconds(1.0));
  // The new incarnation re-announced itself and its manifest.
  ASSERT_EQ(rig.watch_container->known_peers().size(), 1u);
  EXPECT_TRUE(rig.watch_container->directory()
                  .resolve(proto::ItemKind::kVariable, "beat.var")
                  .has_value());
}

TEST(ContainerRestartTest, PeersDiscardOldIncarnationSequenceState) {
  RestartRig rig;
  // Build up a high sequence watermark in the first incarnation.
  for (int i = 1; i <= 20; ++i) rig.pub->emit(i);
  rig.domain.run_for(milliseconds(500));
  EXPECT_EQ(rig.watch->last_var, 20);
  EXPECT_EQ(rig.watch->last_event, 20);
  uint64_t old_seq = rig.watch->last_var_seq;
  EXPECT_GE(old_seq, 20u);

  rig.pub_container->stop();
  rig.domain.run_for(seconds(1.0));
  ASSERT_TRUE(rig.pub_container->start().is_ok());
  rig.domain.run_for(seconds(1.0));

  // The restarted publisher counts sequences from scratch. If the watcher
  // kept the old watermark it would discard everything below seq 20.
  int var_before = rig.watch->var_got;
  int ev_before = rig.watch->event_got;
  for (int i = 1; i <= 3; ++i) rig.pub->emit(100 + i);
  rig.domain.run_for(milliseconds(500));
  EXPECT_GT(rig.watch->var_got, var_before)
      << "stale variable seq watermark gated the new incarnation";
  EXPECT_GT(rig.watch->event_got, ev_before)
      << "stale ordered-event state gated the new incarnation";
  EXPECT_EQ(rig.watch->last_var, 103);
  EXPECT_EQ(rig.watch->last_event, 103);
  EXPECT_LT(rig.watch->last_var_seq, old_seq);
}

TEST(ContainerRestartTest, StaleHeartbeatFromOldIncarnationIgnored) {
  RestartRig rig;
  // Move the publisher to incarnation 2 so incarnation 1 is genuinely
  // "a previous life" and not the unstamped sentinel 0.
  rig.pub_container->stop();
  rig.domain.run_for(seconds(1.0));
  ASSERT_TRUE(rig.pub_container->start().is_ok());
  rig.domain.run_for(seconds(1.0));
  uint64_t live_incarnation = rig.pub_container->incarnation();
  ASSERT_GE(live_incarnation, 2u);
  ASSERT_EQ(rig.watch_container->known_peers().size(), 1u);

  // Replay a heartbeat from the previous incarnation, as a reordering
  // network would. It must be dropped — not treated as a restart, which
  // would evict the live peer and tear down every binding.
  proto::HeartbeatMsg old_hb;
  old_hb.incarnation = live_incarnation - 1;
  old_hb.seq = 1;
  sim::SimNetwork& net = rig.domain.network();
  (void)net.send(Address{rig.domain.node_id(0), 9999},
                 Address{rig.domain.node_id(1),
                               rig.watch_container->config().data_port},
                 testutil::forge_frame(net.frame_pool(),
                                       proto::MsgType::kHeartbeat,
                                       rig.pub_container->config().id,
                                       old_hb));
  rig.domain.run_for(milliseconds(200));
  EXPECT_EQ(rig.watch_container->known_peers().size(), 1u)
      << "stale heartbeat evicted a live peer";

  // Data still flows.
  rig.pub->emit(7);
  rig.domain.run_for(milliseconds(500));
  EXPECT_EQ(rig.watch->last_var, 7);
}

TEST(ContainerRestartTest, FastRestartWithinLivenessWindowRebinds) {
  RestartRig rig;
  rig.pub->emit(1);
  rig.domain.run_for(milliseconds(200));
  EXPECT_EQ(rig.watch->last_var, 1);

  // Restart faster than heartbeat-silence detection: peers never see a
  // gap in heartbeats, only the incarnation jump. The hello with the new
  // incarnation must fully invalidate the old binding so the watcher
  // resubscribes (the provider forgot its subscribers on stop()).
  rig.pub_container->stop();
  ASSERT_TRUE(rig.pub_container->start().is_ok());
  rig.domain.run_for(seconds(1.5));

  rig.pub->emit(42);
  rig.domain.run_for(milliseconds(500));
  EXPECT_EQ(rig.watch->last_var, 42)
      << "subscription stayed bound to the dead incarnation";
  EXPECT_EQ(rig.watch->last_event, 42);
}

}  // namespace
}  // namespace marea::mw
