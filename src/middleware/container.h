// The Service Container — the middleware itself (paper §3): exactly one
// per node; it "manages several services and provides common
// functionalities (network access, local message delivery, name
// resolution and caching, etc.) to the services it contains".
//
// Responsibilities, mapped to the paper's §3 bullet list:
//   * Service management — lifecycle (add/start/stop), health watchdog;
//     a service state change is a manifest change the peers learn.
//   * Name management — NameDirectory proxy cache fed only by hello
//     manifests (broadcast on change, pulled when a heartbeat shows a
//     newer version), invalidation on peer failure, provider
//     re-selection (failover).
//   * Network management & abstraction — services never touch the
//     Transport; the container owns the single data port, multicast
//     group membership and all marshalling.
//   * Resource management — every handler runs on the pluggable scheduler
//     tagged with its primitive's fixed priority; per-primitive traffic
//     accounting is kept in ContainerStats.
//
// Threading model: every mutation happens on the container's Executor
// context. With SimExecutor that is the simulation loop; with
// ThreadPoolExecutor use a single worker (the paper's prototype had the
// same constraint — handlers are serialized by the scheduler). Stop the
// container on that context before destroying it. A service timer
// (Service::schedule) never starts after stop() or ~ServiceContainer
// begins, and both wait out one that is already running, so a service is
// never destroyed under its own timer. The container's own timers are
// OwnedTimers: ~ServiceContainer cancels every one (stop() all but the
// requirement re-check), and on the executor's thread also disarms one
// that has fired but not yet run. Its posted handlers (frame processing,
// deliveries) have no such gate: one a real-thread executor has already
// queued still runs.
#pragma once

#include <condition_variable>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <set>
#include <string>
#include <unordered_map>
#include <vector>

#include "middleware/directory.h"
#include "middleware/qos.h"
#include "middleware/service.h"
#include "obs/obs.h"
#include "protocol/arq.h"
#include "protocol/frame.h"
#include "protocol/messages.h"
#include "protocol/mftp.h"
#include "sched/executor.h"
#include "transport/transport.h"
#include "util/logging.h"
#include "util/status.h"

namespace marea::mw {

struct ContainerConfig {
  proto::ContainerId id = 1;          // unique per container in the domain
  std::string node_name = "node";
  uint16_t data_port = 4500;          // same on every node; one container/node
  uint64_t incarnation = 1;

  // §4.1: map variables onto multicast "when the underlying network allows
  // it"; false falls back to per-subscriber unicast (bench C2 compares).
  bool use_multicast = true;

  Duration heartbeat_interval = milliseconds(100);
  double liveness_factor = 3.5;       // silence > factor*interval = dead
  Duration health_check_interval = milliseconds(250);
  Duration resubscribe_interval = milliseconds(200);

  proto::ArqParams arq;
  proto::MftpParams mftp;

  // Modelled CPU cost of running one handler (SimExecutor only).
  Duration handler_cost = microseconds(5);

  // Optional observability sink (flight recorder + metrics registry),
  // typically the SimDomain's. Null = fully disabled: every
  // instrumentation site reduces to one predictable branch and the
  // container registers nothing.
  obs::Observability* obs = nullptr;
};

struct ContainerStats {
  // variables
  uint64_t var_publishes = 0;
  uint64_t var_samples_sent = 0;      // network sends (multicast counts 1)
  uint64_t var_samples_received = 0;
  uint64_t var_local_deliveries = 0;
  uint64_t var_timeout_warnings = 0;
  uint64_t var_snapshots_sent = 0;
  // events
  uint64_t events_published = 0;
  uint64_t events_sent = 0;           // per-subscriber reliable sends
  uint64_t events_delivered = 0;      // handed to local handlers
  uint64_t events_dropped_late = 0;   // ordered QoS: below the stream horizon
  // rpc
  uint64_t rpc_calls = 0;
  uint64_t rpc_served = 0;
  uint64_t rpc_failovers = 0;
  uint64_t rpc_failures = 0;
  // files
  uint64_t files_published = 0;
  uint64_t file_completions = 0;      // local subscriptions completed
  uint64_t file_local_bypasses = 0;
  uint64_t file_chunks_reused = 0;    // taken from the previous revision
  uint64_t file_chunks_probe_skipped = 0;  // shipped raw untried
  uint64_t file_revisions_refused = 0;  // announced above kMaxFileBytes
  // infrastructure
  uint64_t frames_received = 0;
  uint64_t frames_dropped = 0;        // CRC/decode failures, and types
                                      // not accepted as bare frames
  uint64_t frames_send_failed = 0;    // transport refused the send (live
                                      // UDP: buffer pressure, no route)
  uint64_t link_session_resets = 0;   // receiver ARQ state rebuilt for a
                                      // peer's new sender life
  uint64_t stale_session_acks = 0;    // acks for a dead tx session, dropped
  uint64_t name_queries_sent = 0;     // always 0: name queries are gone;
                                      // kept for readers of the field
  uint64_t hellos_sent = 0;           // manifests sent (a broadcast is 1)
  uint64_t emergencies = 0;
};

// Per-service traffic/usage accounting (§3 "resource management": the
// container is the right place to centralize the management of the shared
// resources of the node). One row per local service.
struct ServiceUsage {
  uint64_t var_publishes = 0;
  uint64_t samples_delivered = 0;    // variable samples handed to handlers
  uint64_t events_published = 0;
  uint64_t events_delivered = 0;
  uint64_t rpc_calls_issued = 0;
  uint64_t rpc_calls_served = 0;
  uint64_t files_published = 0;
  uint64_t file_bytes_delivered = 0;
  // Encoded payload bytes this service asked the container to move
  // (variable samples, events, file images) — the "byte budget" side of
  // §3 resource management.
  uint64_t payload_bytes_sent = 0;
};

// "The programmed emergency procedure" hook (§4.3).
using EmergencyHandler = std::function<void(const std::string& reason)>;

class ServiceContainer {
 public:
  ServiceContainer(ContainerConfig config, transport::Transport& transport,
                   sched::Executor& executor);
  ~ServiceContainer();

  ServiceContainer(const ServiceContainer&) = delete;
  ServiceContainer& operator=(const ServiceContainer&) = delete;

  // --- lifecycle ---
  // Takes ownership. Must be called before start().
  Status add_service(std::unique_ptr<Service> service);
  // Binds the container's data port without starting protocol timers.
  // start() calls this implicitly; multi-process runners call it first so
  // an ephemeral bind (config.data_port == 0) resolves to the kernel-
  // assigned port — readable via config().data_port afterwards — which
  // can then be exchanged with peers before discovery begins. Idempotent.
  Status bind_transport();
  Status start();
  void stop();
  bool running() const { return running_; }

  Service* find_service(const std::string& name);

  void set_emergency_handler(EmergencyHandler handler) {
    emergency_ = std::move(handler);
  }

  // --- introspection ---
  const ContainerConfig& config() const { return config_; }
  const ContainerStats& stats() const { return stats_; }
  // Per-service usage census (rows appear on first activity).
  const std::map<std::string, ServiceUsage>& usage() const { return usage_; }
  NameDirectory& directory() { return directory_; }
  sched::Executor& executor() { return executor_; }
  TimePoint now() const { return executor_.now(); }
  // Containers currently believed alive (excluding self).
  std::vector<proto::ContainerId> known_peers() const;
  // Their data addresses, as learned from hellos/heartbeats — the live
  // deployment glue uses this to keep the transport's broadcast peer
  // list in step with discovery when peers sit on ephemeral ports. Call
  // from the executor context (same constraint as every container API).
  std::vector<transport::Address> known_peer_addresses() const;
  // Current incarnation: set on first start(), bumped on every restart.
  // Peers discard state belonging to older incarnations.
  uint64_t incarnation() const { return incarnation_; }

  // ==== internal API used by Service / handles (not for applications) ====
  StatusOr<VariableHandle> register_variable(Service& owner,
                                             const std::string& name,
                                             enc::TypePtr type,
                                             VariableQoS qos);
  Status publish(const VariableHandle& handle, enc::Value value);
  Status register_var_subscription(Service& owner, const std::string& name,
                                   enc::TypePtr type, VariableHandler handler,
                                   VariableTimeoutHandler on_timeout);
  Status unregister_var_subscription(Service& owner, const std::string& name) {
    return unsubscribe(vars_, owner, name, "variable");
  }
  StatusOr<enc::Value> read_variable(const std::string& name) const;

  StatusOr<EventHandle> register_event(Service& owner, const std::string& name,
                                       enc::TypePtr type);
  Status publish(const EventHandle& handle, enc::Value value);
  Status register_event_subscription(Service& owner, const std::string& name,
                                     enc::TypePtr type, EventHandler handler,
                                     EventQoS qos = {});
  Status unregister_event_subscription(Service& owner,
                                       const std::string& name) {
    return unsubscribe(events_, owner, name, "event");
  }

  Status register_function(Service& owner, const std::string& name,
                           enc::TypePtr args_type, enc::TypePtr result_type,
                           FunctionHandler handler);
  void call_function(Service* caller, const std::string& function,
                     enc::Value args, CallCallback callback,
                     CallOptions options);
  Status add_function_requirement(Service& owner, const std::string& function);

  Status publish_file_resource(Service& owner, const std::string& name,
                               Buffer content);
  Status register_file_subscription(Service& owner, const std::string& name,
                                    FileCompleteHandler on_done,
                                    FileProgressHandler on_progress);
  Status unregister_file_subscription(Service& owner,
                                      const std::string& name) {
    return unsubscribe(files_, owner, name, "file");
  }

  void schedule_for_service(Duration delay, std::function<void()> fn,
                            sched::Priority priority);

 private:
  // --- per-name provider/subscriber state ---
  // One table per primitive, one entry per name (NameEntry). Handles, wire
  // ids (sub_channels_, transfers_) and timers reach an entry by pointer;
  // std::map nodes never move, every path that erases an entry drops its
  // wire ids, and its timers are OwnedTimers.

  // A timer whose closure may capture its owner (an entry, or the
  // container). Destroying it with its owner, or assigning over it,
  // cancels it and also disarms a closure that has already fired but not
  // yet run, which no executor can take back: the closure holds the
  // timer's token weakly. Only an unarmed timer is moved from.
  class OwnedTimer {
   public:
    OwnedTimer() = default;
    OwnedTimer(OwnedTimer&&) noexcept {}
    OwnedTimer& operator=(OwnedTimer&&) noexcept {
      cancel();
      token_.reset();
      return *this;
    }
    ~OwnedTimer() { cancel(); }
    template <typename Fn>
    void arm(sched::Executor& executor, Duration delay,
             sched::Priority priority, Fn fn) {
      cancel();
      executor_ = &executor;
      if (!token_) token_ = std::make_shared<char>();
      auto fire = [this, token = std::weak_ptr<char>(token_),
                   fn = std::move(fn)] {
        if (token.expired()) return;
        id_ = sched::kInvalidTaskTimer;
        fn();
      };
      static_assert(sched::Task::stores_inline<decltype(fire)>(),
                    "an owned timer must not allocate per tick");
      id_ = executor.schedule(delay, priority, std::move(fire));
    }
    void cancel() {
      if (armed()) executor_->cancel(id_);
      id_ = sched::kInvalidTaskTimer;
    }
    bool armed() const { return id_ != sched::kInvalidTaskTimer; }

   private:
    sched::Executor* executor_ = nullptr;
    sched::TaskTimerId id_ = sched::kInvalidTaskTimer;
    std::shared_ptr<char> token_;
  };

  // The services subscribed to one name. Handlers run synchronously
  // inside walk() and may subscribe or unsubscribe any service, their
  // own included, so no entry may move or die under a running handler:
  // a deque appends without moving, and while a walk is in progress
  // remove() only clears an entry's service (a tombstone) for the last
  // walk out to compact. A walk visits the entries it started with; one
  // added meanwhile gets the next delivery. A subscription that loses
  // its last service inside a walk is not erased there: it stays in its
  // entry, still bound, until the next resubscribe tick retires it (a
  // service subscribing meanwhile simply joins it), so whatever holds it
  // across the walk (ordered-delivery state, a timer closure, a loop
  // over the table, an MFTP receiver) still holds live memory.
  template <typename Entry>
  struct Subscribers {
    std::deque<Entry> entries;
    int walking = 0;
    bool tombstones = false;

    template <typename Fn>
    void walk(Fn&& fn) {
      ++walking;
      for (size_t i = 0, n = entries.size(); i < n; ++i) {
        if (entries[i].service) fn(entries[i]);
      }
      if (--walking == 0 && tombstones) compact();
    }
    // Removes `owner`'s entries; returns how many there were.
    size_t remove(const Service* owner) {
      size_t n = 0;
      for (auto& e : entries) {
        if (e.service == owner) {
          e.service = nullptr;
          ++n;
        }
      }
      tombstones = tombstones || n > 0;
      if (walking == 0 && tombstones) compact();
      return n;
    }
    // No service left and no walk in progress (so no tombstones either):
    // safe to erase.
    bool retirable() const { return walking == 0 && entries.empty(); }

   private:
    void compact() {
      std::erase_if(entries, [](const Entry& e) { return !e.service; });
      tombstones = false;
    }
  };

  struct VarProvision {
    Service* owner = nullptr;
    enc::TypePtr type;
    VariableQoS qos;
    uint64_t seq = 0;
    std::optional<enc::Value> last_value;
    Buffer last_encoded;
    TimePoint last_publish{};
    std::set<proto::ContainerId> remote_subscribers;
    OwnedTimer period_timer;
  };

  struct VarSubEntry {
    Service* service = nullptr;
    VariableHandler handler;
    VariableTimeoutHandler on_timeout;
  };

  // The single provider a variable or file subscription is bound to.
  struct ProviderBinding {
    std::optional<ProviderRecord> provider;
    bool announced = false;   // subscribe control delivered to provider
    bool joined_group = false;

    bool bound_to(proto::ContainerId id) const {
      return provider && provider->container == id;
    }
  };

  struct VarSubscription : ProviderBinding, Subscribers<VarSubEntry> {
    enc::TypePtr type;
    // cache
    std::optional<enc::Value> last_value;
    // Decode target for remote samples. A good decode is swapped with
    // last_value, so once warm the subscription alternates between two
    // trees whose capacity decode_value_into reuses (no per-sample heap
    // traffic), and a bad sample never clobbers the cache.
    enc::Value scratch;
    uint64_t last_seq = 0;
    // Identity of the sample stream last_seq counts. The watermark
    // survives peer loss and re-binding as long as the stream is the
    // same provider life (container + incarnation) — a stale sample
    // delayed in the network must not be accepted as fresh just because
    // the link churned. A different provider, or a restarted one, counts
    // from 1 again; only then does the watermark reset.
    proto::ContainerId seq_stream_container = proto::kInvalidContainer;
    uint64_t seq_stream_incarnation = 0;
    TimePoint last_recv{};
    Duration validity = kDurationZero;  // learned from provider manifest
    Duration deadline = kDurationZero;
    bool got_any = false;
    OwnedTimer deadline_timer;
  };

  struct EventProvision {
    Service* owner = nullptr;
    enc::TypePtr type;
    uint64_t seq = 0;
    // The wire form of each publish, into capacity kept across publishes.
    Buffer last_encoded;
    std::set<proto::ContainerId> remote_subscribers;
  };

  struct EventSubEntry {
    Service* service = nullptr;
    EventHandler handler;
  };

  struct EventSubscription : Subscribers<EventSubEntry> {
    enc::TypePtr type;
    // Events may have redundant publishers; subscribe to all of them.
    std::set<proto::ContainerId> announced_to;
    // Ordered-delivery state, per publishing container (EventQoS).
    EventQoS qos;
    struct OrderState {
      uint64_t next = 0;  // 0 = uninitialized (settling)
      // Publisher incarnation the horizon belongs to. A restarted
      // publisher counts pub_seq from 1 again, so a watermark carried
      // over from its previous life would gate the whole fresh stream
      // as "late"; on incarnation change the stream resets instead.
      uint64_t incarnation = 0;
      // The ARQ sender life feeding this stream died (peer loss or a
      // link-session reset). The watermark survives — the old life can
      // still retransmit frames whose acks were lost, and a fresh
      // receiver would hand those back as brand-new events — but the
      // next gap is permanent (nothing retransmits the missing seqs),
      // so the stream jumps forward instead of holding.
      bool resync = false;
      std::map<uint64_t, std::pair<enc::Value, EventInfo>> held;
      OwnedTimer flush_timer;
    };
    std::map<proto::ContainerId, OrderState> order;
  };

  struct FunctionProvision {
    Service* owner = nullptr;
    enc::TypePtr args_type;
    FunctionHandler handler;
  };

  struct PendingCall {
    std::string function;
    enc::Value args;
    CallCallback callback;
    CallOptions options;
    proto::ContainerId target = proto::kInvalidContainer;
    int failovers_left = 0;
    std::set<proto::ContainerId> tried;
    sched::TaskTimerId timer = sched::kInvalidTaskTimer;
    TimePoint issued{};  // feeds the RPC latency histogram
  };

  // Republishing updates the entry in place: a new revision replaces
  // meta, content, transfer id and publisher, not the entry.
  struct FileProvision {
    Service* owner = nullptr;
    proto::FileMeta meta;
    // Shared with the MFTP publisher and every bypass handler post.
    std::shared_ptr<const Buffer> content;
    uint64_t transfer_id = 0;
    std::unique_ptr<proto::MftpPublisher> publisher;
    // Remote subscribers; they follow the resource across revisions.
    std::set<proto::MftpPeer> remote_subscribers;
  };

  struct FileSubEntry {
    Service* service = nullptr;
    FileCompleteHandler on_done;
    FileProgressHandler on_progress;
  };

  struct FileSubscription : ProviderBinding, Subscribers<FileSubEntry> {
    std::unique_ptr<proto::MftpReceiver> receiver;
    uint32_t completed_revision = 0;
  };

  // The entry a transfer id belongs to: our own publisher's provision
  // (acks, nacks) or a subscription's receiver (chunks, status polls).
  struct TransferEntry {
    FileProvision* prov = nullptr;
    FileSubscription* sub = nullptr;
  };

  // Caller-side binding of one remote function (§4.3).
  struct FunctionBinding {
    // Static binding: the provider pinned by the first call.
    proto::ContainerId pinned = proto::kInvalidContainer;
    size_t rr_cursor = 0;  // dynamic binding: round-robin position
  };

  // Both sides of one name: this container's provision of it and its
  // subscription to it, and everything that describes them. An entry is
  // erased once it holds neither; only local registration creates one,
  // so a name that arrives on the wire only ever finds.
  template <typename Provision, typename Subscription>
  struct NameEntry {
    std::string name;
    uint32_t channel = 0;  // proto::channel_of(name)
    std::optional<Provision> prov;
    std::optional<Subscription> sub;
  };
  struct VarEntry : VarEntryBase, NameEntry<VarProvision, VarSubscription> {};
  struct EventEntry : EventEntryBase,
                      NameEntry<EventProvision, EventSubscription> {};
  using FileEntry = NameEntry<FileProvision, FileSubscription>;

  // One remote function: its provision, the caller-side binding, and the
  // services that require it (has its absence raised the emergency?).
  struct FunctionEntry {
    std::optional<FunctionProvision> prov;
    FunctionBinding binding;
    std::set<std::string> requirers;
    bool in_emergency = false;
  };

  using VarTable = std::map<std::string, VarEntry>;
  using EventTable = std::map<std::string, EventEntry>;
  using FileTable = std::map<std::string, FileEntry>;

  // The entry for `name`, created (with its name and channel) if absent.
  template <typename Table>
  static auto& entry_for(Table& table, const std::string& name) {
    auto [it, fresh] = table.try_emplace(name);
    if (fresh) {
      it->second.name = name;
      it->second.channel = proto::channel_of(name);
    }
    return it->second;
  }
  // This container's provision of `name` in `table`, or null.
  template <typename Table>
  static auto* provision(Table& table, const std::string& name) {
    auto it = table.find(name);
    return it != table.end() && it->second.prov ? &*it->second.prov : nullptr;
  }

  // One record per local service, in registration (= start) order;
  // Service::slot_ indexes it.
  struct ServiceRecord {
    std::unique_ptr<Service> service;
    proto::ServiceState state = proto::ServiceState::kStopped;
    ServiceUsage* usage = nullptr;  // its usage_ row, once it has one
  };

  // Every timer armed through Service::schedule. Each closure holds the
  // gate it was armed under, so one that outlives the container finds
  // it closed and returns without touching anything else.
  struct ServiceTimers {
    std::mutex mu;
    std::condition_variable idle;
    bool closed = false;
    int running = 0;
    uint64_t next_token = 0;
    // (token, executor id) of every timer armed and not yet fired.
    std::vector<std::pair<uint64_t, sched::TaskTimerId>> armed;
  };
  static void run_service_timer(const std::shared_ptr<ServiceTimers>& timers,
                                uint64_t token,
                                const std::function<void()>& fn);
  // Cancels every armed service timer, refuses new ones and waits until
  // none is running (other than the caller's own).
  void close_service_timers();

  struct Peer {
    proto::ContainerId id = proto::kInvalidContainer;
    transport::Address address;
    std::string node_name;
    uint64_t incarnation = 0;
    uint64_t manifest_version = 0;  // newest applied for this incarnation
    TimePoint last_heard{};
    TimePoint hello_sent_at{};  // last unicast hello: bounds the answers
    std::unique_ptr<proto::ArqSender> tx;
    std::unique_ptr<proto::ArqReceiver> rx;
    // Link sessions disambiguate ARQ sequence spaces across peer_lost /
    // re-discovery cycles within one incarnation (long radio outages).
    uint64_t tx_session = 0;  // stamped on every frame this tx sends
    uint64_t rx_session = 0;  // session the current rx state was built from
  };

  // --- wiring ---
  // The received frame is shared with the network layer (refcounted pooled
  // bytes): posting it to the executor and decoding borrow from it with no
  // payload copy; the slab returns to the pool when processing finishes.
  void on_datagram(transport::Address from, SharedFrame frame);
  void process_frame(transport::Address from, const SharedFrame& frame);
  sched::Priority priority_of(proto::MsgType type) const;

  void send_frame(transport::Address to, proto::MsgType type,
                  SharedFrame frame);
  // Messages serialize straight into a pooled frame via FrameBuilder —
  // no intermediate payload buffer, no copy.
  template <typename Msg>
  SharedFrame build_msg(proto::MsgType type, const Msg& msg) {
    proto::FrameBuilder fb(transport_.frame_pool(),
                           proto::FrameHeader{type, config_.id});
    msg.encode(fb.payload());
    return std::move(fb).seal();
  }
  template <typename Msg>
  void send_msg(transport::Address to, proto::MsgType type, const Msg& msg) {
    send_frame(to, type, build_msg(type, msg));
  }
  template <typename Msg>
  void broadcast_msg(proto::MsgType type, const Msg& msg) {
    (void)transport_.send_frame_broadcast(config_.data_port,
                                          config_.data_port,
                                          build_msg(type, msg));
  }
  template <typename Msg>
  void multicast_msg(transport::GroupId group, proto::MsgType type,
                     const Msg& msg) {
    (void)transport_.send_frame_multicast(config_.data_port, group,
                                          build_msg(type, msg));
  }

  // --- membership / discovery ---
  void announce();  // broadcasts the manifest
  void send_hello(Peer& peer);
  proto::ContainerHelloMsg build_manifest() const;
  void on_hello(proto::ContainerId from, transport::Address addr,
                const proto::ContainerHelloMsg& msg);
  void on_bye(proto::ContainerId from);
  void on_heartbeat(proto::ContainerId from, transport::Address addr,
                    const proto::HeartbeatMsg& msg);
  void on_hello_request(proto::ContainerId from);
  void heartbeat_tick();
  void health_tick();
  void peer_lost(proto::ContainerId id, const std::string& why);
  // Validates the incarnation stamped on a frame from `from` against the
  // peer record. Returns false when the frame is a stale replay from a
  // dead incarnation (drop it). A *newer* incarnation invalidates the
  // whole peer (peer_lost) and returns true so hello handling can rebuild.
  bool check_peer_incarnation(proto::ContainerId from, uint64_t incarnation);
  Peer* peer(proto::ContainerId id);
  Peer& ensure_peer(proto::ContainerId id, transport::Address addr);
  // Something peers read in the manifest changed: bumps its version and
  // broadcasts it once per scheduler turn.
  void manifest_changed();

  // --- reliable link ---
  void link_send(proto::ContainerId peer_id, proto::InnerType type,
                 Buffer inner);
  // Subscription control rides the reliable link: its type byte, then
  // the message. A message for several peers is encoded once.
  template <typename Msg>
  static Buffer control_frame(proto::MsgType type, const Msg& msg) {
    ByteWriter w;
    w.u8(static_cast<uint8_t>(type));
    msg.encode(w);
    return w.take();
  }
  template <typename Msg>
  void send_control(proto::ContainerId peer_id, proto::MsgType type,
                    const Msg& msg) {
    link_send(peer_id, proto::InnerType::kControl, control_frame(type, msg));
  }
  void on_reliable_data(proto::ContainerId from,
                        const proto::ReliableDataMsg& msg);
  void on_reliable_ack(proto::ContainerId from,
                       const proto::ReliableAckMsg& msg);
  void deliver_inner(proto::ContainerId from, proto::InnerType type,
                     BytesView inner);
  void on_control(proto::ContainerId from, proto::MsgType type,
                  ByteReader& r);

  // --- variables ---
  void on_var_subscribe(proto::ContainerId from,
                        const proto::VarSubscribeMsg& msg);
  void on_var_unsubscribe(proto::ContainerId from,
                          const proto::VarUnsubscribeMsg& msg);
  void on_var_sample(const proto::VarSampleMsg& msg);
  void on_var_snapshot(const proto::VarSnapshotMsg& msg);
  void send_sample(VarEntry& e);
  void send_snapshot(VarEntry& e, proto::ContainerId to);
  // Decodes a remote sample into sub.scratch and, only on success, swaps
  // it into sub.last_value. Returns false (cache untouched) on bad input.
  bool decode_into_cache(VarSubscription& sub, BytesView data);
  // Runs every handler of the subscription on its cached sub->last_value.
  void deliver_sample(VarEntry& e, const SampleInfo& info);
  void arm_deadline(VarEntry& e);
  void period_tick(VarEntry& e);

  // --- events ---
  void on_event_subscribe(proto::ContainerId from,
                          const proto::EventSubscribeMsg& msg);
  void on_event_unsubscribe(proto::ContainerId from,
                            const proto::EventUnsubscribeMsg& msg);
  void on_event_msg(proto::ContainerId from, const proto::EventMsg& msg);
  void deliver_event_locally(EventEntry& e, const enc::Value& value,
                             const EventInfo& info);
  void ordered_deliver(EventEntry& e, proto::ContainerId from,
                       enc::Value value, EventInfo info);
  // Delivers the held events of `st` in order, moving the horizon past.
  void flush_held(EventEntry& e, EventSubscription::OrderState& st);
  // Drain held events in order and mark the stream for resync, keeping
  // the delivered high-water mark. Used when the publisher's sender life
  // dies (peer loss / link-session reset): held gaps can never fill, and
  // old-life retransmissions must not redeliver below the watermark.
  void evict_ordered_stream(EventEntry& e, proto::ContainerId id);
  // The peer rebuilt its ARQ sender from scratch (link-session reset),
  // which only happens after it declared us lost: its per-peer state —
  // remote-subscriber sets, queued frames — died with the old life even
  // though our own peer entry survived. Re-announce subscriptions that
  // point at it and resync its ordered event streams.
  void peer_link_reset(proto::ContainerId id);
  // What peer_lost and peer_link_reset share: every subscription bound
  // to container `id` must announce itself again, and the ordered event
  // streams from it are evicted.
  void unbind_from(proto::ContainerId id);

  // --- rpc ---
  void on_rpc_request(proto::ContainerId from,
                      const proto::RpcRequestMsg& msg);
  void on_rpc_response(proto::ContainerId from,
                       const proto::RpcResponseMsg& msg);
  // Runs `function`'s handler on `args`; kUnavailable if this container
  // no longer provides it.
  StatusOr<enc::Value> serve_call(const std::string& function,
                                  const enc::Value& args);
  void dispatch_call_attempt(uint64_t rid);
  // `value` tagged, in rpc_scratch_ until the next call: the message
  // borrows it, so a value is encoded once per message.
  BytesView encode_rpc_value(const enc::Value& value);
  void send_rpc_response(proto::ContainerId to, uint64_t request_id,
                         const StatusOr<enc::Value>& result);
  // kInvalidContainer when no usable provider outside `exclude` is left.
  proto::ContainerId pick_provider(
      const std::string& function, const CallOptions& options,
      const std::set<proto::ContainerId>& exclude);
  void finish_call(uint64_t request_id, StatusOr<enc::Value> result);
  void fail_over_call(uint64_t request_id, const std::string& why);
  void check_function_requirements();

  // --- files ---
  void on_file_subscribe(proto::ContainerId from,
                         const proto::FileSubscribeMsg& msg);
  void on_file_unsubscribe(proto::ContainerId from,
                           const proto::FileUnsubscribeMsg& msg);
  void on_file_revision(const proto::FileRevisionMsg& msg);
  void on_file_chunk(const proto::FileChunkMsg& msg);
  void on_file_status_request(const proto::FileStatusRequestMsg& msg);
  void on_file_ack(proto::ContainerId from, const proto::FileAckMsg& msg);
  void on_file_nack(proto::ContainerId from, const proto::FileNackMsg& msg);
  void start_file_receiver(FileEntry& e, uint64_t transfer_id,
                           const proto::FileMeta& meta,
                           const std::vector<uint64_t>& chunk_hashes,
                           transport::Address publisher_addr);
  // Completes `sub` at `meta`'s revision: posts every handler.
  void deliver_file(FileSubscription& sub, const proto::FileMeta& meta,
                    std::shared_ptr<const Buffer> content);
  // Folds the receiver's stats into the retired totals, forgets its
  // transfer id and destroys it.
  void drop_receiver(FileSubscription& sub);

  // --- subscription upkeep ---
  void resubscribe_tick();
  // Removes `owner` from the subscription to `name`, retiring it if that
  // was its last service; `what` names the primitive in errors.
  template <typename Table>
  Status unsubscribe(Table& table, Service& owner, const std::string& name,
                     const char* what) {
    auto it = table.find(name);
    if (it == table.end() || !it->second.sub ||
        it->second.sub->remove(&owner) == 0) {
      return not_found_error("service '" + owner.name() +
                             "' is not subscribed to " + what + " '" + name +
                             "'");
    }
    if (it->second.sub->retirable()) retire_subscription(it);
    return Status::ok();
  }
  // Tear a subscription down (unsubscribe its provider, drop its wire
  // ids and receiver) and drop it from its entry, erasing the entry if
  // it has no provision; the subscription must be retirable().
  void retire_subscription(VarTable::iterator it);
  void retire_subscription(EventTable::iterator it);
  void retire_subscription(FileTable::iterator it);
  template <typename Table>
  static void drop_subscription(Table& table, typename Table::iterator it) {
    it->second.sub.reset();
    if (!it->second.prov) table.erase(it);
  }
  void try_bind(VarEntry& e);
  void try_bind(EventEntry& e);
  void try_bind(FileEntry& e);
  // Leaves the binding's multicast group and, if its provider was told
  // of the subscription, tells it the subscription is gone.
  template <typename UnsubscribeMsg>
  void release_binding(ProviderBinding& b, const std::string& name,
                       proto::MsgType type) {
    if (b.joined_group) {
      transport_.leave_group(proto::channel_of(name), config_.data_port);
    }
    if (!b.provider || !b.announced) return;
    UnsubscribeMsg msg;
    msg.name = name;
    send_control(b.provider->container, type, msg);
  }
  void rebind_after_directory_change();

  void emergency(const std::string& reason);

  // Runs a service-supplied handler, converting an escaped exception into
  // a logged failure of that service (watchdog semantics: a crashing
  // handler must not take the container down; §3 "watching for their
  // correct operation").
  template <typename Fn>
  void guard(Service* service, const char* what, Fn&& fn) {
    try {
      fn();
    } catch (const std::exception& e) {
      handler_crashed(service, what, e.what());
    } catch (...) {
      handler_crashed(service, what, "unknown exception");
    }
  }
  void handler_crashed(Service* service, const char* what,
                       const std::string& why);

  // --- observability ---
  // One predicted branch when config_.obs is null; otherwise a 40-byte
  // store into the domain flight recorder, stamped with virtual time and
  // this container's id.
  void trace_ev(obs::TraceEvent event, obs::TraceKind kind, uint64_t a = 0,
                uint64_t b = 0) {
    if (trace_) {
      trace_->record(executor_.now(), event, kind,
                     static_cast<uint32_t>(config_.id), a, b);
    }
  }
  // Snapshot collector: pushes ContainerStats, ARQ/MFTP sums, queue
  // depths, per-variable staleness and per-service usage into the
  // registry. Runs only when the registry collects — zero steady cost.
  void publish_metrics(obs::MetricsRegistry& reg);
  // Folds a dying peer's link stats into the retired accumulators so the
  // published counters stay monotonic across peer churn/restarts.
  void retire_peer_link_stats(Peer& peer);
  ServiceUsage& usage_of(const Service* service);

  // --- data members ---
  ContainerConfig config_;
  transport::Transport& transport_;
  sched::Executor& executor_;
  bool running_ = false;
  bool bound_ = false;
  TimePoint started_at_{};
  uint64_t incarnation_ = 0;  // set on first start, bumped per restart
  uint64_t manifest_version_ = 0;  // bumped per manifest change
  // Bumped by stop(), which drops every registration: a handle issued in
  // an earlier epoch is stale and never touches its entry.
  uint64_t registration_epoch_ = 0;
  bool announce_pending_ = false;  // coalesces same-instant manifest changes

  std::vector<ServiceRecord> services_;
  std::shared_ptr<ServiceTimers> service_timers_;

  NameDirectory directory_;
  std::map<proto::ContainerId, Peer> peers_;
  // Monotonic per-peer tx session counter. Deliberately outside Peer: it
  // must survive peer_lost so the next sender life for the same peer is
  // distinguishable from the one the outage killed.
  std::map<proto::ContainerId, uint64_t> link_sessions_;

  VarTable vars_;
  // Channel of each subscribed variable.
  std::unordered_map<uint32_t, VarEntry*> sub_channels_;

  EventTable events_;

  std::map<std::string, FunctionEntry> functions_;
  std::map<uint64_t, PendingCall> pending_calls_;
  Buffer rpc_scratch_;  // encode_rpc_value's output; keeps its capacity
  uint64_t next_request_id_ = 1;
  // Re-checks the function requirements once the start-up grace ends.
  OwnedTimer requirement_timer_;

  FileTable files_;
  std::unordered_map<uint64_t, TransferEntry> transfers_;
  uint64_t next_transfer_seq_ = 1;

  OwnedTimer heartbeat_timer_;
  OwnedTimer health_timer_;
  OwnedTimer resub_timer_;

  EmergencyHandler emergency_;
  ContainerStats stats_;
  std::map<std::string, ServiceUsage> usage_;

  // Observability wiring (all null/zero when config_.obs is null).
  obs::TraceRing* trace_ = nullptr;
  obs::Histogram* var_latency_us_ = nullptr;   // domain-wide, shared name
  obs::Histogram* event_latency_us_ = nullptr;
  obs::Histogram* rpc_latency_us_ = nullptr;
  uint64_t obs_token_ = 0;  // collector registration, removed in dtor
  // Link stats of peers that have been erased (restart, peer_lost).
  proto::ArqSenderStats arq_tx_retired_;
  proto::ArqReceiverStats arq_rx_retired_;
  // MFTP engine stats folded in before a publisher/receiver is
  // replaced (republish, revision change) so mftp.* counters stay
  // monotonic across churn.
  proto::MftpPublisherStats mftp_pub_retired_;
  proto::MftpReceiverStats mftp_rx_retired_;
  proto::ChunkPipelineStats mftp_pipeline_retired_;

  // Cross-transfer content-addressed chunk cache shared by all file
  // subscriptions of this container (bounded LRU; the byte budget is
  // kChunkStoreBytes in container.cpp).
  proto::ChunkStore chunk_store_;
};

}  // namespace marea::mw
