#include "middleware/container.h"

#include "encoding/codec.h"

namespace marea::mw {

namespace {
constexpr const char* kLog = "container";
// Byte budget of the cross-transfer chunk store (receiver-side dedup
// across revisions and resources).
constexpr size_t kChunkStoreBytes = 4u << 20;

std::string qualify(const ContainerConfig& cfg) {
  return cfg.node_name + "#" + std::to_string(cfg.id);
}

// The service-timer gate whose timer this thread is running, if any: a
// timer that stops its own container must not wait for itself.
thread_local const void* running_service_timers = nullptr;
}  // namespace

ServiceContainer::ServiceContainer(ContainerConfig config,
                                   transport::Transport& transport,
                                   sched::Executor& executor)
    : config_(std::move(config)),
      transport_(transport),
      executor_(executor),
      service_timers_(std::make_shared<ServiceTimers>()),
      chunk_store_(kChunkStoreBytes) {
  if (config_.obs) {
    trace_ = &config_.obs->trace;
    auto& reg = config_.obs->metrics;
    // Domain-wide latency histograms: same name on every node resolves to
    // the same instrument, so the dump shows one distribution per
    // primitive across the whole domain.
    var_latency_us_ = &reg.histogram("mw.var_latency_us");
    event_latency_us_ = &reg.histogram("mw.event_latency_us");
    rpc_latency_us_ = &reg.histogram("mw.rpc_latency_us");
    obs_token_ = reg.add_collector(
        [this](obs::MetricsRegistry& r) { publish_metrics(r); });
  }
}

ServiceContainer::~ServiceContainer() {
  close_service_timers();
  if (running_) stop();
  if (bound_) transport_.unbind(config_.data_port);
  if (config_.obs && obs_token_ != 0) {
    config_.obs->metrics.remove_collector(obs_token_);
  }
}

// ---------------------------------------------------------------------------
// Lifecycle
// ---------------------------------------------------------------------------

Status ServiceContainer::add_service(std::unique_ptr<Service> service) {
  if (!service) return invalid_argument_error("null service");
  if (running_) {
    return failed_precondition_error("add_service before start()");
  }
  if (find_service(service->name())) {
    return already_exists_error("service '" + service->name() +
                                "' already in container");
  }
  service->container_ = this;
  service->slot_ = services_.size();
  services_.push_back(ServiceRecord{std::move(service)});
  return Status::ok();
}

Service* ServiceContainer::find_service(const std::string& name) {
  for (auto& rec : services_) {
    if (rec.service->name() == name) return rec.service.get();
  }
  return nullptr;
}

void ServiceContainer::schedule_for_service(Duration delay,
                                            std::function<void()> fn,
                                            sched::Priority priority) {
  std::shared_ptr<ServiceTimers> timers = service_timers_;
  std::lock_guard lock(timers->mu);
  if (timers->closed) return;
  const uint64_t token = ++timers->next_token;
  auto fire = [timers, token, fn = std::move(fn)] {
    run_service_timer(timers, token, fn);
  };
  static_assert(sched::Task::stores_inline<decltype(fire)>(),
                "a service timer must not allocate per tick");
  // Recording the id under the lock keeps a timer that fires at once
  // from looking for its entry before it exists.
  timers->armed.emplace_back(
      token, executor_.schedule(delay, priority, std::move(fire),
                                config_.handler_cost));
}

void ServiceContainer::run_service_timer(
    const std::shared_ptr<ServiceTimers>& timers, uint64_t token,
    const std::function<void()>& fn) {
  ServiceTimers& t = *timers;
  {
    std::lock_guard lock(t.mu);
    std::erase_if(t.armed, [&](const auto& a) { return a.first == token; });
    if (t.closed) return;
    ++t.running;
  }
  running_service_timers = &t;
  // Finishes the run even when fn throws (the exception still leaves the
  // executor), so close_service_timers() never waits for it forever.
  struct Finish {
    ServiceTimers& t;
    ~Finish() {
      running_service_timers = nullptr;
      {
        std::lock_guard lock(t.mu);
        --t.running;
      }
      t.idle.notify_all();
    }
  } finish{t};
  fn();
}

void ServiceContainer::close_service_timers() {
  ServiceTimers& t = *service_timers_;
  std::unique_lock lock(t.mu);
  t.closed = true;
  for (const auto& [token, id] : t.armed) executor_.cancel(id);
  t.armed.clear();
  const int own = running_service_timers == &t ? 1 : 0;
  t.idle.wait(lock, [&] { return t.running <= own; });
}

ServiceUsage& ServiceContainer::usage_of(const Service* service) {
  if (!service) return usage_["<container>"];
  ServiceRecord& rec = services_[service->slot_];
  if (!rec.usage) rec.usage = &usage_[service->name()];
  return *rec.usage;
}

Status ServiceContainer::bind_transport() {
  if (bound_) return Status::ok();
  Status s = transport_.bind_frames(
      config_.data_port, [this](transport::Address from, SharedFrame frame) {
        on_datagram(from, std::move(frame));
      });
  if (!s.is_ok()) return s;
  bound_ = true;
  // An ephemeral bind (data_port == 0) resolves to the kernel-assigned
  // port here, so manifests, heartbeats and broadcast sends all carry
  // the real port from the first announce on.
  config_.data_port = transport_.bound_port(config_.data_port);
  return Status::ok();
}

Status ServiceContainer::start() {
  if (running_) return failed_precondition_error("already running");
  if (Status s = bind_transport(); !s.is_ok()) return s;
  running_ = true;
  started_at_ = now();
  // A restart is a new incarnation: peers reset their reliable-link state.
  incarnation_ = incarnation_ == 0 ? config_.incarnation : incarnation_ + 1;
  // Timers left over from the previous life keep the closed gate.
  if (service_timers_->closed) {
    service_timers_ = std::make_shared<ServiceTimers>();
  }
  trace_ev(obs::TraceEvent::kStart, obs::TraceKind::kNode, incarnation_);

  // A new incarnation starts a new manifest; the registrations made in
  // on_start() go out with the hello below, not one broadcast each.
  ++manifest_version_;
  announce_pending_ = true;
  // Start the services in registration order (§3 "the container is the
  // responsible of starting and stopping the services it contains").
  for (auto& rec : services_) {
    Service& service = *rec.service;
    rec.state = proto::ServiceState::kStarting;
    Status s = internal_error("on_start threw");
    guard(nullptr, "on_start", [&] { s = service.on_start(); });
    if (s.is_ok()) {
      rec.state = proto::ServiceState::kRunning;
      MAREA_LOG(kInfo, kLog) << qualify(config_) << " service '"
                             << service.name() << "' running";
    } else {
      rec.state = proto::ServiceState::kFailed;
      MAREA_LOG(kError, kLog) << qualify(config_) << " service '"
                              << service.name()
                              << "' failed to start: " << s.to_string();
    }
  }

  // Local bindings may already be satisfiable (provider and subscriber in
  // this same container).
  rebind_after_directory_change();
  check_function_requirements();

  announce();

  heartbeat_timer_.arm(executor_, config_.heartbeat_interval,
                       sched::Priority::kBackground,
                       [this] { heartbeat_tick(); });
  health_timer_.arm(executor_, config_.health_check_interval,
                    sched::Priority::kBackground, [this] { health_tick(); });
  resub_timer_.arm(executor_, config_.resubscribe_interval,
                   sched::Priority::kBackground,
                   [this] { resubscribe_tick(); });
  return Status::ok();
}

void ServiceContainer::stop() {
  if (!running_) return;
  trace_ev(obs::TraceEvent::kStop, obs::TraceKind::kNode, incarnation_);
  broadcast_msg(proto::MsgType::kContainerBye, proto::ContainerByeMsg{});
  // Stop services in reverse start order.
  for (auto it = services_.rbegin(); it != services_.rend(); ++it) {
    if (it->state == proto::ServiceState::kRunning ||
        it->state == proto::ServiceState::kDegraded) {
      it->service->on_stop();
    }
    it->state = proto::ServiceState::kStopped;
  }
  close_service_timers();
  heartbeat_timer_.cancel();
  health_timer_.cancel();
  resub_timer_.cancel();
  // requirement_timer_ stays armed: its check is a no-op on a stopped
  // container, and a restart within the grace second keeps it pending.
  for (auto& [id, call] : pending_calls_) {
    executor_.cancel(call.timer);
  }
  pending_calls_.clear();
  // The MFTP engines die with their entries: fold their counters first.
  for (auto& [name, e] : files_) {
    if (e.prov) {
      mftp_pub_retired_ += e.prov->publisher->stats();
      mftp_pipeline_retired_ += e.prov->publisher->pipeline_stats();
    }
    if (e.sub && e.sub->receiver) mftp_rx_retired_ += e.sub->receiver->stats();
  }

  // Drop every registration and all distributed state: services
  // re-register from on_start() on the next start(), and peers treat the
  // new incarnation as a fresh container. Handles from this life go stale.
  ++registration_epoch_;
  vars_.clear();
  events_.clear();
  functions_.clear();
  files_.clear();
  sub_channels_.clear();
  transfers_.clear();
  for (auto& [id, peer] : peers_) retire_peer_link_stats(peer);
  peers_.clear();
  directory_ = NameDirectory{};

  running_ = false;
}

std::vector<proto::ContainerId> ServiceContainer::known_peers() const {
  std::vector<proto::ContainerId> ids;
  ids.reserve(peers_.size());
  for (const auto& [id, peer] : peers_) ids.push_back(id);
  return ids;
}

std::vector<transport::Address> ServiceContainer::known_peer_addresses()
    const {
  std::vector<transport::Address> addrs;
  addrs.reserve(peers_.size());
  for (const auto& [id, peer] : peers_) addrs.push_back(peer.address);
  return addrs;
}

// ---------------------------------------------------------------------------
// Frame plumbing
// ---------------------------------------------------------------------------

sched::Priority ServiceContainer::priority_of(proto::MsgType type) const {
  using T = proto::MsgType;
  switch (type) {
    case T::kReliableData:
    case T::kReliableAck:
      return sched::Priority::kEvent;  // events & rpc ride the link
    case T::kVarSample:
      return sched::Priority::kVariable;
    case T::kFileChunk:
    case T::kFileStatusRequest:
    case T::kFileAck:
    case T::kFileNack:
      return sched::Priority::kFileTransfer;
    default:
      return sched::Priority::kBackground;
  }
}

void ServiceContainer::on_datagram(transport::Address from,
                                   SharedFrame frame) {
  // Runs on the transport dispatch context: retain the shared frame (a
  // refcount bump, not a copy) and hand the real work to the scheduler at
  // the primitive's fixed priority (§6).
  BytesView data = frame.view();
  if (data.size() < proto::kFrameOverhead) return;
  auto type = static_cast<proto::MsgType>(data[3]);  // header peek
  Duration cost = config_.handler_cost;
  if (type == proto::MsgType::kFileChunk) cost = cost * 2;  // bulk copy
  executor_.post(priority_of(type),
                 [this, from, frame = std::move(frame)]() {
                   process_frame(from, frame);
                 },
                 cost);
}

void ServiceContainer::process_frame(transport::Address from,
                                     const SharedFrame& frame) {
  if (!running_) return;
  BytesView payload;
  auto header = proto::open_frame(frame.view(), &payload);
  if (!header.ok()) {
    stats_.frames_dropped++;
    trace_ev(obs::TraceEvent::kDrop, obs::TraceKind::kControl);
    return;
  }
  if (header->source == config_.id) return;  // our own broadcast echo
  stats_.frames_received++;

  const proto::ContainerId src = header->source;
  ByteReader r(payload);
  using T = proto::MsgType;
  switch (header->type) {
    case T::kContainerHello: {
      proto::ContainerHelloMsg msg;
      if (proto::ContainerHelloMsg::decode(r, msg)) on_hello(src, from, msg);
      break;
    }
    case T::kContainerBye:
      on_bye(src);
      break;
    case T::kHeartbeat: {
      proto::HeartbeatMsg msg;
      if (proto::HeartbeatMsg::decode(r, msg)) on_heartbeat(src, from, msg);
      break;
    }
    case T::kHelloRequest:
      on_hello_request(src);
      break;
    case T::kVarSample: {
      proto::VarSampleMsg msg;
      if (proto::VarSampleMsg::decode(r, msg)) on_var_sample(msg);
      break;
    }
    case T::kReliableData: {
      proto::ReliableDataMsg msg;
      if (proto::ReliableDataMsg::decode(r, msg)) {
        ensure_peer(src, from);
        on_reliable_data(src, msg);
      }
      break;
    }
    case T::kReliableAck: {
      proto::ReliableAckMsg msg;
      if (proto::ReliableAckMsg::decode(r, msg)) {
        ensure_peer(src, from);
        on_reliable_ack(src, msg);
      }
      break;
    }
    case T::kFileChunk: {
      proto::FileChunkMsg msg;
      if (proto::FileChunkMsg::decode(r, msg)) on_file_chunk(msg);
      break;
    }
    case T::kFileStatusRequest: {
      proto::FileStatusRequestMsg msg;
      if (proto::FileStatusRequestMsg::decode(r, msg)) {
        on_file_status_request(msg);
      }
      break;
    }
    case T::kFileAck: {
      proto::FileAckMsg msg;
      if (proto::FileAckMsg::decode(r, msg)) on_file_ack(src, msg);
      break;
    }
    case T::kFileNack: {
      proto::FileNackMsg msg;
      if (proto::FileNackMsg::decode(r, msg)) on_file_nack(src, msg);
      break;
    }
    // Subscription control (subscribe, unsubscribe, snapshot, revision)
    // rides only the reliable link (on_control); a bare frame of those
    // types is dropped like any unknown type.
    default:
      stats_.frames_dropped++;
      break;
  }
}

void ServiceContainer::send_frame(transport::Address to, proto::MsgType type,
                                  SharedFrame frame) {
  Status s = transport_.send_frame(config_.data_port, to, std::move(frame));
  if (!s.is_ok()) {
    // On the live UDP path a refused send is a real event (socket buffer
    // pressure, unreachable peer): count and trace it — ARQ / periodic
    // republish recover the data, the counter explains the retransmits.
    stats_.frames_send_failed++;
    trace_ev(obs::TraceEvent::kDrop, obs::TraceKind::kNet,
             static_cast<uint64_t>(type), to.host);
    MAREA_LOG(kDebug, kLog) << qualify(config_) << " send "
                            << proto::msg_type_name(type) << " to "
                            << transport::to_string(to)
                            << " failed: " << s.to_string();
  }
}

// ---------------------------------------------------------------------------
// Membership & discovery
// ---------------------------------------------------------------------------

proto::ContainerHelloMsg ServiceContainer::build_manifest() const {
  proto::ContainerHelloMsg hello;
  hello.incarnation = incarnation_;
  hello.manifest_version = manifest_version_;
  hello.data_port = config_.data_port;
  hello.node_name = config_.node_name;
  for (const auto& rec : services_) {
    const Service* service = rec.service.get();
    proto::ServiceInfo info;
    info.name = service->name();
    info.state = rec.state;
    using proto::ItemKind;
    for (const auto& [name, e] : vars_) {
      if (!e.prov || e.prov->owner != service) continue;
      info.items.push_back({ItemKind::kVariable, name,
                            e.prov->type->structural_hash(),
                            e.prov->qos.period.ns, e.prov->qos.validity.ns});
    }
    for (const auto& [name, e] : events_) {
      if (!e.prov || e.prov->owner != service) continue;
      info.items.push_back(
          {ItemKind::kEvent, name, e.prov->type->structural_hash()});
    }
    for (const auto& [name, f] : functions_) {
      if (!f.prov || f.prov->owner != service) continue;
      info.items.push_back(
          {ItemKind::kFunction, name, f.prov->args_type->structural_hash()});
    }
    for (const auto& [name, e] : files_) {
      if (!e.prov || e.prov->owner != service) continue;
      // Subscribers learn revisions from FILE_REVISION, not from here.
      info.items.push_back({ItemKind::kFile, name, 0});
    }
    hello.services.push_back(std::move(info));
  }
  return hello;
}

void ServiceContainer::announce() {
  announce_pending_ = false;
  stats_.hellos_sent++;
  broadcast_msg(proto::MsgType::kContainerHello, build_manifest());
}

void ServiceContainer::send_hello(Peer& peer) {
  stats_.hellos_sent++;
  peer.hello_sent_at = now();
  send_msg(peer.address, proto::MsgType::kContainerHello, build_manifest());
}

void ServiceContainer::manifest_changed() {
  if (!running_) return;
  ++manifest_version_;
  // Coalesce bursts (e.g. several registrations in one handler) into a
  // single broadcast on the next scheduler turn. A peer that misses it
  // sees the new version in our next heartbeat and pulls the manifest.
  if (announce_pending_) return;
  announce_pending_ = true;
  executor_.post(sched::Priority::kBackground, [this] {
    if (announce_pending_ && running_) announce();
  });
}

ServiceContainer::Peer& ServiceContainer::ensure_peer(
    proto::ContainerId id, transport::Address addr) {
  auto it = peers_.find(id);
  if (it == peers_.end()) {
    Peer peer;
    peer.id = id;
    peer.address = addr;
    peer.last_heard = now();
    it = peers_.emplace(id, std::move(peer)).first;
    // Introduce ourselves so the newcomer learns our manifest without
    // waiting for the next broadcast.
    send_hello(it->second);
  }
  it->second.last_heard = now();
  return it->second;
}

ServiceContainer::Peer* ServiceContainer::peer(proto::ContainerId id) {
  auto it = peers_.find(id);
  return it == peers_.end() ? nullptr : &it->second;
}

void ServiceContainer::on_hello(proto::ContainerId from,
                                transport::Address addr,
                                const proto::ContainerHelloMsg& msg) {
  // A reordered hello from a dead incarnation must not clobber the live
  // peer state; a newer incarnation invalidates everything we held about
  // the peer (directory entries, bound subscriptions, ARQ channels) so
  // the rebuild below starts from a clean slate.
  if (!check_peer_incarnation(from, msg.incarnation)) return;
  Peer& peer = ensure_peer(from, transport::Address{addr.host, msg.data_port});
  // A hello is authoritative for the peer's data endpoint (earlier frames
  // may have arrived from an ephemeral source port on real transports).
  peer.address = transport::Address{addr.host, msg.data_port};
  peer.node_name = msg.node_name;
  if (msg.incarnation != peer.incarnation) {
    // Restarted peer: its reliable-link state is gone; reset ours.
    peer.tx.reset();
    peer.rx.reset();
    peer.incarnation = msg.incarnation;
    peer.manifest_version = 0;
  }
  // Only a newer version carries news: a duplicate costs this lookup, and
  // a reordered older manifest never clobbers a newer one.
  if (msg.manifest_version <= peer.manifest_version) return;
  peer.manifest_version = msg.manifest_version;
  directory_.apply_hello(from, addr, msg);
  MAREA_LOG(kTrace, kLog) << qualify(config_) << " applied hello from "
                          << from << " (" << msg.services.size()
                          << " services, " << directory_.record_count()
                          << " records now)";
  rebind_after_directory_change();
  check_function_requirements();
}

void ServiceContainer::on_bye(proto::ContainerId from) {
  if (peers_.count(from)) peer_lost(from, "bye");
}

void ServiceContainer::on_heartbeat(proto::ContainerId from,
                                    transport::Address addr,
                                    const proto::HeartbeatMsg& msg) {
  // Heartbeats are best-effort broadcasts and reorder freely: a stale one
  // from the previous incarnation must be ignored, not treated as a
  // restart (which would kill a perfectly live peer).
  if (!check_peer_incarnation(from, msg.incarnation)) return;
  Peer& peer = ensure_peer(from, addr);
  if (peer.incarnation == 0) peer.incarnation = msg.incarnation;
  // We missed a manifest change (a lost broadcast, a partition): pull it.
  if (msg.manifest_version > peer.manifest_version) {
    send_msg(peer.address, proto::MsgType::kHelloRequest,
             proto::HelloRequestMsg{});
  }
}

void ServiceContainer::on_hello_request(proto::ContainerId from) {
  // Untrusted input: answer only a known peer, at its recorded address,
  // at most once per heartbeat interval, so a forged request can neither
  // pick the target nor get more than one manifest per interval.
  Peer* p = peer(from);
  if (!p || now() - p->hello_sent_at < config_.heartbeat_interval) return;
  send_hello(*p);
}

bool ServiceContainer::check_peer_incarnation(proto::ContainerId from,
                                              uint64_t incarnation) {
  if (incarnation == 0) return true;  // unstamped (pre-incarnation sender)
  auto it = peers_.find(from);
  if (it == peers_.end()) return true;  // no state to protect yet
  Peer& p = it->second;
  if (p.incarnation == 0) {
    p.incarnation = incarnation;
    return true;
  }
  if (incarnation == p.incarnation) return true;
  if (incarnation < p.incarnation) return false;  // replay from a dead life
  // The peer restarted: everything bound to the old incarnation —
  // directory records, subscriptions, ARQ sequence state — is now invalid.
  peer_lost(from, "incarnation change");
  return true;
}

void ServiceContainer::heartbeat_tick() {
  if (!running_) return;
  proto::HeartbeatMsg hb;
  hb.incarnation = incarnation_;
  hb.manifest_version = manifest_version_;
  broadcast_msg(proto::MsgType::kHeartbeat, hb);

  const Duration limit = config_.heartbeat_interval * config_.liveness_factor;
  std::vector<proto::ContainerId> dead;
  for (const auto& [id, peer] : peers_) {
    if (now() - peer.last_heard > limit) dead.push_back(id);
  }
  for (auto id : dead) peer_lost(id, "heartbeat silence");

  heartbeat_timer_.arm(executor_, config_.heartbeat_interval,
                       sched::Priority::kBackground,
                       [this] { heartbeat_tick(); });
}

void ServiceContainer::health_tick() {
  if (!running_) return;
  for (auto& rec : services_) {
    Service& service = *rec.service;
    auto& state = rec.state;
    if (state != proto::ServiceState::kRunning &&
        state != proto::ServiceState::kDegraded) {
      continue;
    }
    std::optional<Status> s;  // no error string unless the check throws
    guard(nullptr, "health_check", [&] { s = service.health_check(); });
    if (!s) s = internal_error("health_check threw");
    proto::ServiceState next = s->is_ok() ? proto::ServiceState::kRunning
                                          : proto::ServiceState::kFailed;
    if (next != state) {
      state = next;
      MAREA_LOG(kWarn, kLog) << qualify(config_) << " service '"
                             << service.name() << "' -> "
                             << proto::service_state_name(next) << " ("
                             << s->to_string() << ")";
      manifest_changed();
    }
  }
  health_timer_.arm(executor_, config_.health_check_interval,
                    sched::Priority::kBackground, [this] { health_tick(); });
}

void ServiceContainer::peer_lost(proto::ContainerId id,
                                 const std::string& why) {
  auto it = peers_.find(id);
  if (it == peers_.end()) return;
  MAREA_LOG(kWarn, kLog) << qualify(config_) << " lost container " << id
                         << " (" << why << ")";
  trace_ev(obs::TraceEvent::kPeerLost, obs::TraceKind::kNode, id);
  retire_peer_link_stats(it->second);
  peers_.erase(it);

  directory_.drop_container(id);

  // Unbind subscriptions pointing at the lost provider; the resubscribe
  // loop re-resolves them against surviving providers. Event streams
  // keep their delivered watermark (evict_ordered_stream).
  unbind_from(id);
  // Subscriptions forget the lost provider and publishers drop the lost
  // subscriber.
  for (auto& [name, e] : vars_) {
    // last_seq deliberately survives: a sample delayed in the network
    // across the churn must still be gated as stale. The rebind path
    // resets the watermark if the next binding is a different stream
    // (other provider, or this one's next incarnation).
    if (e.sub && e.sub->bound_to(id)) e.sub->provider.reset();
    if (e.prov) e.prov->remote_subscribers.erase(id);
  }
  for (auto& [name, e] : events_) {
    if (e.prov) e.prov->remote_subscribers.erase(id);
  }
  for (auto& [name, e] : files_) {
    if (e.sub && e.sub->bound_to(id)) {
      FileSubscription& sub = *e.sub;
      sub.provider.reset();
      if (sub.receiver && !sub.receiver->complete()) drop_receiver(sub);
      // Revision numbers are per provider incarnation: a restarted (or
      // replacement) publisher counts from 1 again, and a high watermark
      // from the old life would make us ignore its content forever. The
      // cost is at most one redundant re-fetch of data we already have.
      sub.completed_revision = 0;
    }
    if (e.prov) e.prov->publisher->remove_subscriber(id);
  }

  // Fail over in-flight calls that targeted the dead container.
  std::vector<uint64_t> affected;
  for (const auto& [rid, call] : pending_calls_) {
    if (call.target == id) affected.push_back(rid);
  }
  for (uint64_t rid : affected) fail_over_call(rid, "provider container lost");

  rebind_after_directory_change();
  check_function_requirements();
}

void ServiceContainer::handler_crashed(Service* service, const char* what,
                                       const std::string& why) {
  std::string name = service ? service->name() : "<container>";
  trace_ev(obs::TraceEvent::kHandlerCrash, obs::TraceKind::kNode);
  MAREA_LOG(kError, kLog) << qualify(config_) << " handler '" << what
                          << "' of service '" << name
                          << "' threw: " << why;
  if (!service) return;
  proto::ServiceState& state = services_[service->slot_].state;
  if (state == proto::ServiceState::kRunning ||
      state == proto::ServiceState::kDegraded) {
    state = proto::ServiceState::kFailed;
    manifest_changed();
  }
}

void ServiceContainer::emergency(const std::string& reason) {
  stats_.emergencies++;
  trace_ev(obs::TraceEvent::kEmergency, obs::TraceKind::kNode,
           stats_.emergencies);
  MAREA_LOG(kError, kLog) << qualify(config_) << " EMERGENCY: " << reason;
  if (emergency_) emergency_(reason);
}

// ---------------------------------------------------------------------------
// Observability
// ---------------------------------------------------------------------------

void ServiceContainer::retire_peer_link_stats(Peer& peer) {
  if (peer.tx) arq_tx_retired_ += peer.tx->stats();
  if (peer.rx) arq_rx_retired_ += peer.rx->stats();
}

void ServiceContainer::publish_metrics(obs::MetricsRegistry& reg) {
  const std::string p = "mw." + std::to_string(config_.id) + ".";

  // ContainerStats, verbatim, under a per-node prefix.
  reg.counter(p + "var_publishes").set(stats_.var_publishes);
  reg.counter(p + "var_samples_sent").set(stats_.var_samples_sent);
  reg.counter(p + "var_samples_received").set(stats_.var_samples_received);
  reg.counter(p + "var_local_deliveries").set(stats_.var_local_deliveries);
  reg.counter(p + "var_timeout_warnings").set(stats_.var_timeout_warnings);
  reg.counter(p + "var_snapshots_sent").set(stats_.var_snapshots_sent);
  reg.counter(p + "events_published").set(stats_.events_published);
  reg.counter(p + "events_sent").set(stats_.events_sent);
  reg.counter(p + "events_delivered").set(stats_.events_delivered);
  reg.counter(p + "events_dropped_late").set(stats_.events_dropped_late);
  reg.counter(p + "rpc_calls").set(stats_.rpc_calls);
  reg.counter(p + "rpc_served").set(stats_.rpc_served);
  reg.counter(p + "rpc_failovers").set(stats_.rpc_failovers);
  reg.counter(p + "rpc_failures").set(stats_.rpc_failures);
  reg.counter(p + "files_published").set(stats_.files_published);
  reg.counter(p + "file_completions").set(stats_.file_completions);
  reg.counter(p + "file_revisions_refused")
      .set(stats_.file_revisions_refused);
  reg.counter(p + "file_local_bypasses").set(stats_.file_local_bypasses);
  reg.counter(p + "file_chunks_reused").set(stats_.file_chunks_reused);
  reg.counter(p + "file_chunks_probe_skipped")
      .set(stats_.file_chunks_probe_skipped);
  reg.counter(p + "frames_received").set(stats_.frames_received);
  reg.counter(p + "frames_dropped").set(stats_.frames_dropped);
  reg.counter(p + "frames_send_failed").set(stats_.frames_send_failed);
  reg.counter(p + "link_session_resets").set(stats_.link_session_resets);
  reg.counter(p + "stale_session_acks").set(stats_.stale_session_acks);
  reg.counter(p + "hellos_sent").set(stats_.hellos_sent);
  reg.counter(p + "emergencies").set(stats_.emergencies);

  // Reliable-link totals: retired (dead peers) + live. Monotonic across
  // peer churn because retire_peer_link_stats folds before erase.
  proto::ArqSenderStats tx = arq_tx_retired_;
  proto::ArqReceiverStats rx = arq_rx_retired_;
  size_t in_flight = 0;
  size_t queued = 0;
  for (const auto& [id, peer] : peers_) {
    if (peer.tx) {
      tx += peer.tx->stats();
      in_flight += peer.tx->in_flight();
      queued += peer.tx->queued();
    }
    if (peer.rx) rx += peer.rx->stats();
  }
  reg.counter(p + "arq.messages_accepted").set(tx.messages_accepted);
  reg.counter(p + "arq.frames_sent").set(tx.frames_sent);
  reg.counter(p + "arq.retransmits").set(tx.retransmits);
  reg.counter(p + "arq.fast_retransmits").set(tx.fast_retransmits);
  reg.counter(p + "arq.delivered").set(tx.delivered);
  reg.counter(p + "arq.failed").set(tx.failed);
  reg.counter(p + "arq.frames_received").set(rx.frames_received);
  reg.counter(p + "arq.rx_delivered").set(rx.delivered);
  reg.counter(p + "arq.duplicates").set(rx.duplicates);
  reg.counter(p + "arq.acks_sent").set(rx.acks_sent);
  reg.gauge(p + "arq.in_flight").set(static_cast<int64_t>(in_flight));
  reg.gauge(p + "arq.queued").set(static_cast<int64_t>(queued));
  reg.gauge(p + "peers").set(static_cast<int64_t>(peers_.size()));

  // MFTP totals: retired (replaced publishers/receivers) + live, same
  // monotonicity contract as the ARQ block above.
  proto::MftpPublisherStats fp = mftp_pub_retired_;
  proto::MftpReceiverStats fr = mftp_rx_retired_;
  proto::ChunkPipelineStats pipe = mftp_pipeline_retired_;
  for (const auto& [name, e] : files_) {
    if (e.prov) {
      fp += e.prov->publisher->stats();
      pipe += e.prov->publisher->pipeline_stats();
    }
    if (e.sub && e.sub->receiver) fr += e.sub->receiver->stats();
  }
  reg.counter(p + "mftp.chunks_sent").set(fp.chunks_sent);
  reg.counter(p + "mftp.chunk_retransmits").set(fp.chunk_retransmits);
  reg.counter(p + "mftp.payload_bytes_sent").set(fp.payload_bytes_sent);
  reg.counter(p + "mftp.bytes_on_wire").set(fp.wire_bytes_sent);
  reg.counter(p + "mftp.dropped_subscribers").set(fp.dropped_subscribers);
  reg.counter(p + "mftp.chunks_received").set(fr.chunks_received);
  reg.counter(p + "mftp.duplicate_chunks").set(fr.duplicate_chunks);
  reg.counter(p + "mftp.payload_bytes_received")
      .set(fr.payload_bytes_received);
  reg.counter(p + "mftp.hash_mismatches").set(fr.hash_mismatches);
  reg.counter(p + "mftp.chunks_deduped")
      .set(fp.chunks_dedup_skipped + fr.chunks_deduped);
  reg.counter(p + "mftp.chunks_from_store").set(fr.chunks_from_store);
  // Publisher-side compression ratio in per-mille (wire/raw, 1000 =
  // incompressible), computed from deterministic byte totals so it is
  // safe in sim dumps.
  if (pipe.raw_bytes > 0) {
    reg.gauge(p + "mftp.compress_ratio")
        .set(static_cast<int64_t>((pipe.wire_bytes * 1000) / pipe.raw_bytes));
  }

  // Per-variable staleness (µs since last received sample; -1 = nothing
  // received yet). The paper's validity QoS made stale data a first-class
  // failure mode — surface it per subscription.
  for (const auto& [name, e] : vars_) {
    if (!e.sub) continue;
    auto& g = reg.gauge(p + "var_stale_us." + name);
    if (!e.sub->got_any) {
      g.set(-1);
    } else {
      g.set((now() - e.sub->last_recv).ns / 1000);
    }
  }

  // Per-service usage census (§3 resource management: message and byte
  // budgets per service).
  const std::string sp = "svc." + std::to_string(config_.id) + ".";
  for (const auto& [sname, u] : usage_) {
    const std::string q = sp + sname + ".";
    reg.counter(q + "var_publishes").set(u.var_publishes);
    reg.counter(q + "samples_delivered").set(u.samples_delivered);
    reg.counter(q + "events_published").set(u.events_published);
    reg.counter(q + "events_delivered").set(u.events_delivered);
    reg.counter(q + "rpc_calls_issued").set(u.rpc_calls_issued);
    reg.counter(q + "rpc_calls_served").set(u.rpc_calls_served);
    reg.counter(q + "files_published").set(u.files_published);
    reg.counter(q + "file_bytes_delivered").set(u.file_bytes_delivered);
    reg.counter(q + "payload_bytes_sent").set(u.payload_bytes_sent);
  }
}

}  // namespace marea::mw
