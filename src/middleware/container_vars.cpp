// Variable primitive (paper §4.1): best-effort pub/sub samples over
// multicast when available, validity QoS, timeout warnings, and the
// guaranteed initial snapshot.
#include "middleware/container.h"

#include "encoding/codec.h"

namespace marea::mw {

namespace {
constexpr const char* kLog = "vars";
}

StatusOr<VariableHandle> ServiceContainer::register_variable(
    Service& owner, const std::string& name, enc::TypePtr type,
    VariableQoS qos) {
  if (!type) return invalid_argument_error("variable type is null");
  VarEntry& e = entry_for(vars_, name);
  if (e.prov) {
    return already_exists_error("variable '" + name +
                                "' already provided in this container");
  }
  VarProvision& prov = e.prov.emplace();
  prov.owner = &owner;
  prov.type = std::move(type);
  prov.qos = qos;
  if (qos.period.ns > 0) {
    prov.period_timer.arm(executor_, qos.period, sched::Priority::kVariable,
                          [this, &e] { period_tick(e); });
  }
  manifest_changed();
  return VariableHandle(this, name, &e, registration_epoch_);
}

Status ServiceContainer::publish(const VariableHandle& handle,
                                 enc::Value value) {
  if (handle.epoch_ != registration_epoch_) {
    return failed_precondition_error("variable '" + handle.name() +
                                     "': handle predates a restart");
  }
  VarEntry& e = static_cast<VarEntry&>(*handle.entry_);
  VarProvision& prov = *e.prov;
  // Encoding doubles as validation: one pass both checks the shape and
  // fills the cache every send path reuses, into capacity retained across
  // publishes.
  if (Status s = enc::encode_value_into(value, *prov.type, prov.last_encoded);
      !s.is_ok()) {
    return s;
  }
  prov.last_value = std::move(value);
  stats_.var_publishes++;
  auto& usage = usage_of(prov.owner);
  usage.var_publishes++;
  usage.payload_bytes_sent += prov.last_encoded.size();
  send_sample(e);
  return Status::ok();
}

void ServiceContainer::send_sample(VarEntry& e) {
  VarProvision& prov = *e.prov;
  if (!prov.last_value) return;
  prov.seq++;
  prov.last_publish = now();
  trace_ev(obs::TraceEvent::kPublish, obs::TraceKind::kVar, e.channel,
           prov.seq);
  // prov.last_encoded was filled by publish(); period_tick resends
  // the same value, so the cache is always current here.

  // Local subscribers first: same-container delivery never touches the
  // network (§3 "local message delivery").
  if (e.sub) {
    SampleInfo info;
    info.seq = prov.seq;
    info.publish_time = prov.last_publish;
    info.latency = kDurationZero;
    // Copy-assign reuses the cached tree's capacity.
    e.sub->last_value = *prov.last_value;
    deliver_sample(e, info);
  }

  if (prov.remote_subscribers.empty()) return;
  proto::VarSampleMsg msg;
  msg.channel = e.channel;
  msg.seq = prov.seq;
  msg.pub_time_ns = prov.last_publish.ns;
  // Borrow the cached encoding: the provision outlives the synchronous
  // encode+send below, so no per-publish payload copy is needed.
  msg.value = Bytes::borrow(BytesView(prov.last_encoded));
  if (config_.use_multicast) {
    // One packet reaches every subscriber (§4.1 bandwidth optimization).
    multicast_msg(e.channel, proto::MsgType::kVarSample, msg);
    stats_.var_samples_sent++;
  } else {
    for (proto::ContainerId sub : prov.remote_subscribers) {
      if (Peer* p = peer(sub)) {
        send_msg(p->address, proto::MsgType::kVarSample, msg);
        stats_.var_samples_sent++;
      }
    }
  }
}

void ServiceContainer::period_tick(VarEntry& e) {
  if (!running_) return;
  VarProvision& prov = *e.prov;
  // Republish the last value on cadence ("sent at regular intervals") —
  // but only if the service hasn't already published within the period.
  if (prov.last_value && now() - prov.last_publish >= prov.qos.period) {
    send_sample(e);
  }
  prov.period_timer.arm(executor_, prov.qos.period, sched::Priority::kVariable,
                        [this, &e] { period_tick(e); });
}

Status ServiceContainer::register_var_subscription(
    Service& owner, const std::string& name, enc::TypePtr type,
    VariableHandler handler, VariableTimeoutHandler on_timeout) {
  if (!type) return invalid_argument_error("subscription type is null");
  if (!handler) return invalid_argument_error("subscription handler empty");

  VarEntry& e = entry_for(vars_, name);
  if (!e.sub) {
    e.sub.emplace().type = type;
    sub_channels_[e.channel] = &e;
  } else if (e.sub->type->structural_hash() != type->structural_hash()) {
    return invalid_argument_error(
        "variable '" + name +
        "' already subscribed with a different structure");
  }
  e.sub->entries.push_back(
      VarSubEntry{&owner, std::move(handler), std::move(on_timeout)});

  if (running_) try_bind(e);

  // Same-container provider: deliver the snapshot immediately (§4.1
  // guaranteed initial value, via the local bypass).
  if (e.prov && e.prov->last_value) {
    VarProvision& prov = *e.prov;
    enc::Value value = *prov.last_value;
    SampleInfo info;
    info.seq = prov.seq;
    info.publish_time = prov.last_publish;
    info.from_snapshot = true;
    executor_.post(sched::Priority::kVariable,
                   [this, name, value = std::move(value), info]() mutable {
                     auto it = vars_.find(name);
                     if (it != vars_.end() && it->second.sub) {
                       it->second.sub->last_value = std::move(value);
                       deliver_sample(it->second, info);
                     }
                   },
                   config_.handler_cost);
  }
  return Status::ok();
}

void ServiceContainer::retire_subscription(VarTable::iterator it) {
  VarEntry& e = it->second;
  release_binding<proto::VarUnsubscribeMsg>(*e.sub, e.name,
                                            proto::MsgType::kVarUnsubscribe);
  if (auto ch = sub_channels_.find(e.channel);
      ch != sub_channels_.end() && ch->second == &e) {
    sub_channels_.erase(ch);
  }
  drop_subscription(vars_, it);
}

void ServiceContainer::try_bind(VarEntry& e) {
  if (e.prov) return;  // local provider: no network
  VarSubscription& sub = *e.sub;
  if (sub.announced && sub.provider) return;

  auto provider = directory_.resolve(proto::ItemKind::kVariable, e.name);
  if (!provider) return;
  if (provider->schema_hash != 0 &&
      provider->schema_hash != sub.type->structural_hash()) {
    MAREA_LOG(kWarn, kLog) << "variable '" << e.name
                           << "': schema mismatch with provider, not binding";
    return;
  }
  sub.provider = *provider;
  {
    Peer* pp = peer(provider->container);
    const uint64_t inc = pp ? pp->incarnation : 0;
    if (provider->container != sub.seq_stream_container ||
        (inc != 0 && sub.seq_stream_incarnation != 0 &&
         inc != sub.seq_stream_incarnation)) {
      // New sample stream (different provider, or the same one reborn):
      // its sequences restart, so the old watermark would gate it.
      sub.last_seq = 0;
      sub.got_any = false;
    }
    sub.seq_stream_container = provider->container;
    if (inc != 0) sub.seq_stream_incarnation = inc;
  }
  sub.validity = Duration{provider->validity_ns};
  VariableQoS provider_qos;
  provider_qos.period = Duration{provider->period_ns};
  provider_qos.validity = Duration{provider->validity_ns};
  sub.deadline = provider_qos.effective_deadline();

  if (config_.use_multicast && !sub.joined_group) {
    Status s = transport_.join_group(e.channel, config_.data_port);
    sub.joined_group = s.is_ok() || s.code() == StatusCode::kAlreadyExists;
  }

  proto::VarSubscribeMsg msg;
  msg.name = e.name;
  msg.schema_hash = sub.type->structural_hash();
  send_control(provider->container, proto::MsgType::kVarSubscribe, msg);
  sub.announced = true;
  arm_deadline(e);
}

void ServiceContainer::arm_deadline(VarEntry& e) {
  VarSubscription& sub = *e.sub;
  if (sub.deadline.ns <= 0) return;
  sub.deadline_timer.arm(
      executor_, sub.deadline, sched::Priority::kVariable, [this, &e] {
        if (!running_) return;
        VarSubscription& s = *e.sub;
        if (!s.got_any) {
          // Nothing has flowed yet (provider may still be starting): the
          // warning is for streams that stop, not ones that never began.
          arm_deadline(e);
          return;
        }
        Duration silence = now() - s.last_recv;
        if (silence >= s.deadline) {
          // §4.1: "the service container will warn of this timeout
          // circumstance to the affected services".
          stats_.var_timeout_warnings++;
          s.walk([&](VarSubEntry& entry) {
            if (entry.on_timeout) {
              guard(entry.service, "variable timeout handler",
                    [&] { entry.on_timeout(silence); });
            }
          });
        }
        arm_deadline(e);
      });
}

bool ServiceContainer::decode_into_cache(VarSubscription& sub,
                                         BytesView data) {
  if (!enc::decode_value_into(data, *sub.type, sub.scratch).is_ok()) {
    return false;
  }
  if (sub.last_value) {
    std::swap(*sub.last_value, sub.scratch);
  } else {
    sub.last_value = std::move(sub.scratch);
  }
  return true;
}

void ServiceContainer::deliver_sample(VarEntry& e, const SampleInfo& info) {
  VarSubscription& sub = *e.sub;
  sub.last_seq = info.seq;
  sub.last_recv = now();
  sub.got_any = true;
  trace_ev(obs::TraceEvent::kDeliver, obs::TraceKind::kVar, e.channel,
           info.seq);
  // Local bypass deliveries count as zero latency — that IS the datum.
  if (var_latency_us_) var_latency_us_->record(info.latency.ns / 1000);
  sub.walk([&](VarSubEntry& entry) {
    stats_.var_local_deliveries++;
    usage_of(entry.service).samples_delivered++;
    guard(entry.service, "variable handler",
          [&] { entry.handler(*sub.last_value, info); });
  });
}

void ServiceContainer::on_var_subscribe(proto::ContainerId from,
                                        const proto::VarSubscribeMsg& msg) {
  auto it = vars_.find(msg.name);
  if (it == vars_.end() || !it->second.prov) return;
  VarProvision& prov = *it->second.prov;
  if (msg.schema_hash != prov.type->structural_hash()) {
    MAREA_LOG(kWarn, kLog) << "refusing subscriber " << from << " of '"
                           << msg.name << "': schema mismatch";
    return;
  }
  prov.remote_subscribers.insert(from);
  send_snapshot(it->second, from);
}

void ServiceContainer::on_var_unsubscribe(
    proto::ContainerId from, const proto::VarUnsubscribeMsg& msg) {
  if (auto* prov = provision(vars_, msg.name)) {
    prov->remote_subscribers.erase(from);
  }
}

void ServiceContainer::send_snapshot(VarEntry& e, proto::ContainerId to) {
  // The "mechanism that guarantees an initial exact value" (§4.1): the
  // snapshot rides the reliable control channel.
  const VarProvision& prov = *e.prov;
  proto::VarSnapshotMsg msg;
  msg.name = e.name;
  msg.seq = prov.seq;
  msg.pub_time_ns = prov.last_publish.ns;
  msg.has_value = prov.last_value.has_value();
  if (prov.last_value) msg.value = Bytes::borrow(BytesView(prov.last_encoded));
  send_control(to, proto::MsgType::kVarSnapshot, msg);
  stats_.var_snapshots_sent++;
}

void ServiceContainer::on_var_snapshot(const proto::VarSnapshotMsg& msg) {
  auto it = vars_.find(msg.name);
  if (it == vars_.end() || !it->second.sub) return;
  VarSubscription& sub = *it->second.sub;
  if (sub.got_any || !msg.has_value) return;  // live data already flowing
  if (!decode_into_cache(sub, as_bytes_view(msg.value))) return;
  stats_.var_samples_received++;
  SampleInfo info;
  info.seq = msg.seq;
  info.publish_time = TimePoint{msg.pub_time_ns};
  info.latency = now() - info.publish_time;
  info.from_snapshot = true;
  deliver_sample(it->second, info);
}

void ServiceContainer::on_var_sample(const proto::VarSampleMsg& msg) {
  auto it = sub_channels_.find(msg.channel);
  if (it == sub_channels_.end()) return;  // multicast overhearing
  VarEntry& e = *it->second;
  VarSubscription& sub = *e.sub;
  // Best-effort streams may reorder: drop anything not newer than the
  // freshest sample we have.
  if (sub.got_any && msg.seq <= sub.last_seq) return;
  if (!decode_into_cache(sub, as_bytes_view(msg.value))) {
    stats_.frames_dropped++;
    return;
  }
  stats_.var_samples_received++;
  SampleInfo info;
  info.seq = msg.seq;
  info.publish_time = TimePoint{msg.pub_time_ns};
  info.latency = now() - info.publish_time;
  deliver_sample(e, info);
}

StatusOr<enc::Value> ServiceContainer::read_variable(
    const std::string& name) const {
  auto it = vars_.find(name);
  // Prefer our own provision's value (provider-side read).
  if (it != vars_.end() && it->second.prov) {
    if (!it->second.prov->last_value) {
      return not_found_error("variable '" + name + "' has no value yet");
    }
    return *it->second.prov->last_value;
  }
  if (it == vars_.end() || !it->second.sub) {
    return not_found_error("not subscribed to variable '" + name + "'");
  }
  const VarSubscription& sub = *it->second.sub;
  // Gate on the cache, not got_any: a provider failover resets the
  // sequence watermark but the last value stays readable while valid.
  if (!sub.last_value) {
    return not_found_error("variable '" + name + "' has no value yet");
  }
  // §4.1: previous values remain readable "as long as they are still
  // valid".
  if (sub.validity.ns > 0 && now() - sub.last_recv > sub.validity) {
    return timeout_error("variable '" + name + "' value expired");
  }
  return *sub.last_value;
}

}  // namespace marea::mw
