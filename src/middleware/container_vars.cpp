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
  if (var_provisions_.count(name)) {
    return already_exists_error("variable '" + name +
                                "' already provided in this container");
  }
  VarProvision prov;
  prov.owner = &owner;
  prov.name = name;
  prov.channel = proto::channel_of(name);
  prov.type = std::move(type);
  prov.qos = qos;
  if (auto sub_it = var_subs_.find(name); sub_it != var_subs_.end()) {
    prov.local_sub = &sub_it->second;
  }
  VarProvision* p =
      &var_provisions_.emplace(name, std::move(prov)).first->second;

  if (qos.period.ns > 0) {
    p->period_timer.arm(executor_, qos.period, sched::Priority::kVariable,
                        [this, p] { period_tick(*p); });
  }
  manifest_changed();
  return VariableHandle(this, name);
}

Status ServiceContainer::publish_variable(const std::string& name,
                                          enc::Value value) {
  auto it = var_provisions_.find(name);
  if (it == var_provisions_.end()) {
    return not_found_error("variable '" + name + "' is not provided here");
  }
  VarProvision& prov = it->second;
  // Encoding doubles as validation (validate() is itself an encode to a
  // scratch buffer): one pass both checks the shape and fills the cache
  // every send path reuses, into capacity retained across publishes.
  if (Status s = enc::encode_value_into(value, *prov.type, prov.last_encoded);
      !s.is_ok()) {
    return s;
  }
  prov.last_value = std::move(value);
  stats_.var_publishes++;
  auto& usage = usage_of(prov.owner);
  usage.var_publishes++;
  usage.payload_bytes_sent += prov.last_encoded.size();
  send_sample(prov);
  return Status::ok();
}

void ServiceContainer::send_sample(VarProvision& prov) {
  if (!prov.last_value) return;
  prov.seq++;
  prov.last_publish = now();
  trace_ev(obs::TraceEvent::kPublish, obs::TraceKind::kVar, prov.channel,
           prov.seq);
  // prov.last_encoded was filled by publish_variable; period_tick resends
  // the same value, so the cache is always current here.

  // Local subscribers first: same-container delivery never touches the
  // network (§3 "local message delivery").
  if (VarSubscription* sub = prov.local_sub) {
    SampleInfo info;
    info.seq = prov.seq;
    info.publish_time = prov.last_publish;
    info.latency = kDurationZero;
    // Copy-assign reuses the cached tree's capacity.
    sub->last_value = *prov.last_value;
    deliver_sample(*sub, info);
  }

  if (prov.remote_subscribers.empty()) return;
  proto::VarSampleMsg msg;
  msg.channel = prov.channel;
  msg.seq = prov.seq;
  msg.pub_time_ns = prov.last_publish.ns;
  // Borrow the cached encoding: the provision outlives the synchronous
  // encode+send below, so no per-publish payload copy is needed.
  msg.value = Bytes::borrow(BytesView(prov.last_encoded));
  if (config_.use_multicast) {
    // One packet reaches every subscriber (§4.1 bandwidth optimization).
    multicast_msg(prov.channel, proto::MsgType::kVarSample, msg);
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

void ServiceContainer::period_tick(VarProvision& prov) {
  if (!running_) return;
  // Republish the last value on cadence ("sent at regular intervals") —
  // but only if the service hasn't already published within the period.
  if (prov.last_value && now() - prov.last_publish >= prov.qos.period) {
    send_sample(prov);
  }
  prov.period_timer.arm(executor_, prov.qos.period, sched::Priority::kVariable,
                        [this, &prov] { period_tick(prov); });
}

Status ServiceContainer::register_var_subscription(
    Service& owner, const std::string& name, enc::TypePtr type,
    VariableHandler handler, VariableTimeoutHandler on_timeout) {
  if (!type) return invalid_argument_error("subscription type is null");
  if (!handler) return invalid_argument_error("subscription handler empty");

  auto prov_it = var_provisions_.find(name);
  auto it = var_subs_.find(name);
  if (it == var_subs_.end()) {
    it = var_subs_.emplace(name, VarSubscription{}).first;
    VarSubscription& sub = it->second;
    sub.name = name;
    sub.channel = proto::channel_of(name);
    sub.type = type;
    sub_channels_[sub.channel] = &sub;
    if (prov_it != var_provisions_.end()) prov_it->second.local_sub = &sub;
  } else if (it->second.type->structural_hash() != type->structural_hash()) {
    return invalid_argument_error(
        "variable '" + name +
        "' already subscribed with a different structure");
  }
  it->second.entries.push_back(
      VarSubEntry{&owner, std::move(handler), std::move(on_timeout)});

  if (running_) try_bind_var_subscription(it->second);

  // Same-container provider: deliver the snapshot immediately (§4.1
  // guaranteed initial value, via the local bypass).
  if (prov_it != var_provisions_.end() && prov_it->second.last_value) {
    VarProvision& prov = prov_it->second;
    enc::Value value = *prov.last_value;
    SampleInfo info;
    info.seq = prov.seq;
    info.publish_time = prov.last_publish;
    info.from_snapshot = true;
    executor_.post(sched::Priority::kVariable,
                   [this, name, value = std::move(value), info]() mutable {
                     auto sit = var_subs_.find(name);
                     if (sit != var_subs_.end()) {
                       sit->second.last_value = std::move(value);
                       deliver_sample(sit->second, info);
                     }
                   },
                   config_.handler_cost);
  }
  return Status::ok();
}

Status ServiceContainer::unregister_var_subscription(Service& owner,
                                                     const std::string& name) {
  auto it = var_subs_.find(name);
  if (it == var_subs_.end()) {
    return not_found_error("not subscribed to variable '" + name + "'");
  }
  if (it->second.remove(&owner) == 0) {
    return not_found_error("service '" + owner.name() +
                           "' is not subscribed to '" + name + "'");
  }
  if (it->second.retirable()) retire_var_subscription(it);
  return Status::ok();
}

void ServiceContainer::retire_var_subscription(
    std::map<std::string, VarSubscription>::iterator it) {
  VarSubscription& sub = it->second;
  release_binding<proto::VarUnsubscribeMsg>(sub, it->first,
                                            proto::MsgType::kVarUnsubscribe);
  if (auto ch = sub_channels_.find(sub.channel);
      ch != sub_channels_.end() && ch->second == &sub) {
    sub_channels_.erase(ch);
  }
  if (auto prov_it = var_provisions_.find(it->first);
      prov_it != var_provisions_.end()) {
    prov_it->second.local_sub = nullptr;
  }
  var_subs_.erase(it);
}

void ServiceContainer::try_bind_var_subscription(VarSubscription& sub) {
  if (var_provisions_.count(sub.name)) return;  // local provider: no network
  if (sub.announced && sub.provider) return;

  auto provider = directory_.resolve(proto::ItemKind::kVariable, sub.name);
  if (!provider) {
    send_name_query(proto::ItemKind::kVariable, sub.name,
                    sub.last_name_query);
    return;
  }
  if (provider->schema_hash != 0 &&
      provider->schema_hash != sub.type->structural_hash()) {
    MAREA_LOG(kWarn, kLog) << "variable '" << sub.name
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
    Status s = transport_.join_group(sub.channel, config_.data_port);
    sub.joined_group = s.is_ok() || s.code() == StatusCode::kAlreadyExists;
  }

  proto::VarSubscribeMsg msg;
  msg.name = sub.name;
  msg.schema_hash = sub.type->structural_hash();
  send_control(provider->container, proto::MsgType::kVarSubscribe, msg);
  sub.announced = true;
  arm_deadline(sub);
}

void ServiceContainer::arm_deadline(VarSubscription& sub) {
  if (sub.deadline.ns <= 0) return;
  sub.deadline_timer.arm(
      executor_, sub.deadline, sched::Priority::kVariable, [this, &s = sub] {
        if (!running_) return;
        if (!s.got_any) {
          // Nothing has flowed yet (provider may still be starting): the
          // warning is for streams that stop, not ones that never began.
          arm_deadline(s);
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
        arm_deadline(s);
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

void ServiceContainer::deliver_sample(VarSubscription& sub,
                                      const SampleInfo& info) {
  sub.last_seq = info.seq;
  sub.last_recv = now();
  sub.got_any = true;
  trace_ev(obs::TraceEvent::kDeliver, obs::TraceKind::kVar, sub.channel,
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
  auto it = var_provisions_.find(msg.name);
  if (it == var_provisions_.end()) return;
  VarProvision& prov = it->second;
  if (msg.schema_hash != prov.type->structural_hash()) {
    MAREA_LOG(kWarn, kLog) << "refusing subscriber " << from << " of '"
                           << msg.name << "': schema mismatch";
    return;
  }
  prov.remote_subscribers.insert(from);
  send_snapshot(prov, from);
}

void ServiceContainer::on_var_unsubscribe(
    proto::ContainerId from, const proto::VarUnsubscribeMsg& msg) {
  auto it = var_provisions_.find(msg.name);
  if (it != var_provisions_.end()) it->second.remote_subscribers.erase(from);
}

void ServiceContainer::send_snapshot(VarProvision& prov,
                                     proto::ContainerId to) {
  // The "mechanism that guarantees an initial exact value" (§4.1): the
  // snapshot rides the reliable control channel.
  proto::VarSnapshotMsg msg;
  msg.name = prov.name;
  msg.seq = prov.seq;
  msg.pub_time_ns = prov.last_publish.ns;
  msg.has_value = prov.last_value.has_value();
  if (prov.last_value) msg.value = Bytes::borrow(BytesView(prov.last_encoded));
  send_control(to, proto::MsgType::kVarSnapshot, msg);
  stats_.var_snapshots_sent++;
}

void ServiceContainer::on_var_snapshot(const proto::VarSnapshotMsg& msg) {
  auto it = var_subs_.find(msg.name);
  if (it == var_subs_.end()) return;
  VarSubscription& sub = it->second;
  if (sub.got_any || !msg.has_value) return;  // live data already flowing
  if (!decode_into_cache(sub, as_bytes_view(msg.value))) return;
  stats_.var_samples_received++;
  SampleInfo info;
  info.seq = msg.seq;
  info.publish_time = TimePoint{msg.pub_time_ns};
  info.latency = now() - info.publish_time;
  info.from_snapshot = true;
  deliver_sample(sub, info);
}

void ServiceContainer::on_var_sample(const proto::VarSampleMsg& msg) {
  auto it = sub_channels_.find(msg.channel);
  if (it == sub_channels_.end()) return;  // multicast overhearing
  VarSubscription& sub = *it->second;
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
  deliver_sample(sub, info);
}

StatusOr<enc::Value> ServiceContainer::read_variable(
    const std::string& name) const {
  // Prefer our own provision's value (provider-side read).
  if (auto it = var_provisions_.find(name); it != var_provisions_.end()) {
    if (!it->second.last_value) {
      return not_found_error("variable '" + name + "' has no value yet");
    }
    return *it->second.last_value;
  }
  auto it = var_subs_.find(name);
  if (it == var_subs_.end()) {
    return not_found_error("not subscribed to variable '" + name + "'");
  }
  const VarSubscription& sub = it->second;
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
