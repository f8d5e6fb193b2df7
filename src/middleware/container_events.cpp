// Event primitive (paper §4.2): publish/subscribe with guaranteed
// delivery over the per-peer reliable link, dispatched at the highest
// fixed priority because "another important fact that has to be taken
// into account is latency".
#include "middleware/container.h"

#include "encoding/codec.h"

namespace marea::mw {

StatusOr<EventHandle> ServiceContainer::register_event(
    Service& owner, const std::string& name, enc::TypePtr type) {
  if (!type) return invalid_argument_error("event type is null");
  if (event_provisions_.count(name)) {
    return already_exists_error("event '" + name +
                                "' already provided in this container");
  }
  EventProvision prov;
  prov.owner = &owner;
  prov.type = std::move(type);
  event_provisions_.emplace(name, std::move(prov));
  manifest_changed();
  return EventHandle(this, name);
}

Status ServiceContainer::publish_event(const std::string& name,
                                       enc::Value value) {
  auto it = event_provisions_.find(name);
  if (it == event_provisions_.end()) {
    return not_found_error("event '" + name + "' is not provided here");
  }
  EventProvision& prov = it->second;
  if (Status s = enc::validate(value, *prov.type); !s.is_ok()) return s;
  prov.seq++;
  stats_.events_published++;
  usage_of(prov.owner).events_published++;
  trace_ev(obs::TraceEvent::kPublish, obs::TraceKind::kEvent,
           proto::channel_of(name), prov.seq);

  // Local subscribers: direct dispatch at event priority.
  auto sub_it = event_subs_.find(name);
  if (sub_it != event_subs_.end()) {
    EventInfo info;
    info.seq = prov.seq;
    info.publish_time = now();
    info.latency = kDurationZero;
    deliver_event_locally(sub_it->second, value, info);
  }

  if (prov.remote_subscribers.empty()) return Status::ok();
  auto encoded = enc::encode_value(value, *prov.type);
  if (!encoded.ok()) return encoded.status();
  usage_of(prov.owner).payload_bytes_sent += encoded.value().size();
  proto::EventMsg msg;
  msg.name = name;
  msg.pub_seq = prov.seq;
  msg.pub_time_ns = now().ns;
  msg.value = std::move(encoded).value();
  ByteWriter w;
  msg.encode(w);
  Buffer inner = w.take();
  for (proto::ContainerId sub : prov.remote_subscribers) {
    stats_.events_sent++;
    link_send(sub, proto::InnerType::kEvent, inner);
  }
  return Status::ok();
}

Status ServiceContainer::register_event_subscription(Service& owner,
                                                     const std::string& name,
                                                     enc::TypePtr type,
                                                     EventHandler handler,
                                                     EventQoS qos) {
  if (!type) return invalid_argument_error("event type is null");
  if (!handler) return invalid_argument_error("event handler empty");
  auto it = event_subs_.find(name);
  if (it == event_subs_.end()) {
    EventSubscription sub;
    sub.name = name;
    sub.type = type;
    sub.qos = qos;
    it = event_subs_.emplace(name, std::move(sub)).first;
  } else if (it->second.type->structural_hash() != type->structural_hash()) {
    return invalid_argument_error(
        "event '" + name + "' already subscribed with a different structure");
  } else if (qos.ordered) {
    // Strictest requested QoS wins for the shared container subscription.
    it->second.qos.ordered = true;
    if (qos.reorder_window < it->second.qos.reorder_window) {
      it->second.qos.reorder_window = qos.reorder_window;
    }
  }
  it->second.entries.push_back(EventSubEntry{&owner, std::move(handler)});
  if (running_) try_bind_event_subscription(it->second);
  return Status::ok();
}

Status ServiceContainer::unregister_event_subscription(
    Service& owner, const std::string& name) {
  auto it = event_subs_.find(name);
  if (it == event_subs_.end()) {
    return not_found_error("not subscribed to event '" + name + "'");
  }
  if (it->second.remove(&owner) == 0) {
    return not_found_error("service '" + owner.name() +
                           "' is not subscribed to '" + name + "'");
  }
  if (it->second.retirable()) retire_event_subscription(it);
  return Status::ok();
}

void ServiceContainer::retire_event_subscription(
    std::map<std::string, EventSubscription>::iterator it) {
  proto::EventUnsubscribeMsg msg;
  msg.name = it->first;
  const Buffer inner = control_frame(proto::MsgType::kEventUnsubscribe, msg);
  for (proto::ContainerId provider : it->second.announced_to) {
    link_send(provider, proto::InnerType::kControl, inner);
  }
  event_subs_.erase(it);
}

void ServiceContainer::try_bind_event_subscription(EventSubscription& sub) {
  // Events can have redundant publishers; subscribe to every usable one.
  auto providers = directory_.providers(proto::ItemKind::kEvent, sub.name);
  if (providers.empty() && !event_provisions_.count(sub.name)) {
    send_name_query(proto::ItemKind::kEvent, sub.name, sub.last_name_query);
    return;
  }
  for (const auto& provider : providers) {
    if (sub.announced_to.count(provider.container)) continue;
    if (provider.schema_hash != 0 &&
        provider.schema_hash != sub.type->structural_hash()) {
      MAREA_LOG(kWarn, "events")
          << "event '" << sub.name << "': schema mismatch with container "
          << provider.container;
      continue;
    }
    proto::EventSubscribeMsg msg;
    msg.name = sub.name;
    msg.schema_hash = sub.type->structural_hash();
    send_control(provider.container, proto::MsgType::kEventSubscribe, msg);
    sub.announced_to.insert(provider.container);
  }
}

void ServiceContainer::deliver_event_locally(EventSubscription& sub,
                                             const enc::Value& value,
                                             const EventInfo& info) {
  trace_ev(obs::TraceEvent::kDeliver, obs::TraceKind::kEvent,
           proto::channel_of(sub.name), info.seq);
  if (event_latency_us_) event_latency_us_->record(info.latency.ns / 1000);
  sub.walk([&](EventSubEntry& entry) {
    stats_.events_delivered++;
    usage_of(entry.service).events_delivered++;
    guard(entry.service, "event handler",
          [&] { entry.handler(value, info); });
  });
}

void ServiceContainer::on_event_subscribe(
    proto::ContainerId from, const proto::EventSubscribeMsg& msg) {
  auto it = event_provisions_.find(msg.name);
  if (it == event_provisions_.end()) return;
  if (msg.schema_hash != it->second.type->structural_hash()) {
    MAREA_LOG(kWarn, "events") << "refusing event subscriber " << from
                               << " of '" << msg.name
                               << "': schema mismatch";
    return;
  }
  it->second.remote_subscribers.insert(from);
}

void ServiceContainer::on_event_unsubscribe(
    proto::ContainerId from, const proto::EventUnsubscribeMsg& msg) {
  auto it = event_provisions_.find(msg.name);
  if (it != event_provisions_.end()) {
    it->second.remote_subscribers.erase(from);
  }
}

void ServiceContainer::on_event_msg(proto::ContainerId from,
                                    const proto::EventMsg& msg) {
  auto it = event_subs_.find(msg.name);
  if (it == event_subs_.end()) return;
  auto value = enc::decode_value(as_bytes_view(msg.value), *it->second.type);
  if (!value.ok()) {
    stats_.frames_dropped++;
    return;
  }
  EventInfo info;
  info.seq = msg.pub_seq;
  info.publish_time = TimePoint{msg.pub_time_ns};
  info.latency = now() - info.publish_time;
  if (it->second.qos.ordered) {
    ordered_deliver(it->second, from, std::move(*value), info);
  } else {
    deliver_event_locally(it->second, *value, info);
  }
}

// --- ordered delivery (EventQoS) -------------------------------------------
//
// The reliable link guarantees exactly-once but not order — within one
// ARQ sender life. When a subscription asks for ordering, arrivals that
// jump ahead of the next expected publication seq are held until the gap
// fills. Once a stream is initialized, a gap is *guaranteed* to fill —
// the ARQ link retransmits until delivery or peer loss — so holding never
// strands events and order is never violated, no matter how long a loss
// burst delays the missing seq. The reorder window only bounds the
// settling delay at stream start (a mid-stream joiner has unknowable
// predecessors).
//
// Peer churn breaks both halves of the link guarantee, and the stream
// state absorbs it:
//  - If OUR peer entry dies (or the sender's link session resets), the
//    publisher's old life can still retransmit frames whose acks were
//    lost; a fresh ARQ receiver dedups nothing, so the watermark is the
//    only thing standing between those replays and duplicate delivery.
//    It is therefore kept across eviction (drop below-horizon as late).
//  - A new sender life dropped whatever it had queued-but-unacked, so
//    the first gap after a reset is permanent: `resync` makes the stream
//    jump forward once instead of holding forever.
//  - A restarted publisher (new incarnation) counts pub_seq from 1
//    again; only then does the watermark reset.

void ServiceContainer::ordered_deliver(EventSubscription& sub,
                                       proto::ContainerId from,
                                       enc::Value value, EventInfo info) {
  auto& st = sub.order[from];
  const uint64_t seq = info.seq;
  if (Peer* pp = peer(from); pp && pp->incarnation != 0) {
    if (st.incarnation != 0 && st.incarnation != pp->incarnation) st = {};
    st.incarnation = pp->incarnation;
  }

  // A fresh publisher's very first event (seq 1) has no possible
  // predecessor: start the stream without the settling delay.
  if (st.next == 0 && seq == 1) st.next = 1;

  if (st.next != 0 && seq < st.next) {
    // Below the horizon: either a settling-flush started the stream
    // above this seq (order can no longer be honored), or a dead sender
    // life is retransmitting an event we already delivered before the
    // link reset (a true duplicate). Drop either way.
    stats_.events_dropped_late++;
    return;
  }
  if (st.next != 0 && st.resync && seq > st.next) {
    // The life that would have filled (next, seq) died with its link
    // session; the gap is permanent. Restart the stream here instead of
    // holding forever.
    st.next = seq;
  }
  if (st.next != 0 && seq == st.next) {
    st.resync = false;
    deliver_event_locally(sub, value, info);
    st.next = seq + 1;
    // Drain any now-contiguous held events.
    auto held_it = st.held.begin();
    while (held_it != st.held.end() && held_it->first == st.next) {
      deliver_event_locally(sub, held_it->second.first,
                            held_it->second.second);
      st.next = held_it->first + 1;
      held_it = st.held.erase(held_it);
    }
    if (st.held.empty()) st.flush_timer.cancel();
    return;
  }

  // Gap or uninitialized stream: hold. The flush window is only armed for
  // the uninitialized case — an initialized stream's gap fills via ARQ
  // retransmission (or the publisher dies and eviction drains us).
  st.held.emplace(seq, std::make_pair(std::move(value), info));
  if (st.next == 0 && !st.flush_timer.armed()) {
    // When the settling window expires on a mid-stream join, whatever
    // arrived first defines the start of the stream; earlier publications
    // predate our subscription. A stream initialized meanwhile keeps
    // holding: its gap will fill.
    st.flush_timer.arm(executor_, sub.qos.reorder_window,
                       sched::Priority::kEvent, [this, &sub, &st] {
                         if (st.next == 0) flush_held(sub, st);
                       });
  }
}

void ServiceContainer::flush_held(EventSubscription& sub,
                                  EventSubscription::OrderState& st) {
  for (auto& [seq, pending] : st.held) {
    deliver_event_locally(sub, pending.first, pending.second);
    st.next = seq + 1;
  }
  st.held.clear();
}

void ServiceContainer::evict_ordered_stream(EventSubscription& sub,
                                            proto::ContainerId id) {
  auto os = sub.order.find(id);
  if (os == sub.order.end()) return;
  EventSubscription::OrderState& st = os->second;
  st.flush_timer.cancel();
  // The gaps the held events were waiting on can never fill now: drain
  // them, in order, and advance the watermark over them.
  flush_held(sub, st);
  if (st.next == 0) {
    sub.order.erase(os);  // never initialized: nothing to protect
  } else {
    st.resync = true;
  }
}

void ServiceContainer::peer_link_reset(proto::ContainerId id) {
  stats_.link_session_resets++;
  trace_ev(obs::TraceEvent::kPeerLost, obs::TraceKind::kLink, id);
  unbind_from(id);
  for (auto& [name, sub] : var_subs_) {
    if (!sub.bound_to(id)) continue;
    // The sender's process state died with the old link session, so its
    // sample sequences restart from 1 — under the SAME container id and
    // (for a re-exec'd process) possibly the same incarnation. Keeping
    // the watermark would gate the entire fresh stream as duplicates;
    // resetting it risks accepting one stale in-flight old-life sample,
    // which the next fresh sample then supersedes.
    sub.seq_stream_container = proto::kInvalidContainer;
    sub.seq_stream_incarnation = 0;
    sub.last_seq = 0;
    sub.got_any = false;
  }
  // The event order state goes entirely: old-life retransmissions carry
  // the dead link session and die at the ARQ layer, so the forward-only
  // resync guard would only wedge a restarted publisher whose pub_seq
  // began again at 1.
  for (auto& [name, sub] : event_subs_) sub.order.erase(id);
  rebind_after_directory_change();
}

void ServiceContainer::unbind_from(proto::ContainerId id) {
  for (auto& [name, sub] : var_subs_) {
    if (sub.bound_to(id)) sub.announced = false;
  }
  for (auto& [name, sub] : event_subs_) {
    sub.announced_to.erase(id);
    evict_ordered_stream(sub, id);
  }
  for (auto& [name, sub] : file_subs_) {
    if (sub.bound_to(id)) sub.announced = false;
  }
}

}  // namespace marea::mw
