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
  EventEntry& e = entry_for(events_, name);
  if (e.prov) {
    return already_exists_error("event '" + name +
                                "' already provided in this container");
  }
  e.prov.emplace().owner = &owner;
  e.prov->type = std::move(type);
  manifest_changed();
  return EventHandle(this, name, &e, registration_epoch_);
}

Status ServiceContainer::publish(const EventHandle& handle, enc::Value value) {
  if (handle.epoch_ != registration_epoch_) {
    return failed_precondition_error("event '" + handle.name() +
                                     "': handle predates a restart");
  }
  EventEntry& e = static_cast<EventEntry&>(*handle.entry_);
  EventProvision& prov = *e.prov;
  // One encode both checks the shape and makes the wire form, into the
  // capacity the provision keeps. The buffer is taken out while local
  // handlers run, so one that publishes this event again encodes into a
  // buffer of its own.
  Buffer encoded = std::move(prov.last_encoded);
  if (Status s = enc::encode_value_into(value, *prov.type, encoded);
      !s.is_ok()) {
    return s;
  }
  prov.seq++;
  stats_.events_published++;
  usage_of(prov.owner).events_published++;
  trace_ev(obs::TraceEvent::kPublish, obs::TraceKind::kEvent, e.channel,
           prov.seq);

  // Local subscribers: direct dispatch at event priority.
  if (e.sub) {
    EventInfo info;
    info.seq = prov.seq;
    info.publish_time = now();
    info.latency = kDurationZero;
    deliver_event_locally(e, value, info);
  }

  if (!prov.remote_subscribers.empty()) {
    usage_of(prov.owner).payload_bytes_sent += encoded.size();
    proto::EventMsg msg;
    msg.name = e.name;
    msg.pub_seq = prov.seq;
    msg.pub_time_ns = now().ns;
    // Borrowed: the encode below copies it into the inner frame.
    msg.value = Bytes::borrow(BytesView(encoded));
    ByteWriter w;
    msg.encode(w);
    Buffer inner = w.take();
    for (proto::ContainerId sub : prov.remote_subscribers) {
      stats_.events_sent++;
      link_send(sub, proto::InnerType::kEvent, inner);
    }
  }
  prov.last_encoded = std::move(encoded);
  return Status::ok();
}

Status ServiceContainer::register_event_subscription(Service& owner,
                                                     const std::string& name,
                                                     enc::TypePtr type,
                                                     EventHandler handler,
                                                     EventQoS qos) {
  if (!type) return invalid_argument_error("event type is null");
  if (!handler) return invalid_argument_error("event handler empty");
  EventEntry& e = entry_for(events_, name);
  if (!e.sub) {
    EventSubscription& sub = e.sub.emplace();
    sub.type = type;
    sub.qos = qos;
  } else if (e.sub->type->structural_hash() != type->structural_hash()) {
    return invalid_argument_error(
        "event '" + name + "' already subscribed with a different structure");
  } else if (qos.ordered) {
    // Strictest requested QoS wins for the shared container subscription.
    e.sub->qos.ordered = true;
    if (qos.reorder_window < e.sub->qos.reorder_window) {
      e.sub->qos.reorder_window = qos.reorder_window;
    }
  }
  e.sub->entries.push_back(EventSubEntry{&owner, std::move(handler)});
  if (running_) try_bind(e);
  return Status::ok();
}

void ServiceContainer::retire_subscription(EventTable::iterator it) {
  proto::EventUnsubscribeMsg msg;
  msg.name = it->first;
  const Buffer inner = control_frame(proto::MsgType::kEventUnsubscribe, msg);
  for (proto::ContainerId provider : it->second.sub->announced_to) {
    link_send(provider, proto::InnerType::kControl, inner);
  }
  drop_subscription(events_, it);
}

void ServiceContainer::try_bind(EventEntry& e) {
  EventSubscription& sub = *e.sub;
  // Events can have redundant publishers; subscribe to every usable one.
  for (const auto& provider :
       directory_.records(proto::ItemKind::kEvent, e.name)) {
    if (!provider.usable()) continue;
    if (sub.announced_to.count(provider.container)) continue;
    if (provider.schema_hash != 0 &&
        provider.schema_hash != sub.type->structural_hash()) {
      MAREA_LOG(kWarn, "events")
          << "event '" << e.name << "': schema mismatch with container "
          << provider.container;
      continue;
    }
    proto::EventSubscribeMsg msg;
    msg.name = e.name;
    msg.schema_hash = sub.type->structural_hash();
    send_control(provider.container, proto::MsgType::kEventSubscribe, msg);
    sub.announced_to.insert(provider.container);
  }
}

void ServiceContainer::deliver_event_locally(EventEntry& e,
                                             const enc::Value& value,
                                             const EventInfo& info) {
  trace_ev(obs::TraceEvent::kDeliver, obs::TraceKind::kEvent, e.channel,
           info.seq);
  if (event_latency_us_) event_latency_us_->record(info.latency.ns / 1000);
  e.sub->walk([&](EventSubEntry& entry) {
    stats_.events_delivered++;
    usage_of(entry.service).events_delivered++;
    guard(entry.service, "event handler",
          [&] { entry.handler(value, info); });
  });
}

void ServiceContainer::on_event_subscribe(
    proto::ContainerId from, const proto::EventSubscribeMsg& msg) {
  EventProvision* prov = provision(events_, msg.name);
  if (!prov) return;
  if (msg.schema_hash != prov->type->structural_hash()) {
    MAREA_LOG(kWarn, "events") << "refusing event subscriber " << from
                               << " of '" << msg.name
                               << "': schema mismatch";
    return;
  }
  prov->remote_subscribers.insert(from);
}

void ServiceContainer::on_event_unsubscribe(
    proto::ContainerId from, const proto::EventUnsubscribeMsg& msg) {
  if (auto* prov = provision(events_, msg.name)) {
    prov->remote_subscribers.erase(from);
  }
}

void ServiceContainer::on_event_msg(proto::ContainerId from,
                                    const proto::EventMsg& msg) {
  auto it = events_.find(msg.name);
  if (it == events_.end() || !it->second.sub) return;
  auto value = enc::decode_value(as_bytes_view(msg.value),
                                 *it->second.sub->type);
  if (!value.ok()) {
    stats_.frames_dropped++;
    return;
  }
  EventInfo info;
  info.seq = msg.pub_seq;
  info.publish_time = TimePoint{msg.pub_time_ns};
  info.latency = now() - info.publish_time;
  if (it->second.sub->qos.ordered) {
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

void ServiceContainer::ordered_deliver(EventEntry& e, proto::ContainerId from,
                                       enc::Value value, EventInfo info) {
  EventSubscription& sub = *e.sub;
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
    deliver_event_locally(e, value, info);
    st.next = seq + 1;
    // Drain any now-contiguous held events.
    auto held_it = st.held.begin();
    while (held_it != st.held.end() && held_it->first == st.next) {
      deliver_event_locally(e, held_it->second.first, held_it->second.second);
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
                       sched::Priority::kEvent, [this, &e, &st] {
                         if (st.next == 0) flush_held(e, st);
                       });
  }
}

void ServiceContainer::flush_held(EventEntry& e,
                                  EventSubscription::OrderState& st) {
  for (auto& [seq, pending] : st.held) {
    deliver_event_locally(e, pending.first, pending.second);
    st.next = seq + 1;
  }
  st.held.clear();
}

void ServiceContainer::evict_ordered_stream(EventEntry& e,
                                            proto::ContainerId id) {
  EventSubscription& sub = *e.sub;
  auto os = sub.order.find(id);
  if (os == sub.order.end()) return;
  EventSubscription::OrderState& st = os->second;
  st.flush_timer.cancel();
  // The gaps the held events were waiting on can never fill now: drain
  // them, in order, and advance the watermark over them.
  flush_held(e, st);
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
  for (auto& [name, e] : vars_) {
    if (!e.sub || !e.sub->bound_to(id)) continue;
    VarSubscription& sub = *e.sub;
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
  for (auto& [name, e] : events_) {
    if (e.sub) e.sub->order.erase(id);
  }
  rebind_after_directory_change();
}

void ServiceContainer::unbind_from(proto::ContainerId id) {
  for (auto& [name, e] : vars_) {
    if (e.sub && e.sub->bound_to(id)) e.sub->announced = false;
  }
  for (auto& [name, e] : events_) {
    if (!e.sub) continue;
    e.sub->announced_to.erase(id);
    evict_ordered_stream(e, id);
  }
  for (auto& [name, e] : files_) {
    if (e.sub && e.sub->bound_to(id)) e.sub->announced = false;
  }
}

}  // namespace marea::mw
