// Reliable per-peer link: events, remote invocation and subscription
// control ride a selective-repeat ARQ channel per container pair
// (paper §4.2/§4.3: "UDP using a mechanism to acknowledge and resend lost
// packets", "UDP plus retransmission at the middleware level").
#include "middleware/container.h"

namespace marea::mw {

void ServiceContainer::link_send(proto::ContainerId peer_id,
                                 proto::InnerType type, Buffer inner) {
  Peer* p = peer(peer_id);
  if (!p) {
    MAREA_LOG(kWarn, "link") << "container " << config_.id
                             << ": no peer " << peer_id << " for link send";
    return;
  }
  if (!p->tx) {
    // A fresh sender life gets a fresh session: the receiver resets its
    // ARQ state when it sees the new stamp, so sequences restarting from
    // zero are not mistaken for duplicates of the life an outage killed.
    // The counter is floored at the current time so sessions stay
    // monotonic across a *process* death too — a re-exec'd container
    // with the same incarnation starts its counters from scratch, and a
    // plain ++ would collide with the session the surviving peer already
    // holds, wedging the pair (the survivor drops every "old session"
    // frame). Virtual time keeps this deterministic in simulation; on
    // the live stack the steady clock is monotonic per host.
    uint64_t next = link_sessions_[peer_id] + 1;
    const uint64_t t = static_cast<uint64_t>(now().ns);
    if (t > next) next = t;
    link_sessions_[peer_id] = next;
    p->tx_session = next;
    const uint64_t session = p->tx_session;
    p->tx = std::make_unique<proto::ArqSender>(
        executor_, sched::Priority::kEvent, config_.arq,
        [this, peer_id, session](const proto::ReliableDataMsg& msg) {
          // Resolve the destination at (re)transmit time, not capture it
          // at session creation: a peer process that re-execs onto a new
          // ephemeral port keeps its id but changes address, and hello
          // rewrites peers_[id].address while this session's retransmit
          // queue is still draining.
          Peer* dst = peer(peer_id);
          if (!dst) return;
          // Stamp at send time, not queue time: a frame retransmitted
          // across our own restart must not carry the old incarnation.
          // Shallow stamp: the inner bytes stay owned by the ARQ
          // retransmit queue, which outlives this synchronous encode.
          proto::ReliableDataMsg stamped;
          stamped.incarnation = incarnation_;
          stamped.session = session;
          stamped.seq = msg.seq;
          stamped.inner_type = msg.inner_type;
          stamped.inner = Bytes::borrow(msg.inner.view());
          send_frame(dst->address, proto::MsgType::kReliableData,
                     build_msg(proto::MsgType::kReliableData, stamped));
        });
    p->tx->set_trace(trace_, static_cast<uint32_t>(config_.id), peer_id);
    p->tx->set_on_failed(
        [this, peer_id](uint64_t, const Status&) {
          // Repeated delivery failure == the peer is effectively gone.
          executor_.post(sched::Priority::kBackground, [this, peer_id] {
            if (peers_.count(peer_id)) peer_lost(peer_id, "link failure");
          });
        });
  }
  p->tx->send(type, std::move(inner));
}

void ServiceContainer::on_reliable_data(proto::ContainerId from,
                                        const proto::ReliableDataMsg& msg) {
  // A frame from a dead incarnation would replay old sequence numbers
  // into a fresh receiver and deliver duplicates; a newer incarnation
  // tears the peer down (ARQ retransmission re-establishes it cleanly).
  if (!check_peer_incarnation(from, msg.incarnation)) return;
  Peer* pp = peer(from);
  if (!pp) return;  // peer invalidated above or never ensured; drop
  Peer& p = *pp;
  if (p.rx && msg.session != p.rx_session) {
    if (msg.session < p.rx_session) return;  // stray frame from a dead life
    // The sender rebuilt its link (it declared us lost during an outage,
    // then re-discovered us) and restarted its sequence space. Our floor
    // belongs to the old life: keeping it would ack-and-swallow every
    // fresh frame below it as a "duplicate", wedging the pair forever.
    p.rx.reset();
    // The peer's old life also dropped us from its subscriber sets and
    // lost whatever it had queued; re-announce and resync streams.
    peer_link_reset(from);
  }
  if (!p.rx) {
    p.rx_session = msg.session;
    const uint64_t session = msg.session;
    p.rx = std::make_unique<proto::ArqReceiver>(
        [this, from, session](proto::ReliableAckMsg& ack) {
          // Same at-send-time resolution as the tx path: acks must follow
          // the peer to its current address, not the one it had when this
          // receiver state was built.
          Peer* dst = peer(from);
          if (!dst) return;
          trace_ev(obs::TraceEvent::kAck, obs::TraceKind::kLink, from,
                   ack.floor);
          // Stamped in place: the ack is the receiver's own state.
          ack.incarnation = incarnation_;
          ack.session = session;
          send_frame(dst->address, proto::MsgType::kReliableAck,
                     build_msg(proto::MsgType::kReliableAck, ack));
        },
        [this, from](proto::InnerType type, BytesView inner) {
          deliver_inner(from, type, inner);
        });
  }
  p.rx->on_data(msg);
}

void ServiceContainer::on_reliable_ack(proto::ContainerId from,
                                       const proto::ReliableAckMsg& msg) {
  // An ack replayed from the acker's previous incarnation must not
  // confirm data we queued for its current one.
  if (!check_peer_incarnation(from, msg.incarnation)) return;
  Peer* p = peer(from);
  if (!p || !p->tx) return;
  // An ack echoing another session comes from receiver state for a
  // different sender life — its floor says nothing about frames queued
  // in this one, and trusting it would cancel retransmission of data the
  // peer never delivered.
  if (msg.session != p->tx_session) {
    stats_.stale_session_acks++;
    trace_ev(obs::TraceEvent::kDrop, obs::TraceKind::kLink, from,
             msg.session);
    return;
  }
  p->tx->on_ack(msg);
}

void ServiceContainer::deliver_inner(proto::ContainerId from,
                                     proto::InnerType type, BytesView inner) {
  ByteReader r(inner);
  switch (type) {
    case proto::InnerType::kEvent: {
      proto::EventMsg msg;
      if (proto::EventMsg::decode(r, msg)) on_event_msg(from, msg);
      break;
    }
    case proto::InnerType::kRpcRequest: {
      proto::RpcRequestMsg msg;
      if (proto::RpcRequestMsg::decode(r, msg)) on_rpc_request(from, msg);
      break;
    }
    case proto::InnerType::kRpcResponse: {
      proto::RpcResponseMsg msg;
      if (proto::RpcResponseMsg::decode(r, msg)) on_rpc_response(from, msg);
      break;
    }
    case proto::InnerType::kControl: {
      uint8_t raw = r.u8();
      if (!r.ok()) break;
      on_control(from, static_cast<proto::MsgType>(raw), r);
      break;
    }
  }
}

void ServiceContainer::on_control(proto::ContainerId from,
                                  proto::MsgType type, ByteReader& r) {
  using T = proto::MsgType;
  switch (type) {
    case T::kVarSubscribe: {
      proto::VarSubscribeMsg msg;
      if (proto::VarSubscribeMsg::decode(r, msg)) on_var_subscribe(from, msg);
      break;
    }
    case T::kVarUnsubscribe: {
      proto::VarUnsubscribeMsg msg;
      if (proto::VarUnsubscribeMsg::decode(r, msg)) {
        on_var_unsubscribe(from, msg);
      }
      break;
    }
    case T::kVarSnapshot: {
      proto::VarSnapshotMsg msg;
      if (proto::VarSnapshotMsg::decode(r, msg)) on_var_snapshot(msg);
      break;
    }
    case T::kEventSubscribe: {
      proto::EventSubscribeMsg msg;
      if (proto::EventSubscribeMsg::decode(r, msg)) {
        on_event_subscribe(from, msg);
      }
      break;
    }
    case T::kEventUnsubscribe: {
      proto::EventUnsubscribeMsg msg;
      if (proto::EventUnsubscribeMsg::decode(r, msg)) {
        on_event_unsubscribe(from, msg);
      }
      break;
    }
    case T::kFileSubscribe: {
      proto::FileSubscribeMsg msg;
      if (proto::FileSubscribeMsg::decode(r, msg)) {
        on_file_subscribe(from, msg);
      }
      break;
    }
    case T::kFileUnsubscribe: {
      proto::FileUnsubscribeMsg msg;
      if (proto::FileUnsubscribeMsg::decode(r, msg)) {
        on_file_unsubscribe(from, msg);
      }
      break;
    }
    case T::kFileRevision: {
      proto::FileRevisionMsg msg;
      if (proto::FileRevisionMsg::decode(r, msg)) on_file_revision(msg);
      break;
    }
    default:
      stats_.frames_dropped++;
      break;
  }
}

}  // namespace marea::mw
