#include "protocol/arq.h"

#include <algorithm>
#include <cassert>
#include <optional>

namespace marea::proto {

namespace {
// Whether `ack` shows `seq` received.
bool covers(const ReliableAckMsg& ack, uint64_t seq) {
  if (seq < ack.floor) return true;
  const uint64_t offset = seq - ack.floor;
  return offset <= UINT32_MAX &&
         ack.above.contains(static_cast<uint32_t>(offset));
}
}  // namespace

// ---------------------------------------------------------------------------
// ArqSender
// ---------------------------------------------------------------------------

ArqSender::ArqSender(sched::Executor& executor, sched::Priority priority,
                     ArqParams params, SendFn send_fn)
    : executor_(executor),
      priority_(priority),
      params_(params),
      send_fn_(std::move(send_fn)),
      rto_(params.initial_rto) {
  assert(send_fn_);
}

ArqSender::~ArqSender() {
  for (Outstanding& out : outstanding_) executor_.cancel(out.timer);
}

uint64_t ArqSender::send(InnerType inner_type, Buffer inner) {
  ReliableDataMsg msg;
  msg.seq = next_seq_++;
  msg.inner_type = inner_type;
  msg.inner = std::move(inner);
  stats_.messages_accepted++;

  const uint64_t seq = msg.seq;
  // Behind queued ones too, so messages start in seq order (a callback
  // run mid-ack can see the window short of full with messages queued).
  if (outstanding_.size() >= params_.window || !pending_.empty()) {
    pending_.emplace_back(std::move(msg));
  } else {
    start(std::move(msg));
  }
  return seq;
}

ArqSender::Outstanding* ArqSender::find(uint64_t seq) {
  auto it = std::lower_bound(
      outstanding_.begin(), outstanding_.end(), seq,
      [](const Outstanding& o, uint64_t s) { return o.msg.seq < s; });
  return it != outstanding_.end() && it->msg.seq == seq ? &*it : nullptr;
}

void ArqSender::start(ReliableDataMsg msg) {
  assert(outstanding_.empty() || outstanding_.back().msg.seq < msg.seq);
  Outstanding& out = outstanding_.emplace_back();
  out.msg = std::move(msg);
  out.first_sent = executor_.now();
  out.rto = rto_;
  // The tail probe: before the full RTO, re-send once after about two
  // round trips, the only repair a lone message can get early.
  Duration timer = rto_;
  if (has_rtt_) {
    timer = std::min(rto_, std::max(Duration{srtt_.ns * 2}, params_.min_rto));
  }
  out.probing = timer < rto_;
  transmit(out, /*retransmit=*/false, timer);
}

void ArqSender::transmit(Outstanding& out, bool retransmit, Duration timer) {
  stats_.frames_sent++;
  if (retransmit) {
    out.resent = true;
    stats_.retransmits++;
    if (trace_) {
      trace_->record(executor_.now(), obs::TraceEvent::kRetransmit,
                     obs::TraceKind::kLink, trace_self_, trace_peer_,
                     out.msg.seq);
    }
  }
  send_fn_(out.msg);
  executor_.cancel(out.timer);
  const uint64_t seq = out.msg.seq;
  out.timer =
      executor_.schedule(timer, priority_, [this, seq] { on_timeout(seq); });
}

void ArqSender::on_timeout(uint64_t seq) {
  Outstanding* found = find(seq);
  if (!found) return;
  Outstanding& out = *found;
  out.timer = sched::kInvalidTaskTimer;
  if (out.probing) {
    out.probing = false;
    transmit(out, /*retransmit=*/true, out.rto);
    return;
  }
  if (++out.retries > params_.max_retries) {
    fail(seq, timeout_error("ARQ gave up after max retries"));
    return;
  }
  out.rto = std::min(Duration{out.rto.ns * 2}, params_.max_rto);
  transmit(out, /*retransmit=*/true, out.rto);
}

void ArqSender::on_rtt_sample(Duration r) {
  if (!has_rtt_) {
    has_rtt_ = true;
    srtt_ = r;
    rttvar_ = Duration{r.ns / 2};
  } else {
    const int64_t err = srtt_.ns > r.ns ? srtt_.ns - r.ns : r.ns - srtt_.ns;
    rttvar_ = Duration{(3 * rttvar_.ns + err) / 4};
    srtt_ = Duration{(7 * srtt_.ns + r.ns) / 8};
  }
  rto_ = std::max(params_.min_rto,
                  std::min(Duration{srtt_.ns + 4 * rttvar_.ns},
                           params_.max_rto));
}

void ArqSender::fail(uint64_t seq, const Status& status) {
  Outstanding* out = find(seq);
  if (!out) return;
  executor_.cancel(out->timer);
  outstanding_.erase(outstanding_.begin() + (out - outstanding_.data()));
  stats_.failed++;
  if (on_failed_) on_failed_(seq, status);
  pump_pending();
}

void ArqSender::on_ack(const ReliableAckMsg& ack) {
  // Highest sequence this ack proves was received.
  uint64_t highest = ack.floor == 0 ? 0 : ack.floor - 1;
  bool any_above = !ack.above.empty();
  if (any_above) {
    const auto& runs = ack.above.runs();
    highest = ack.floor + runs.back().first + runs.back().count - 1;
  }
  bool has_any = ack.floor > 0 || any_above;

  // Karn's rule: at most one sample per ack, from the highest seq it
  // newly covers that was sent exactly once.
  std::optional<TimePoint> sample_sent;
  // By index: on_delivered_ may send(), which appends (and may regrow).
  for (size_t i = 0; i < outstanding_.size();) {
    Outstanding& out = outstanding_[i];
    const uint64_t seq = out.msg.seq;
    if (covers(ack, seq)) {
      executor_.cancel(out.timer);
      if (!out.resent) sample_sent = out.first_sent;
      stats_.delivered++;
      outstanding_.erase(outstanding_.begin() + static_cast<ptrdiff_t>(i));
      if (on_delivered_) on_delivered_(seq);
      continue;
    }
    // Gap detection: the receiver has something newer than this seq but
    // not this seq itself — after a couple of such sightings, retransmit
    // without waiting for the RTO (the efficiency edge over plain TCP).
    if (has_any && seq < highest) {
      if (++out.skips >= params_.skip_threshold) {
        out.skips = 0;
        out.probing = false;
        stats_.fast_retransmits++;
        transmit(out, /*retransmit=*/true, out.rto);
      }
    }
    ++i;
  }
  if (sample_sent) on_rtt_sample(executor_.now() - *sample_sent);
  pump_pending();
}

void ArqSender::pump_pending() {
  while (!pending_.empty() && outstanding_.size() < params_.window) {
    start(std::move(pending_.front()));
    pending_.pop_front();
  }
}

// ---------------------------------------------------------------------------
// ArqReceiver
// ---------------------------------------------------------------------------

void ArqReceiver::on_data(const ReliableDataMsg& msg) {
  stats_.frames_received++;
  if (covers(ack_, msg.seq)) {
    stats_.duplicates++;
    send_ack();  // re-ack so the sender stops retransmitting
    return;
  }
  RunSet& above = ack_.above;
  const uint64_t offset = msg.seq - ack_.floor;
  assert(offset <= UINT32_MAX && "ARQ window drifted too far");
  if (offset == 0) {
    // In order: the floor moves past this seq and the run it now joins,
    // and the offsets above are rebased in place.
    uint32_t advance = 1;
    if (!above.empty() && above.runs().front().first == 1) {
      advance += above.runs().front().count;
    }
    above.rebase(advance);
    ack_.floor += advance;
  } else {
    above.insert(static_cast<uint32_t>(offset));
  }

  stats_.delivered++;
  if (deliver_fn_) deliver_fn_(msg.inner_type, as_bytes_view(msg.inner));
  send_ack();
}

void ArqReceiver::send_ack() {
  stats_.acks_sent++;
  if (ack_fn_) ack_fn_(ack_);
}

}  // namespace marea::proto
