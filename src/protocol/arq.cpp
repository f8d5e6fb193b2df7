#include "protocol/arq.h"

#include <algorithm>
#include <cassert>
#include <optional>

namespace marea::proto {

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
  for (auto& [seq, out] : outstanding_) executor_.cancel(out.timer);
}

uint64_t ArqSender::send(InnerType inner_type, Buffer inner) {
  ReliableDataMsg msg;
  msg.seq = next_seq_++;
  msg.inner_type = inner_type;
  msg.inner = std::move(inner);
  stats_.messages_accepted++;

  const uint64_t seq = msg.seq;
  if (outstanding_.size() >= params_.window) {
    pending_.push_back(std::move(msg));
  } else {
    start(std::move(msg));
  }
  return seq;
}

void ArqSender::start(ReliableDataMsg msg) {
  const uint64_t seq = msg.seq;
  auto [it, inserted] = outstanding_.emplace(seq, Outstanding{});
  assert(inserted);
  Outstanding& out = it->second;
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
  auto it = outstanding_.find(seq);
  if (it == outstanding_.end()) return;
  Outstanding& out = it->second;
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
  auto it = outstanding_.find(seq);
  if (it == outstanding_.end()) return;
  executor_.cancel(it->second.timer);
  outstanding_.erase(it);
  stats_.failed++;
  if (on_failed_) on_failed_(seq, status);
  pump_pending();
}

bool ArqSender::is_acked(const ReliableAckMsg& ack, uint64_t seq) const {
  if (seq < ack.floor) return true;
  uint64_t offset = seq - ack.floor;
  if (offset > UINT32_MAX) return false;
  return ack.above.contains(static_cast<uint32_t>(offset));
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
  for (auto it = outstanding_.begin(); it != outstanding_.end();) {
    uint64_t seq = it->first;
    Outstanding& out = it->second;
    if (is_acked(ack, seq)) {
      executor_.cancel(out.timer);
      if (!out.resent) sample_sent = out.first_sent;
      stats_.delivered++;
      uint64_t done = seq;
      it = outstanding_.erase(it);
      if (on_delivered_) on_delivered_(done);
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
    ++it;
  }
  if (sample_sent) on_rtt_sample(executor_.now() - *sample_sent);
  pump_pending();
}

void ArqSender::pump_pending() {
  while (!pending_.empty() && outstanding_.size() < params_.window) {
    ReliableDataMsg msg = std::move(pending_.front());
    pending_.pop_front();
    start(std::move(msg));
  }
}

// ---------------------------------------------------------------------------
// ArqReceiver
// ---------------------------------------------------------------------------

void ArqReceiver::on_data(const ReliableDataMsg& msg) {
  stats_.frames_received++;
  bool duplicate = false;
  if (msg.seq < floor_) {
    duplicate = true;
  } else {
    uint64_t offset = msg.seq - floor_;
    if (offset <= UINT32_MAX &&
        above_.contains(static_cast<uint32_t>(offset))) {
      duplicate = true;
    }
  }
  if (duplicate) {
    stats_.duplicates++;
    send_ack();  // re-ack so the sender stops retransmitting
    return;
  }

  uint64_t offset = msg.seq - floor_;
  assert(offset <= UINT32_MAX && "ARQ window drifted too far");
  above_.insert(static_cast<uint32_t>(offset));

  // Advance the floor over a now-contiguous prefix and rebase offsets.
  if (!above_.runs().empty() && above_.runs().front().first == 0) {
    uint32_t advance = above_.runs().front().count;
    RunSet rebased;
    for (const auto& run : above_.runs()) {
      if (run.first == 0) continue;
      rebased.insert_run(run.first - advance, run.count);
    }
    above_ = std::move(rebased);
    floor_ += advance;
  }

  stats_.delivered++;
  if (deliver_fn_) deliver_fn_(msg.inner_type, as_bytes_view(msg.inner));
  send_ack();
}

void ArqReceiver::send_ack() {
  stats_.acks_sent++;
  if (!ack_fn_) return;
  ReliableAckMsg ack;
  ack.floor = floor_;
  ack.above = above_;
  ack_fn_(ack);
}

}  // namespace marea::proto
