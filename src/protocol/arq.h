// Application-layer selective-repeat ARQ: the reliable link under events
// and remote invocation (paper §4.2: "a mechanism to acknowledge and
// resend lost packets … more efficient for event messages than the
// generic case provided by the TCP stack").
//
// Why it beats the TCP model at its own game (bench C3 measures this):
//   * per-message delivery — a lost message never head-of-line-blocks the
//     ones behind it;
//   * the receiver acks every arrival with its full received-set, so one
//     gap is visible immediately and retransmitted after 2 "skips"
//     (dup-ack analogue) instead of waiting for a coarse RTO;
//   * sequences are message-granular: no byte-stream bookkeeping.
// Delivery is dedup'd but NOT reordered: arrival order is delivery order.
//
// Retransmission timeout, per sender (one per peer session), after
// RFC 6298 in integer nanoseconds: the first RTT sample R sets SRTT = R
// and RTTVAR = R/2, later ones fold in with α = 1/8 and β = 1/4, and
// RTO = SRTT + 4·RTTVAR clamped to [min_rto, max_rto]; initial_rto
// applies until the first sample.
//   * Karn's rule: a message is stamped when first sent and marked once
//     re-sent by any path (timeout, fast retransmit, probe). An ack
//     yields at most one sample, from the highest seq it newly covers
//     that was sent exactly once. Receivers ack every arrival at once,
//     so there is no delayed-ack term.
//   * Tail probe (RACK-TLP, RFC 8985, simplified): sparse events give
//     fast retransmit nothing to count, so a message's first timer fires
//     at min(RTO, max(2·SRTT, min_rto)). Earlier than the RTO, the firing
//     is a probe: one re-send, no doubling, not counted toward
//     max_retries, then the full RTO.
//   * Each timeout doubles the message's own timer, capped at max_rto.
//     The sender gives up after the probe plus 13 intervals: about 3.4 s
//     from the 1 ms floor, 5.3 s from a 5 ms RTO (7.95 s for the old fixed
//     50 ms), far above the 350 ms liveness timeout.
//   * min_rto = initial_rto keeps the fixed-timer schedule while
//     SRTT + 4·RTTVAR stays below it: no sample lowers the RTO and no
//     probe fires before it (the A1 ablation).
// State: three Durations and a flag per sender; the messages in flight
// in a vector sorted by seq (they start in seq order, so start() appends
// and acks and timers binary-search), admitted by count, not by seq span;
// the rest in a RingQueue. The receiver's state is its ack, advanced in
// place. Once warm, a send/ack cycle allocates nothing beyond the
// caller's inner buffer. No floating point.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "obs/trace.h"
#include "protocol/messages.h"
#include "sched/executor.h"
#include "util/ring_queue.h"
#include "util/status.h"

namespace marea::proto {

struct ArqParams {
  Duration initial_rto = milliseconds(50);  // until the first RTT sample
  Duration min_rto = milliseconds(1);
  Duration max_rto = milliseconds(800);
  int max_retries = 12;
  size_t window = 64;       // max unacked messages in flight
  int skip_threshold = 2;   // acks seen past a gap before fast retransmit
};

struct ArqSenderStats {
  uint64_t messages_accepted = 0;
  uint64_t frames_sent = 0;     // first transmissions + retransmits
  uint64_t retransmits = 0;
  uint64_t fast_retransmits = 0;
  uint64_t delivered = 0;       // acked
  uint64_t failed = 0;          // gave up after max_retries

  ArqSenderStats& operator+=(const ArqSenderStats& o) {
    messages_accepted += o.messages_accepted;
    frames_sent += o.frames_sent;
    retransmits += o.retransmits;
    fast_retransmits += o.fast_retransmits;
    delivered += o.delivered;
    failed += o.failed;
    return *this;
  }
};

class ArqSender {
 public:
  // `send_fn` puts one ReliableDataMsg on the wire (unreliably).
  using SendFn = std::function<void(const ReliableDataMsg&)>;
  using DeliveredFn = std::function<void(uint64_t seq)>;
  using FailedFn = std::function<void(uint64_t seq, const Status&)>;

  ArqSender(sched::Executor& executor, sched::Priority priority,
            ArqParams params, SendFn send_fn);
  ~ArqSender();

  ArqSender(const ArqSender&) = delete;
  ArqSender& operator=(const ArqSender&) = delete;

  void set_on_delivered(DeliveredFn fn) { on_delivered_ = std::move(fn); }
  void set_on_failed(FailedFn fn) { on_failed_ = std::move(fn); }

  // Optional flight recorder: every retransmission is recorded as a
  // kRetransmit/kLink event with node = `self`, a = `peer` and b = the
  // message sequence being resent. Null disables recording.
  void set_trace(obs::TraceRing* trace, uint32_t self, uint64_t peer) {
    trace_ = trace;
    trace_self_ = self;
    trace_peer_ = peer;
  }

  // Queues one message for guaranteed delivery; returns its sequence.
  // May be called from the on_delivered/on_failed callbacks.
  uint64_t send(InnerType inner_type, Buffer inner);

  void on_ack(const ReliableAckMsg& ack);

  size_t in_flight() const { return outstanding_.size(); }
  size_t queued() const { return pending_.size(); }
  const ArqSenderStats& stats() const { return stats_; }
  // Smoothed round trip (zero before the first sample) and the timeout
  // the next first transmission is armed with.
  Duration srtt() const { return srtt_; }
  Duration rto() const { return rto_; }

 private:
  struct Outstanding {
    ReliableDataMsg msg;
    TimePoint first_sent{};
    bool resent = false;   // Karn: no RTT sample from this seq
    bool probing = false;  // the armed timer is the tail probe
    int retries = 0;
    int skips = 0;  // acks seen that exclude this seq
    Duration rto;   // this message's timer, doubled on each timeout
    sched::TaskTimerId timer = sched::kInvalidTaskTimer;
  };

  Outstanding* find(uint64_t seq);  // null when not in flight
  void start(ReliableDataMsg msg);
  void transmit(Outstanding& out, bool retransmit, Duration timer);
  void on_rtt_sample(Duration r);
  void on_timeout(uint64_t seq);
  void fail(uint64_t seq, const Status& status);
  void pump_pending();

  sched::Executor& executor_;
  sched::Priority priority_;
  ArqParams params_;
  SendFn send_fn_;
  DeliveredFn on_delivered_;
  FailedFn on_failed_;

  // RFC 6298 estimator state.
  Duration srtt_ = kDurationZero;
  Duration rttvar_ = kDurationZero;
  Duration rto_;
  bool has_rtt_ = false;

  uint64_t next_seq_ = 0;
  std::vector<Outstanding> outstanding_;  // sorted by msg.seq
  RingQueue<ReliableDataMsg> pending_;   // waiting for window space
  ArqSenderStats stats_;
  obs::TraceRing* trace_ = nullptr;
  uint32_t trace_self_ = 0;
  uint64_t trace_peer_ = 0;
};

struct ArqReceiverStats {
  uint64_t frames_received = 0;
  uint64_t delivered = 0;
  uint64_t duplicates = 0;
  uint64_t acks_sent = 0;

  ArqReceiverStats& operator+=(const ArqReceiverStats& o) {
    frames_received += o.frames_received;
    delivered += o.delivered;
    duplicates += o.duplicates;
    acks_sent += o.acks_sent;
    return *this;
  }
};

class ArqReceiver {
 public:
  // Gets the receiver's own ack, uncopied: the callee may stamp its
  // incarnation and session but not change floor or above.
  using AckFn = std::function<void(ReliableAckMsg&)>;
  using DeliverFn = std::function<void(InnerType type, BytesView inner)>;

  ArqReceiver(AckFn ack_fn, DeliverFn deliver_fn)
      : ack_fn_(std::move(ack_fn)), deliver_fn_(std::move(deliver_fn)) {}

  void on_data(const ReliableDataMsg& msg);

  uint64_t floor() const { return ack_.floor; }
  const ArqReceiverStats& stats() const { return stats_; }

 private:
  void send_ack();

  AckFn ack_fn_;
  DeliverFn deliver_fn_;
  ReliableAckMsg ack_;  // seqs < floor received, and offsets above it
  ArqReceiverStats stats_;
};

}  // namespace marea::proto
