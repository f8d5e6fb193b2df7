#include "transport/tcp_model.h"

#include <algorithm>
#include <cassert>

#include "util/logging.h"

namespace marea::transport {

TcpModelEndpoint::TcpModelEndpoint(sim::Simulator& sim, Transport& transport,
                                   uint16_t local_port, Address peer,
                                   TcpParams params, MessageHandler on_message)
    : sim_(sim),
      transport_(transport),
      local_port_(local_port),
      peer_(peer),
      params_(params),
      on_message_(std::move(on_message)),
      rto_(params.initial_rto) {
  Status s = transport_.bind_frames(
      local_port_, [this](Address from, const SharedFrame& frame) {
        if (from.host == peer_.host && from.port == peer_.port) {
          on_datagram(from, frame.view());
        }
      });
  assert(s.is_ok());
  (void)s;
}

TcpModelEndpoint::~TcpModelEndpoint() {
  sim_.cancel(rto_timer_);
  transport_.unbind(local_port_);
}

Status TcpModelEndpoint::send_message(BytesView message) {
  ByteWriter framed;
  framed.varint(message.size());
  framed.bytes(message);
  Buffer bytes = framed.take();
  send_buffer_.insert(send_buffer_.end(), bytes.begin(), bytes.end());
  pump_send();
  return Status::ok();
}

void TcpModelEndpoint::pump_send() {
  // Transmit new data while within MSS segments and the window.
  while (true) {
    uint64_t in_flight = snd_nxt_ - snd_una_;
    uint64_t buffered = send_buffer_.size();
    if (snd_nxt_ - snd_una_ >= buffered) break;             // nothing new
    if (in_flight >= params_.window_bytes) break;           // window full
    size_t len = static_cast<size_t>(
        std::min<uint64_t>({params_.mss, buffered - in_flight,
                            params_.window_bytes - in_flight}));
    if (len == 0) break;
    send_segment(snd_nxt_, len, /*retransmit=*/false);
    snd_nxt_ += len;
  }
  if (snd_una_ < snd_nxt_ && rto_timer_ == sim::kInvalidTimer) arm_rto();
}

void TcpModelEndpoint::send_segment(uint64_t seq, size_t len,
                                    bool retransmit) {
  ByteWriter w(kHeaderBytes + len);
  w.u8(kFlagData | kFlagAck);
  w.u64(seq);
  w.u64(rcv_nxt_);
  // Payload from the send buffer at offset (seq - snd_una_).
  size_t off = static_cast<size_t>(seq - snd_una_);
  assert(off + len <= send_buffer_.size());
  for (size_t i = 0; i < len; ++i) w.u8(send_buffer_[off + i]);
  stats_.segments_sent++;
  stats_.bytes_sent += w.size();
  if (retransmit) stats_.retransmits++;
  (void)transport_.send_frame(local_port_, peer_,
                              transport_.frame_pool().copy_in(w.view()));
}

void TcpModelEndpoint::send_pure_ack() {
  ByteWriter w(kHeaderBytes);
  w.u8(kFlagAck);
  w.u64(0);
  w.u64(rcv_nxt_);
  stats_.segments_sent++;
  stats_.bytes_sent += w.size();
  (void)transport_.send_frame(local_port_, peer_,
                              transport_.frame_pool().copy_in(w.view()));
}

void TcpModelEndpoint::arm_rto() {
  sim_.cancel(rto_timer_);
  rto_timer_ = sim_.after(rto_, [this] { on_rto(); });
}

void TcpModelEndpoint::on_rto() {
  rto_timer_ = sim::kInvalidTimer;
  if (snd_una_ >= snd_nxt_) return;  // everything acked meanwhile
  stats_.rto_fires++;
  // Retransmit the oldest outstanding segment, back off the timer.
  size_t len = static_cast<size_t>(std::min<uint64_t>(
      params_.mss, send_buffer_.size()));
  if (len > 0) send_segment(snd_una_, len, /*retransmit=*/true);
  rto_ = std::min(Duration{rto_.ns * 2}, params_.max_rto);
  arm_rto();
}

void TcpModelEndpoint::on_datagram(Address, BytesView data) {
  ByteReader r(data);
  uint8_t flags = r.u8();
  uint64_t seq = r.u64();
  uint64_t ack = r.u64();
  if (!r.ok()) return;

  if (flags & kFlagAck) {
    if (ack > snd_una_) {
      // New data acknowledged: drop it from the send buffer, reset RTO.
      size_t acked = static_cast<size_t>(ack - snd_una_);
      acked = std::min(acked, send_buffer_.size());
      send_buffer_.erase(send_buffer_.begin(),
                         send_buffer_.begin() +
                             static_cast<std::ptrdiff_t>(acked));
      snd_una_ = ack;
      if (snd_nxt_ < snd_una_) snd_nxt_ = snd_una_;
      dupacks_ = 0;
      last_ack_seen_ = ack;
      rto_ = params_.initial_rto;
      sim_.cancel(rto_timer_);
      rto_timer_ = sim::kInvalidTimer;
      if (snd_una_ < snd_nxt_) arm_rto();
      pump_send();
    } else if (ack == last_ack_seen_ && snd_una_ < snd_nxt_) {
      if (++dupacks_ == params_.dupack_threshold) {
        // Fast retransmit of the presumed-lost head segment.
        stats_.fast_retransmits++;
        size_t len = static_cast<size_t>(std::min<uint64_t>(
            params_.mss, send_buffer_.size()));
        if (len > 0) send_segment(snd_una_, len, /*retransmit=*/true);
        dupacks_ = 0;
      }
    } else {
      last_ack_seen_ = ack;
    }
  }

  if (flags & kFlagData) {
    BytesView payload = r.bytes(r.remaining());
    if (seq == rcv_nxt_) {
      assembled_.insert(assembled_.end(), payload.begin(), payload.end());
      rcv_nxt_ += payload.size();
      // Drain any contiguous out-of-order segments.
      auto it = ooo_.begin();
      while (it != ooo_.end() && it->first <= rcv_nxt_) {
        uint64_t seg_seq = it->first;
        Buffer& seg = it->second;
        uint64_t seg_end = seg_seq + seg.size();
        if (seg_end > rcv_nxt_) {
          size_t skip = static_cast<size_t>(rcv_nxt_ - seg_seq);
          assembled_.insert(assembled_.end(), seg.begin() +
                                static_cast<std::ptrdiff_t>(skip),
                            seg.end());
          rcv_nxt_ = seg_end;
        }
        it = ooo_.erase(it);
      }
      deliver_in_order();
    } else if (seq > rcv_nxt_) {
      ooo_.emplace(seq, to_buffer(payload));
    }
    // Ack everything we have (cumulative); duplicates signal gaps.
    send_pure_ack();
  }
}

void TcpModelEndpoint::deliver_in_order() {
  // Peel complete length-prefixed messages off the assembled stream.
  while (true) {
    ByteReader r(as_bytes_view(assembled_));
    uint64_t len = r.varint();
    if (!r.ok() || r.remaining() < len) return;
    BytesView msg = r.bytes(static_cast<size_t>(len));
    stats_.messages_delivered++;
    if (on_message_) on_message_(msg);
    size_t consumed = r.position();
    assembled_.erase(assembled_.begin(),
                     assembled_.begin() +
                         static_cast<std::ptrdiff_t>(consumed));
  }
}

}  // namespace marea::transport
