#include "protocol/frame.h"

#include "util/crc32.h"

namespace marea::proto {

const char* msg_type_name(MsgType t) {
  switch (t) {
    case MsgType::kContainerHello: return "CONTAINER_HELLO";
    case MsgType::kContainerBye: return "CONTAINER_BYE";
    case MsgType::kHeartbeat: return "HEARTBEAT";
    case MsgType::kHelloRequest: return "HELLO_REQUEST";
    case MsgType::kVarSubscribe: return "VAR_SUBSCRIBE";
    case MsgType::kVarUnsubscribe: return "VAR_UNSUBSCRIBE";
    case MsgType::kVarSample: return "VAR_SAMPLE";
    case MsgType::kVarSnapshot: return "VAR_SNAPSHOT";
    case MsgType::kEventSubscribe: return "EVENT_SUBSCRIBE";
    case MsgType::kEventUnsubscribe: return "EVENT_UNSUBSCRIBE";
    case MsgType::kReliableData: return "RELIABLE_DATA";
    case MsgType::kReliableAck: return "RELIABLE_ACK";
    case MsgType::kFileSubscribe: return "FILE_SUBSCRIBE";
    case MsgType::kFileUnsubscribe: return "FILE_UNSUBSCRIBE";
    case MsgType::kFileChunk: return "FILE_CHUNK";
    case MsgType::kFileStatusRequest: return "FILE_STATUS_REQUEST";
    case MsgType::kFileAck: return "FILE_ACK";
    case MsgType::kFileNack: return "FILE_NACK";
    case MsgType::kFileRevision: return "FILE_REVISION";
  }
  return "?";
}

FrameBuilder::FrameBuilder(FramePool& pool, FrameHeader header)
    : lease_(pool.acquire()), writer_(lease_.buffer()) {
  writer_.u16(kFrameMagic);
  writer_.u8(kProtocolVersion);
  writer_.u8(static_cast<uint8_t>(header.type));
  writer_.u32(header.source);
}

SharedFrame FrameBuilder::seal() && {
  uint32_t crc = crc32(writer_.view());
  writer_.u32(crc);
  return std::move(lease_).freeze();
}

StatusOr<FrameHeader> open_frame(BytesView frame, BytesView* payload) {
  if (frame.size() < kFrameOverhead) {
    return data_loss_error("frame too short");
  }
  BytesView body = frame.subspan(0, frame.size() - 4);
  ByteReader tail(frame.subspan(frame.size() - 4));
  if (tail.u32() != crc32(body)) {
    return data_loss_error("frame CRC mismatch");
  }
  ByteReader r(body);
  if (r.u16() != kFrameMagic) return data_loss_error("bad magic");
  if (r.u8() != kProtocolVersion) return data_loss_error("bad version");
  uint8_t type = r.u8();
  FrameHeader h;
  h.type = static_cast<MsgType>(type);
  h.source = r.u32();
  if (!r.ok()) return data_loss_error("truncated header");
  if (payload) *payload = body.subspan(r.position());
  return h;
}

}  // namespace marea::proto
