// PEPt *Protocol* subsystem, outermost layer: every datagram the
// middleware puts on the wire is one Frame — a fixed header denoting the
// intent of the message (paper §6: "Protocol frames the encoded data to
// denote the intent of the message"), the payload, and a trailing CRC-32.
//
// FrameBuilder is the only way to make a frame; open_frame is the only
// way to read one.
//
// Header layout (little endian):
//   magic   u16  0x4D41 ("MA")
//   version u8   kProtocolVersion
//   type    u8   MsgType — see messages.h
//   source  u32  sending container id
//   [payload]
//   crc     u32  CRC-32 over everything before it
#pragma once

#include <cstdint>

#include "util/bytes.h"
#include "util/frame_pool.h"
#include "util/status.h"

namespace marea::proto {

constexpr uint16_t kFrameMagic = 0x4D41;
constexpr uint8_t kProtocolVersion = 1;
constexpr size_t kFrameOverhead = 2 + 1 + 1 + 4 + 4;  // header + crc

using ContainerId = uint32_t;
constexpr ContainerId kInvalidContainer = 0;

enum class MsgType : uint8_t {
  // --- discovery & membership (best effort; broadcast or unicast) ---
  kContainerHello = 1,   // manifest of a container's services
  kContainerBye = 2,     // orderly shutdown
  kHeartbeat = 3,        // liveness beacon + manifest version
  kHelloRequest = 5,     // unicast pull of a peer's manifest
  // --- variables (best effort; multicast when available) ---
  kVarSubscribe = 20,
  kVarUnsubscribe = 21,
  kVarSample = 22,
  kVarSnapshot = 24,  // "guaranteed initial exact value" (§4.1)
  // --- events (control only; data rides the reliable link) ---
  kEventSubscribe = 25,
  kEventUnsubscribe = 26,
  // --- reliable link (events + rpc ride on this ARQ) ---
  kReliableData = 30,
  kReliableAck = 31,
  // --- file transfer (MFTP-like, §4.4) ---
  kFileSubscribe = 40,
  kFileUnsubscribe = 41,
  kFileChunk = 42,        // multicast
  kFileStatusRequest = 43,
  kFileAck = 44,
  kFileNack = 45,         // carries compressed missing-chunk list
  kFileRevision = 46,     // resource changed revision
};

const char* msg_type_name(MsgType t);

struct FrameHeader {
  MsgType type = MsgType::kHeartbeat;
  ContainerId source = kInvalidContainer;
};

// Validates magic/version/CRC and splits header from payload (payload view
// aliases `frame`). kDataLoss on any corruption.
StatusOr<FrameHeader> open_frame(BytesView frame, BytesView* payload);

// Zero-copy frame construction: checks a slab out of `pool`, writes the
// header, lets the caller serialize the payload directly into the frame
// via payload(), then seal() appends the trailing CRC in place and
// freezes the slab into an immutable SharedFrame — no intermediate
// message buffer and no re-copy.
class FrameBuilder {
 public:
  FrameBuilder(FramePool& pool, FrameHeader header);

  // Positioned immediately after the frame header; everything written
  // here lands in the sealed frame's payload.
  ByteWriter& payload() { return writer_; }

  // Appends the CRC and publishes the frame. Consumes the builder.
  SharedFrame seal() &&;

 private:
  FrameLease lease_;
  ByteWriter writer_;
};

}  // namespace marea::proto
