// Wire message catalogue: the payload structures carried inside frames.
// Each message provides encode(ByteWriter&) and a total decode() that
// returns false on malformed input. Data-plane values (samples, events,
// RPC args) travel as opaque blobs already encoded by the PEPt Encoding
// layer; these structs are the Protocol layer's framing around them.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "protocol/frame.h"
#include "util/bytes.h"
#include "util/rle.h"

namespace marea::proto {

// ---------------------------------------------------------------------------
// Discovery & membership
// ---------------------------------------------------------------------------

enum class ItemKind : uint8_t {
  kVariable = 0,
  kEvent = 1,
  kFunction = 2,
  kFile = 3,
};

enum class ServiceState : uint8_t {
  kStopped = 0,
  kStarting = 1,
  kRunning = 2,
  kDegraded = 3,
  kFailed = 4,
};
const char* service_state_name(ServiceState state);

// One variable/event/function/file a service provides.
struct ProvidedItem {
  ItemKind kind = ItemKind::kVariable;
  std::string name;        // global dotted name, e.g. "gps.position"
  uint32_t schema_hash = 0;
  int64_t period_ns = 0;   // variables: publication period (0 = on change)
  int64_t validity_ns = 0; // variables: QoS validity window

  void encode(ByteWriter& w) const;
  static bool decode(ByteReader& r, ProvidedItem& out);
  friend bool operator==(const ProvidedItem&, const ProvidedItem&) = default;
};

struct ServiceInfo {
  std::string name;
  ServiceState state = ServiceState::kStopped;
  std::vector<ProvidedItem> items;

  void encode(ByteWriter& w) const;
  static bool decode(ByteReader& r, ServiceInfo& out);
  friend bool operator==(const ServiceInfo&, const ServiceInfo&) = default;
};

// A container's manifest. Broadcast on start and on every manifest
// change, unicast to a newly seen peer, and the answer to HELLO_REQUEST.
struct ContainerHelloMsg {
  uint64_t incarnation = 0;  // increases across restarts
  // Counts manifest changes within an incarnation: a registration, a new
  // file name or a service state change. A receiver applies a hello only
  // when it carries a newer version than the one it holds.
  uint64_t manifest_version = 0;
  uint16_t data_port = 0;    // where this container receives everything
  std::string node_name;
  std::vector<ServiceInfo> services;

  void encode(ByteWriter& w) const;
  static bool decode(ByteReader& r, ContainerHelloMsg& out);
};

// A message whose frame header says everything.
struct EmptyMsg {
  void encode(ByteWriter&) const {}
  static bool decode(ByteReader&, EmptyMsg&) { return true; }
};
using ContainerByeMsg = EmptyMsg;
// Unicast to a peer whose heartbeat shows a manifest version newer than
// the one held; the peer answers with its hello (paper §3: the container
// tells the others when a service's status changes).
using HelloRequestMsg = EmptyMsg;

// Liveness beacon. The version lets a peer that missed a hello notice.
struct HeartbeatMsg {
  uint64_t incarnation = 0;
  uint64_t manifest_version = 0;

  void encode(ByteWriter& w) const;
  static bool decode(ByteReader& r, HeartbeatMsg& out);
};

// ---------------------------------------------------------------------------
// Variables (§4.1)
// ---------------------------------------------------------------------------

struct VarSubscribeMsg {
  std::string name;
  uint32_t schema_hash = 0;  // provider refuses mismatched structures

  void encode(ByteWriter& w) const;
  static bool decode(ByteReader& r, VarSubscribeMsg& out);
};

struct VarUnsubscribeMsg {
  std::string name;

  void encode(ByteWriter& w) const;
  static bool decode(ByteReader& r, VarUnsubscribeMsg& out);
};

// Best-effort sample. `channel` is crc32(name): compact on the wire; the
// receiver resolves it against its subscription table (name travels only
// in subscribe/announce messages).
struct VarSampleMsg {
  uint32_t channel = 0;
  uint64_t seq = 0;
  int64_t pub_time_ns = 0;
  // Borrowed from the provider's cached encoding on send and from the
  // frame buffer on decode; both lifetimes cover the synchronous use.
  Bytes value;

  void encode(ByteWriter& w) const;
  static bool decode(ByteReader& r, VarSampleMsg& out);
};

// Unicast "initial exact value" (§4.1); carries the name so it is
// unambiguous even before the subscriber sees any announce.
struct VarSnapshotMsg {
  std::string name;
  uint64_t seq = 0;
  int64_t pub_time_ns = 0;
  bool has_value = false;  // publisher may not have produced one yet
  Bytes value;

  void encode(ByteWriter& w) const;
  static bool decode(ByteReader& r, VarSnapshotMsg& out);
};

// ---------------------------------------------------------------------------
// Reliable link (events §4.2 and remote invocation §4.3 ride on this)
// ---------------------------------------------------------------------------

enum class InnerType : uint8_t {
  kEvent = 1,
  kRpcRequest = 2,
  kRpcResponse = 3,
  // Subscription control wrapped for guaranteed delivery: the inner blob is
  // one byte of MsgType followed by that message's payload. Lost subscribe
  // requests would otherwise strand a service silently.
  kControl = 4,
};

// Event subscriptions reuse the variable subscribe shape.
using EventSubscribeMsg = VarSubscribeMsg;
using EventUnsubscribeMsg = VarUnsubscribeMsg;

struct ReliableDataMsg {
  // Sender container incarnation: ARQ sequence numbers restart from 1 in
  // every incarnation, so a receiver must discard frames stamped with a
  // dead incarnation or risk replaying them as fresh data. 0 = unstamped.
  uint64_t incarnation = 0;
  // Sender link session: bumped every time the sender rebuilds its ARQ
  // state for this peer (peer declared lost after an outage, then
  // re-discovered). Sequences restart per session; a receiver holding
  // state from an older session must reset or it will mistake the fresh
  // stream for duplicates of the old one. 0 = unstamped.
  uint64_t session = 0;
  uint64_t seq = 0;
  InnerType inner_type = InnerType::kEvent;
  // Owned in the ARQ sender's retransmit queue; borrowed in the stamped
  // per-transmit copy and on decode.
  Bytes inner;

  void encode(ByteWriter& w) const;
  static bool decode(ByteReader& r, ReliableDataMsg& out);
};

// Receiver state advertisement: everything below `floor` received, plus
// the (compressed) set of sequences received above it.
struct ReliableAckMsg {
  // Acker's incarnation: a stale ack from a dead incarnation must not
  // confirm (and thereby cancel retransmission of) new-incarnation data.
  uint64_t incarnation = 0;
  // Echo of the data session this receiver state was built from: an ack
  // from a receiver still tracking an older sender life must not confirm
  // (and thereby swallow) new-session data.
  uint64_t session = 0;
  uint64_t floor = 0;
  RunSet above;  // offsets relative to floor

  void encode(ByteWriter& w) const;
  static bool decode(ByteReader& r, ReliableAckMsg& out);
};

struct EventMsg {
  std::string name;
  uint64_t pub_seq = 0;
  int64_t pub_time_ns = 0;
  Bytes value;  // empty when the event has meaning by itself (§4.2)

  void encode(ByteWriter& w) const;
  static bool decode(ByteReader& r, EventMsg& out);
};

struct RpcRequestMsg {
  uint64_t request_id = 0;
  std::string function;
  Bytes args;

  void encode(ByteWriter& w) const;
  static bool decode(ByteReader& r, RpcRequestMsg& out);
};

struct RpcResponseMsg {
  uint64_t request_id = 0;
  uint8_t status_code = 0;  // StatusCode as u8
  std::string error;
  Bytes result;

  void encode(ByteWriter& w) const;
  static bool decode(ByteReader& r, RpcResponseMsg& out);
};

// ---------------------------------------------------------------------------
// File transfer (§4.4, MFTP-like)
// ---------------------------------------------------------------------------

struct FileMeta {
  std::string name;
  uint32_t revision = 0;
  uint64_t size = 0;
  uint32_t chunk_size = 0;  // nonzero on the wire, empty files included
  uint32_t content_crc = 0;  // checked only where no manifest arrived
  // Per-chunk compression codec negotiated at announce time
  // (util::Codec wire id; 0 = raw chunks). Receivers that don't know
  // the id reject chunks rather than guess.
  uint8_t codec = 0;

  uint32_t chunk_count() const {  // decode rejects counts over 32 bits
    if (chunk_size == 0) return 0;
    return static_cast<uint32_t>(size / chunk_size + (size % chunk_size != 0));
  }

  void encode(ByteWriter& w) const;
  static bool decode(ByteReader& r, FileMeta& out);
  friend bool operator==(const FileMeta&, const FileMeta&) = default;
};

struct FileSubscribeMsg {
  std::string name;
  uint32_t revision_have = 0;  // 0 = none

  void encode(ByteWriter& w) const;
  static bool decode(ByteReader& r, FileSubscribeMsg& out);
};

struct FileUnsubscribeMsg {
  std::string name;

  void encode(ByteWriter& w) const;
  static bool decode(ByteReader& r, FileUnsubscribeMsg& out);
};

// Announce phase / revision change notice: carries the metadata every
// participant needs ("total size, the number of chunks and the revision").
struct FileRevisionMsg {
  uint64_t transfer_id = 0;
  FileMeta meta;
  // Content-addressed manifest: hash64 of each raw chunk, in index
  // order. Either empty (legacy announce) or exactly
  // meta.chunk_count() entries — decode rejects anything else, so a
  // hostile count can't balloon the vector.
  std::vector<uint64_t> chunk_hashes;

  void encode(ByteWriter& w) const;
  static bool decode(ByteReader& r, FileRevisionMsg& out);
};

// FileChunkMsg.flags bits.
constexpr uint8_t kChunkFlagCompressed = 0x01;  // data is codec-encoded

struct FileChunkMsg {
  uint64_t transfer_id = 0;
  uint32_t revision = 0;
  uint32_t index = 0;
  uint64_t hash = 0;  // hash64 of the RAW chunk bytes (0 = not hashed)
  uint8_t flags = 0;
  Bytes data;

  void encode(ByteWriter& w) const;
  static bool decode(ByteReader& r, FileChunkMsg& out);
};

struct FileStatusRequestMsg {
  uint64_t transfer_id = 0;
  uint32_t revision = 0;
  uint32_t round = 0;

  void encode(ByteWriter& w) const;
  static bool decode(ByteReader& r, FileStatusRequestMsg& out);
};

struct FileAckMsg {
  uint64_t transfer_id = 0;
  uint32_t revision = 0;

  void encode(ByteWriter& w) const;
  static bool decode(ByteReader& r, FileAckMsg& out);
};

struct FileNackMsg {
  uint64_t transfer_id = 0;
  uint32_t revision = 0;
  // Echo of the announce manifest hash the receiver is repairing
  // against (0 = receiver has no manifest). A publisher drops NACKs
  // whose echo names a manifest it is not serving.
  uint64_t manifest_hash = 0;
  RunSet missing;  // compressed list of lacked chunks (§4.4)

  void encode(ByteWriter& w) const;
  static bool decode(ByteReader& r, FileNackMsg& out);
};

// Channel id for a named variable/event stream.
uint32_t channel_of(const std::string& name);

}  // namespace marea::proto
