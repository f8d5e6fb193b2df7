#include "protocol/messages.h"

#include "util/crc32.h"

namespace marea::proto {

namespace {
// Bounds for repeated elements — a malformed length prefix must not
// allocate unbounded memory.
constexpr uint64_t kMaxServices = 1024;
constexpr uint64_t kMaxItems = 4096;
}  // namespace

const char* service_state_name(ServiceState state) {
  switch (state) {
    case ServiceState::kStopped: return "stopped";
    case ServiceState::kStarting: return "starting";
    case ServiceState::kRunning: return "running";
    case ServiceState::kDegraded: return "degraded";
    case ServiceState::kFailed: return "failed";
  }
  return "?";
}

uint32_t channel_of(const std::string& name) {
  return crc32(BytesView(reinterpret_cast<const uint8_t*>(name.data()),
                         name.size()));
}

// --- ProvidedItem -----------------------------------------------------------

void ProvidedItem::encode(ByteWriter& w) const {
  w.u8(static_cast<uint8_t>(kind));
  w.str(name);
  w.u32(schema_hash);
  w.svarint(period_ns);
  w.svarint(validity_ns);
}

bool ProvidedItem::decode(ByteReader& r, ProvidedItem& out) {
  uint8_t kind = r.u8();
  if (kind > static_cast<uint8_t>(ItemKind::kFile)) return false;
  out.kind = static_cast<ItemKind>(kind);
  out.name = r.str();
  out.schema_hash = r.u32();
  out.period_ns = r.svarint();
  out.validity_ns = r.svarint();
  return r.ok();
}

// --- ServiceInfo ------------------------------------------------------------

void ServiceInfo::encode(ByteWriter& w) const {
  w.str(name);
  w.u8(static_cast<uint8_t>(state));
  w.varint(items.size());
  for (const auto& item : items) item.encode(w);
}

bool ServiceInfo::decode(ByteReader& r, ServiceInfo& out) {
  out.name = r.str();
  uint8_t state = r.u8();
  if (state > static_cast<uint8_t>(ServiceState::kFailed)) return false;
  out.state = static_cast<ServiceState>(state);
  uint64_t n = r.varint();
  if (!r.ok() || n > kMaxItems) return false;
  out.items.resize(static_cast<size_t>(n));
  for (auto& item : out.items) {
    if (!ProvidedItem::decode(r, item)) return false;
  }
  return r.ok();
}

// --- ContainerHelloMsg ------------------------------------------------------

void ContainerHelloMsg::encode(ByteWriter& w) const {
  w.varint(incarnation);
  w.varint(manifest_version);
  w.u16(data_port);
  w.str(node_name);
  w.varint(services.size());
  for (const auto& s : services) s.encode(w);
}

bool ContainerHelloMsg::decode(ByteReader& r, ContainerHelloMsg& out) {
  out.incarnation = r.varint();
  out.manifest_version = r.varint();
  out.data_port = r.u16();
  out.node_name = r.str();
  uint64_t n = r.varint();
  if (!r.ok() || n > kMaxServices) return false;
  out.services.resize(static_cast<size_t>(n));
  for (auto& s : out.services) {
    if (!ServiceInfo::decode(r, s)) return false;
  }
  return r.ok();
}

// --- HeartbeatMsg -----------------------------------------------------------

void HeartbeatMsg::encode(ByteWriter& w) const {
  w.varint(incarnation);
  w.varint(manifest_version);
}

bool HeartbeatMsg::decode(ByteReader& r, HeartbeatMsg& out) {
  out.incarnation = r.varint();
  out.manifest_version = r.varint();
  return r.ok();
}

// --- Variables --------------------------------------------------------------

void VarSubscribeMsg::encode(ByteWriter& w) const {
  w.str(name);
  w.u32(schema_hash);
}

bool VarSubscribeMsg::decode(ByteReader& r, VarSubscribeMsg& out) {
  out.name = r.str();
  out.schema_hash = r.u32();
  return r.ok();
}

void VarUnsubscribeMsg::encode(ByteWriter& w) const { w.str(name); }

bool VarUnsubscribeMsg::decode(ByteReader& r, VarUnsubscribeMsg& out) {
  out.name = r.str();
  return r.ok();
}

void VarSampleMsg::encode(ByteWriter& w) const {
  w.u32(channel);
  w.varint(seq);
  w.svarint(pub_time_ns);
  w.blob(as_bytes_view(value));
}

bool VarSampleMsg::decode(ByteReader& r, VarSampleMsg& out) {
  out.channel = r.u32();
  out.seq = r.varint();
  out.pub_time_ns = r.svarint();
  out.value = Bytes::borrow(r.blob());
  return r.ok();
}

void VarSnapshotMsg::encode(ByteWriter& w) const {
  w.str(name);
  w.varint(seq);
  w.svarint(pub_time_ns);
  w.u8(has_value ? 1 : 0);
  w.blob(as_bytes_view(value));
}

bool VarSnapshotMsg::decode(ByteReader& r, VarSnapshotMsg& out) {
  out.name = r.str();
  out.seq = r.varint();
  out.pub_time_ns = r.svarint();
  out.has_value = r.u8() != 0;
  out.value = Bytes::borrow(r.blob());
  return r.ok();
}

// --- Reliable link ----------------------------------------------------------

void ReliableDataMsg::encode(ByteWriter& w) const {
  w.varint(incarnation);
  w.varint(session);
  w.varint(seq);
  w.u8(static_cast<uint8_t>(inner_type));
  w.blob(as_bytes_view(inner));
}

bool ReliableDataMsg::decode(ByteReader& r, ReliableDataMsg& out) {
  out.incarnation = r.varint();
  out.session = r.varint();
  out.seq = r.varint();
  uint8_t t = r.u8();
  if (t < 1 || t > 4) return false;
  out.inner_type = static_cast<InnerType>(t);
  out.inner = Bytes::borrow(r.blob());
  return r.ok();
}

void ReliableAckMsg::encode(ByteWriter& w) const {
  w.varint(incarnation);
  w.varint(session);
  w.varint(floor);
  above.encode(w);
}

bool ReliableAckMsg::decode(ByteReader& r, ReliableAckMsg& out) {
  out.incarnation = r.varint();
  out.session = r.varint();
  out.floor = r.varint();
  if (!r.ok()) return false;
  return RunSet::decode(r, out.above);
}

void EventMsg::encode(ByteWriter& w) const {
  w.str(name);
  w.varint(pub_seq);
  w.svarint(pub_time_ns);
  w.blob(as_bytes_view(value));
}

bool EventMsg::decode(ByteReader& r, EventMsg& out) {
  out.name = r.str();
  out.pub_seq = r.varint();
  out.pub_time_ns = r.svarint();
  out.value = Bytes::borrow(r.blob());
  return r.ok();
}

void RpcRequestMsg::encode(ByteWriter& w) const {
  w.varint(request_id);
  w.str(function);
  w.blob(as_bytes_view(args));
}

bool RpcRequestMsg::decode(ByteReader& r, RpcRequestMsg& out) {
  out.request_id = r.varint();
  out.function = r.str();
  out.args = Bytes::borrow(r.blob());
  return r.ok();
}

void RpcResponseMsg::encode(ByteWriter& w) const {
  w.varint(request_id);
  w.u8(status_code);
  w.str(error);
  w.blob(as_bytes_view(result));
}

bool RpcResponseMsg::decode(ByteReader& r, RpcResponseMsg& out) {
  out.request_id = r.varint();
  out.status_code = r.u8();
  out.error = r.str();
  out.result = Bytes::borrow(r.blob());
  return r.ok();
}

// --- File transfer ----------------------------------------------------------

void FileMeta::encode(ByteWriter& w) const {
  w.str(name);
  w.varint(revision);
  w.varint(size);
  w.varint(chunk_size);
  w.u32(content_crc);
  w.u8(codec);
}

bool FileMeta::decode(ByteReader& r, FileMeta& out) {
  out.name = r.str();
  uint64_t rev = r.varint();
  uint64_t size = r.varint();
  uint64_t chunk = r.varint();
  out.content_crc = r.u32();
  out.codec = r.u8();
  if (!r.ok() || rev > UINT32_MAX || chunk == 0 || chunk > UINT32_MAX) {
    return false;
  }
  out.revision = static_cast<uint32_t>(rev);
  out.size = size;
  out.chunk_size = static_cast<uint32_t>(chunk);
  return size == 0 || (size - 1) / chunk < UINT32_MAX;  // chunk_count fits
}

void FileSubscribeMsg::encode(ByteWriter& w) const {
  w.str(name);
  w.varint(revision_have);
}

bool FileSubscribeMsg::decode(ByteReader& r, FileSubscribeMsg& out) {
  out.name = r.str();
  uint64_t rev = r.varint();
  if (!r.ok() || rev > UINT32_MAX) return false;
  out.revision_have = static_cast<uint32_t>(rev);
  return true;
}

void FileUnsubscribeMsg::encode(ByteWriter& w) const { w.str(name); }

bool FileUnsubscribeMsg::decode(ByteReader& r, FileUnsubscribeMsg& out) {
  out.name = r.str();
  return r.ok();
}

void FileRevisionMsg::encode(ByteWriter& w) const {
  w.varint(transfer_id);
  meta.encode(w);
  w.varint(chunk_hashes.size());
  for (uint64_t h : chunk_hashes) w.u64(h);
}

bool FileRevisionMsg::decode(ByteReader& r, FileRevisionMsg& out) {
  out.transfer_id = r.varint();
  if (!r.ok()) return false;
  if (!FileMeta::decode(r, out.meta)) return false;
  const uint64_t count = r.varint();
  // A manifest is all-or-nothing for the announced layout; anything
  // else (including a count the remaining bytes can't back) is
  // malformed. The chunk_count bound caps allocation before reading.
  if (!r.ok() || (count != 0 && count != out.meta.chunk_count())) {
    return false;
  }
  if (r.remaining() < count * sizeof(uint64_t)) return false;
  out.chunk_hashes.resize(count);
  for (uint64_t i = 0; i < count; ++i) out.chunk_hashes[i] = r.u64();
  return r.ok();
}

void FileChunkMsg::encode(ByteWriter& w) const {
  w.varint(transfer_id);
  w.varint(revision);
  w.varint(index);
  w.u64(hash);
  w.u8(flags);
  w.blob(as_bytes_view(data));
}

bool FileChunkMsg::decode(ByteReader& r, FileChunkMsg& out) {
  out.transfer_id = r.varint();
  uint64_t rev = r.varint();
  uint64_t index = r.varint();
  out.hash = r.u64();
  out.flags = r.u8();
  out.data = Bytes::borrow(r.blob());
  if (!r.ok() || rev > UINT32_MAX || index > UINT32_MAX) return false;
  out.revision = static_cast<uint32_t>(rev);
  out.index = static_cast<uint32_t>(index);
  return true;
}

void FileStatusRequestMsg::encode(ByteWriter& w) const {
  w.varint(transfer_id);
  w.varint(revision);
  w.varint(round);
}

bool FileStatusRequestMsg::decode(ByteReader& r, FileStatusRequestMsg& out) {
  out.transfer_id = r.varint();
  uint64_t rev = r.varint();
  uint64_t round = r.varint();
  if (!r.ok() || rev > UINT32_MAX || round > UINT32_MAX) return false;
  out.revision = static_cast<uint32_t>(rev);
  out.round = static_cast<uint32_t>(round);
  return true;
}

void FileAckMsg::encode(ByteWriter& w) const {
  w.varint(transfer_id);
  w.varint(revision);
}

bool FileAckMsg::decode(ByteReader& r, FileAckMsg& out) {
  out.transfer_id = r.varint();
  uint64_t rev = r.varint();
  if (!r.ok() || rev > UINT32_MAX) return false;
  out.revision = static_cast<uint32_t>(rev);
  return true;
}

void FileNackMsg::encode(ByteWriter& w) const {
  w.varint(transfer_id);
  w.varint(revision);
  w.u64(manifest_hash);
  missing.encode(w);
}

bool FileNackMsg::decode(ByteReader& r, FileNackMsg& out) {
  out.transfer_id = r.varint();
  uint64_t rev = r.varint();
  out.manifest_hash = r.u64();
  if (!r.ok() || rev > UINT32_MAX) return false;
  out.revision = static_cast<uint32_t>(rev);
  return RunSet::decode(r, out.missing);
}

}  // namespace marea::proto
