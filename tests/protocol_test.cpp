// Frame + message catalogue tests (the Protocol layer's wire grammar).
#include <gtest/gtest.h>

#include "frame_forge.h"
#include "protocol/frame.h"
#include "protocol/messages.h"

namespace marea::proto {
namespace {

// `payload` framed by FrameBuilder, as plain bytes the tests can mutate.
Buffer framed(FrameHeader header, BytesView payload) {
  FramePool pool;
  FrameBuilder fb(pool, header);
  fb.payload().bytes(payload);
  return to_buffer(std::move(fb).seal().view());
}

TEST(FrameTest, SealOpenRoundTrip) {
  Buffer payload = {1, 2, 3, 4};
  Buffer frame = framed(FrameHeader{MsgType::kVarSample, 42},
                        as_bytes_view(payload));
  EXPECT_EQ(frame.size(), payload.size() + kFrameOverhead);
  BytesView body;
  auto header = open_frame(as_bytes_view(frame), &body);
  ASSERT_TRUE(header.ok());
  EXPECT_EQ(header->type, MsgType::kVarSample);
  EXPECT_EQ(header->source, 42u);
  EXPECT_EQ(to_buffer(body), payload);
}

TEST(FrameTest, EmptyPayload) {
  Buffer frame = framed(FrameHeader{MsgType::kHeartbeat, 1}, {});
  BytesView body;
  ASSERT_TRUE(open_frame(as_bytes_view(frame), &body).ok());
  EXPECT_TRUE(body.empty());
}

TEST(FrameTest, CorruptionDetected) {
  Buffer payload = {1, 2, 3, 4};
  Buffer frame = framed(FrameHeader{MsgType::kEventSubscribe, 7},
                        as_bytes_view(payload));
  for (size_t i = 0; i < frame.size(); ++i) {
    Buffer bad = frame;
    bad[i] ^= 0x40;
    EXPECT_FALSE(open_frame(as_bytes_view(bad), nullptr).ok()) << i;
  }
}

TEST(FrameTest, TruncationDetected) {
  Buffer frame = framed(FrameHeader{MsgType::kFileChunk, 3}, Buffer(64, 9));
  for (size_t n = 0; n < frame.size(); ++n) {
    EXPECT_FALSE(open_frame(BytesView(frame.data(), n), nullptr).ok()) << n;
  }
}

TEST(FrameTest, EveryTypeHasName) {
  for (MsgType t : {MsgType::kContainerHello, MsgType::kContainerBye,
                    MsgType::kHeartbeat, MsgType::kHelloRequest,
                    MsgType::kVarSubscribe, MsgType::kVarUnsubscribe,
                    MsgType::kVarSample, MsgType::kVarSnapshot,
                    MsgType::kEventSubscribe, MsgType::kEventUnsubscribe,
                    MsgType::kReliableData, MsgType::kReliableAck,
                    MsgType::kFileSubscribe, MsgType::kFileUnsubscribe,
                    MsgType::kFileChunk, MsgType::kFileStatusRequest,
                    MsgType::kFileAck, MsgType::kFileNack,
                    MsgType::kFileRevision}) {
    EXPECT_STRNE(msg_type_name(t), "?");
  }
}

// Round-trip helper for message structs.
template <typename Msg>
Msg round_trip(const Msg& in) {
  ByteWriter w;
  in.encode(w);
  ByteReader r(w.view());
  Msg out;
  EXPECT_TRUE(Msg::decode(r, out));
  EXPECT_TRUE(r.ok());
  EXPECT_TRUE(r.at_end());
  // Decoded Bytes fields borrow from the encode buffer, which dies when
  // this helper returns; detach them so the caller may keep `out`.
  if constexpr (requires { out.value.materialize(); }) out.value.materialize();
  if constexpr (requires { out.inner.materialize(); }) out.inner.materialize();
  if constexpr (requires { out.args.materialize(); }) out.args.materialize();
  if constexpr (requires { out.result.materialize(); }) {
    out.result.materialize();
  }
  if constexpr (requires { out.data.materialize(); }) out.data.materialize();
  return out;
}

TEST(MessagesTest, ContainerHelloRoundTrip) {
  ContainerHelloMsg msg;
  msg.incarnation = 3;
  msg.data_port = 4500;
  msg.node_name = "fcs";
  ServiceInfo svc;
  svc.name = "gps";
  svc.state = ServiceState::kRunning;
  svc.items.push_back(ProvidedItem{ItemKind::kVariable, "gps.position",
                                   0xABCD, 100000000, 400000000});
  svc.items.push_back(ProvidedItem{ItemKind::kEvent, "gps.waypoint", 0x1234,
                                   0, 0});
  msg.services.push_back(svc);

  ContainerHelloMsg out = round_trip(msg);
  EXPECT_EQ(out.incarnation, 3u);
  EXPECT_EQ(out.node_name, "fcs");
  ASSERT_EQ(out.services.size(), 1u);
  EXPECT_EQ(out.services[0], svc);
}

TEST(MessagesTest, HeartbeatAndStatus) {
  HeartbeatMsg hb;
  hb.incarnation = 7;
  hb.manifest_version = 999;
  HeartbeatMsg hb2 = round_trip(hb);
  EXPECT_EQ(hb2.incarnation, 7u);
  EXPECT_EQ(hb2.manifest_version, 999u);

  // Service state travels in the manifest; a hello request has no body.
  ByteWriter w;
  HelloRequestMsg{}.encode(w);
  EXPECT_EQ(w.view().size(), 0u);
  round_trip(HelloRequestMsg{});
}

TEST(MessagesTest, VarMessages) {
  VarSampleMsg s;
  s.channel = channel_of("gps.position");
  s.seq = 77;
  s.pub_time_ns = -5;  // negative survives zigzag
  s.value = {1, 2, 3};
  VarSampleMsg s2 = round_trip(s);
  EXPECT_EQ(s2.channel, s.channel);
  EXPECT_EQ(s2.pub_time_ns, -5);
  EXPECT_EQ(s2.value, s.value);

  VarSnapshotMsg snap;
  snap.name = "gps.position";
  snap.has_value = true;
  snap.value = {9};
  VarSnapshotMsg snap2 = round_trip(snap);
  EXPECT_TRUE(snap2.has_value);
  EXPECT_EQ(snap2.name, "gps.position");
}

TEST(MessagesTest, ReliableLinkMessages) {
  ReliableDataMsg d;
  d.seq = 123456789;
  d.inner_type = InnerType::kRpcRequest;
  d.inner = {5, 6};
  ReliableDataMsg d2 = round_trip(d);
  EXPECT_EQ(d2.seq, d.seq);
  EXPECT_EQ(d2.inner_type, InnerType::kRpcRequest);

  ReliableAckMsg a;
  a.floor = 10;
  a.above.insert_run(2, 3);
  ReliableAckMsg a2 = round_trip(a);
  EXPECT_EQ(a2.floor, 10u);
  EXPECT_TRUE(a2.above.contains(3));

  ByteWriter bad;
  bad.varint(1);
  bad.u8(99);  // invalid inner type
  bad.blob({});
  ByteReader r(bad.view());
  ReliableDataMsg out;
  EXPECT_FALSE(ReliableDataMsg::decode(r, out));
}

TEST(MessagesTest, EventAndRpc) {
  EventMsg e;
  e.name = "mission.take_photo";
  e.pub_seq = 3;
  e.pub_time_ns = 1000;
  e.value = {1};
  EventMsg e2 = round_trip(e);
  EXPECT_EQ(e2.name, e.name);

  RpcRequestMsg req;
  req.request_id = 88;
  req.function = "storage.store";
  req.args = {2, 3};
  RpcRequestMsg req2 = round_trip(req);
  EXPECT_EQ(req2.function, "storage.store");

  RpcResponseMsg resp;
  resp.request_id = 88;
  resp.status_code = 4;
  resp.error = "nope";
  RpcResponseMsg resp2 = round_trip(resp);
  EXPECT_EQ(resp2.error, "nope");
}

TEST(MessagesTest, FileMessages) {
  FileMeta meta;
  meta.name = "photo.1";
  meta.revision = 2;
  meta.size = 10000;
  meta.chunk_size = 1024;
  meta.content_crc = 0xFEEDFACE;
  EXPECT_EQ(meta.chunk_count(), 10u);
  FileMeta meta2 = round_trip(meta);
  EXPECT_EQ(meta2, meta);

  FileMeta exact;
  exact.size = 2048;
  exact.chunk_size = 1024;
  EXPECT_EQ(exact.chunk_count(), 2u);
  FileMeta empty;
  empty.chunk_size = 1024;
  EXPECT_EQ(empty.chunk_count(), 0u);

  FileRevisionMsg rev;
  rev.transfer_id = 0x100000002ull;
  rev.meta = meta;
  FileRevisionMsg rev2 = round_trip(rev);
  EXPECT_EQ(rev2.transfer_id, rev.transfer_id);
  EXPECT_EQ(rev2.meta, meta);

  FileChunkMsg chunk;
  chunk.transfer_id = 7;
  chunk.revision = 2;
  chunk.index = 5;
  chunk.data = Buffer(100, 0xAA);
  FileChunkMsg chunk2 = round_trip(chunk);
  EXPECT_EQ(chunk2.index, 5u);
  EXPECT_EQ(chunk2.data.size(), 100u);

  FileNackMsg nack;
  nack.transfer_id = 7;
  nack.revision = 2;
  nack.missing.insert_run(10, 20);
  FileNackMsg nack2 = round_trip(nack);
  EXPECT_EQ(nack2.missing.cardinality(), 20u);
}

TEST(MessagesTest, ContentAddressedFileFields) {
  // Codec id rides the announce metadata.
  FileMeta meta;
  meta.name = "img";
  meta.revision = 3;
  meta.size = 4096;
  meta.chunk_size = 1024;
  meta.content_crc = 0x12345678;
  meta.codec = 2;
  FileMeta meta2 = round_trip(meta);
  EXPECT_EQ(meta2.codec, 2u);
  EXPECT_EQ(meta2, meta);

  // The revision message carries the chunk-hash manifest.
  FileRevisionMsg rev;
  rev.transfer_id = 9;
  rev.meta = meta;
  rev.chunk_hashes = {0x1111, 0x2222, 0x3333, 0x4444};
  FileRevisionMsg rev2 = round_trip(rev);
  EXPECT_EQ(rev2.chunk_hashes, rev.chunk_hashes);

  // An empty manifest is legal (announcer without hashing).
  rev.chunk_hashes.clear();
  FileRevisionMsg rev3 = round_trip(rev);
  EXPECT_TRUE(rev3.chunk_hashes.empty());

  // A manifest whose length disagrees with chunk_count is rejected.
  rev.chunk_hashes = {0x1111, 0x2222};  // meta says 4 chunks
  ByteWriter w;
  rev.encode(w);
  ByteReader r(w.view());
  FileRevisionMsg bad;
  EXPECT_FALSE(FileRevisionMsg::decode(r, bad));

  // Chunks carry their content hash and the compressed flag.
  FileChunkMsg chunk;
  chunk.transfer_id = 9;
  chunk.revision = 3;
  chunk.index = 1;
  chunk.hash = 0xDEADBEEFCAFEF00Dull;
  chunk.flags = kChunkFlagCompressed;
  chunk.data = Buffer(64, 0x55);
  FileChunkMsg chunk2 = round_trip(chunk);
  EXPECT_EQ(chunk2.hash, chunk.hash);
  EXPECT_EQ(chunk2.flags, kChunkFlagCompressed);

  // NACKs echo the manifest hash they repair against.
  FileNackMsg nack;
  nack.transfer_id = 9;
  nack.revision = 3;
  nack.manifest_hash = 0xABCDABCDABCDABCDull;
  nack.missing.insert_run(0, 4);
  FileNackMsg nack2 = round_trip(nack);
  EXPECT_EQ(nack2.manifest_hash, nack.manifest_hash);
}

TEST(MessagesTest, FileMetaDecodeRejectsUnchunkableLayouts) {
  // chunk_size 0 would make any size "complete" with zero chunks, and a
  // count above UINT32_MAX would truncate; both are malformed, alone and
  // inside a revision announce.
  auto decodes = [](const FileMeta& meta) {
    FileRevisionMsg rev;
    rev.transfer_id = 9;
    rev.meta = meta;
    ByteWriter w;
    rev.encode(w);
    ByteReader r(w.view());
    FileRevisionMsg out;
    const bool rev_ok = FileRevisionMsg::decode(r, out);
    ByteWriter mw;
    meta.encode(mw);
    ByteReader mr(mw.view());
    FileMeta meta_out;
    EXPECT_EQ(FileMeta::decode(mr, meta_out), rev_ok);
    return rev_ok;
  };
  FileMeta meta;
  meta.name = "img";
  meta.revision = 2;
  meta.size = 4096;
  meta.chunk_size = 0;
  EXPECT_FALSE(decodes(meta));
  meta.size = 0;  // an empty file still names a chunk size
  EXPECT_FALSE(decodes(meta));
  meta.chunk_size = 1024;
  EXPECT_TRUE(decodes(meta));

  meta.chunk_size = 1;
  meta.size = uint64_t{UINT32_MAX};
  EXPECT_TRUE(decodes(meta));  // exactly UINT32_MAX chunks
  meta.size += 1;
  EXPECT_FALSE(decodes(meta));
  meta.chunk_size = 1024;
  meta.size = uint64_t{UINT32_MAX} * 1024;
  EXPECT_TRUE(decodes(meta));
  meta.size += 1;  // one byte into chunk 2^32
  EXPECT_FALSE(decodes(meta));
  meta.size = UINT64_MAX;
  EXPECT_FALSE(decodes(meta));
  meta.chunk_size = UINT32_MAX;
  EXPECT_FALSE(decodes(meta));  // exactly 2^32 + 1 chunks
}

TEST(MessagesTest, ChannelOfIsStable) {
  EXPECT_EQ(channel_of("gps.position"), channel_of("gps.position"));
  EXPECT_NE(channel_of("gps.position"), channel_of("gps.position2"));
}

TEST(MessagesTest, FrameBuilderComposesMessage) {
  HeartbeatMsg hb;
  hb.incarnation = 1;
  hb.manifest_version = 2;
  FramePool pool;
  SharedFrame frame =
      testutil::forge_frame(pool, MsgType::kHeartbeat, 5, hb);
  BytesView body;
  auto header = open_frame(frame.view(), &body);
  ASSERT_TRUE(header.ok());
  EXPECT_EQ(header->source, 5u);
  ByteReader r(body);
  HeartbeatMsg out;
  ASSERT_TRUE(HeartbeatMsg::decode(r, out));
  EXPECT_EQ(out.manifest_version, 2u);
}

TEST(MessagesTest, HelloDecodeRejectsHugeCounts) {
  ByteWriter w;
  w.varint(1);       // incarnation
  w.u16(1);          // port
  w.str("n");
  w.varint(100000);  // absurd service count
  ByteReader r(w.view());
  ContainerHelloMsg out;
  EXPECT_FALSE(ContainerHelloMsg::decode(r, out));
}

}  // namespace
}  // namespace marea::proto
