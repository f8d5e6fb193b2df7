// Multicast file transfer, loosely based on Starburst MFTP (paper §4.4).
//
// Three overlapping phases per transfer:
//   announce   — the middleware announces the resource; interested peers
//                subscribe (handled a layer up; this file is the transfer
//                engine);
//   transfer   — the publisher multicasts numbered chunks at
//                kFileTransfer priority, each once the previous one has
//                left the sender's egress queue (the backlog ChunkSendFn
//                reports), so events sent meanwhile wait behind at most
//                about one chunk — the network time slots of §4.2;
//   completion — the publisher polls subscribers; ACK removes a receiver,
//                NACK carries a run-length-compressed list of lacked
//                chunks; the union of NACKs seeds the next round, and the
//                process iterates "until the subscribers list is empty".
//
// Late join is free: a subscriber attached mid-transfer collects what it
// hears, then NACKs the prefix it missed at the next completion poll.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <set>
#include <utility>
#include <vector>

#include "obs/trace.h"
#include "protocol/chunk_table.h"
#include "protocol/messages.h"
#include "sched/executor.h"
#include "util/compress.h"
#include "util/rle.h"
#include "util/status.h"

namespace marea::proto {

struct MftpParams {
  uint32_t chunk_size = 1024;
  // Floor of the gap between chunk transmissions (it yields the CPU so
  // latency-critical primitives stay responsive — bench C9). The pace
  // itself is max(chunk_interval, backlog), the backlog being what
  // ChunkSendFn reports for the chunk just sent.
  Duration chunk_interval = microseconds(100);
  Duration status_timeout = milliseconds(60);
  int max_status_retries = 5;  // per completion round

  // --- content-addressed bulk path (ROADMAP item 3) ---
  // Per-chunk codec the middleware announces in FileMeta. The engine
  // itself follows meta.codec (what was announced is authoritative);
  // this knob is how the container picks it.
  util::Codec codec = util::Codec::kLz;
};

// The largest file a subscriber accepts: a receiver allocates the whole
// image at the announce, so a larger FILE_REVISION is refused, counted.
constexpr uint64_t kMaxFileBytes = uint64_t{64} << 20;  // 64 MiB

// Opaque peer identity supplied by the middleware (container id).
using MftpPeer = uint64_t;

struct MftpPublisherStats {
  uint64_t chunks_sent = 0;
  uint64_t chunk_retransmits = 0;  // chunks sent in round > 0
  uint64_t payload_bytes_sent = 0;  // raw content bytes covered by sends
  uint64_t wire_bytes_sent = 0;     // payload bytes as actually shipped
  uint64_t chunks_dedup_skipped = 0;  // same-hash sends elided per round
  uint64_t status_requests = 0;
  uint64_t rounds = 0;
  uint64_t completions = 0;
  uint64_t dropped_subscribers = 0;  // unresponsive or out of rounds

  MftpPublisherStats& operator+=(const MftpPublisherStats& o) {
    chunks_sent += o.chunks_sent;
    chunk_retransmits += o.chunk_retransmits;
    payload_bytes_sent += o.payload_bytes_sent;
    wire_bytes_sent += o.wire_bytes_sent;
    chunks_dedup_skipped += o.chunks_dedup_skipped;
    status_requests += o.status_requests;
    rounds += o.rounds;
    completions += o.completions;
    dropped_subscribers += o.dropped_subscribers;
    return *this;
  }
};

class MftpPublisher {
 public:
  // Multicasts one chunk to the group and returns how long a frame sent
  // now would wait for the medium (Transport::send_backlog(); zero when
  // the sender cannot tell).
  using ChunkSendFn = std::function<Duration(const FileChunkMsg&)>;
  // Multicasts a completion poll.
  using StatusSendFn = std::function<void(const FileStatusRequestMsg&)>;
  using SubscriberDoneFn = std::function<void(MftpPeer, const Status&)>;
  using IdleFn = std::function<void()>;

  // `content` is shared, immutable: the owner (e.g. the container's
  // file provision) and the publisher hold one copy of the file image.
  // `previous` (optional) is the publisher of the revision this one
  // replaces; its unchanged chunks are reused by the ChunkTable build.
  MftpPublisher(sched::Executor& executor, MftpParams params,
                uint64_t transfer_id, FileMeta meta,
                std::shared_ptr<const Buffer> content, ChunkSendFn send_chunk,
                StatusSendFn send_status,
                const MftpPublisher* previous = nullptr);
  ~MftpPublisher();

  MftpPublisher(const MftpPublisher&) = delete;
  MftpPublisher& operator=(const MftpPublisher&) = delete;

  void set_on_subscriber_done(SubscriberDoneFn fn) {
    on_subscriber_done_ = std::move(fn);
  }
  void set_on_idle(IdleFn fn) { on_idle_ = std::move(fn); }

  // Optional flight recorder: round > 0 chunk sends (i.e. repair-round
  // retransmits) are recorded as kRetransmit/kFile events with node =
  // `self`, a = transfer id, b = chunk index.
  void set_trace(obs::TraceRing* trace, uint32_t self) {
    trace_ = trace;
    trace_self_ = self;
  }

  const FileMeta& meta() const { return meta_; }
  uint64_t transfer_id() const { return transfer_id_; }

  // Announce manifest: raw-chunk hashes in index order (built in the
  // constructor's ChunkTable pre-computation).
  const std::vector<uint64_t>& chunk_hashes() const { return table_.hashes(); }
  uint64_t manifest_hash() const { return table_.manifest_hash(); }
  // Hash/compress accounting of the ChunkTable build.
  const ChunkPipelineStats& pipeline_stats() const { return table_.stats(); }

  // Adds a subscriber. If the transfer is idle it starts a completion poll
  // (the subscriber NACKs what it needs — which is everything for a fresh
  // joiner, or just the tail for a resumed one).
  void add_subscriber(MftpPeer peer);
  void remove_subscriber(MftpPeer peer);

  // Starts a full transfer round to the current subscribers.
  void start();

  void on_ack(MftpPeer peer, const FileAckMsg& msg);
  void on_nack(MftpPeer peer, const FileNackMsg& msg);

  bool idle() const { return state_ == State::kIdle; }
  size_t subscriber_count() const { return subscribers_.size(); }
  const MftpPublisherStats& stats() const { return stats_; }

 private:
  enum class State { kIdle, kSending, kAwaitingStatus };

  void begin_sending(RunSet chunks);
  void send_next_chunk();
  void begin_status_phase();
  void send_status_request();
  void on_status_timeout();
  void resolve_round();
  void finish_peer(MftpPeer peer, const Status& status);

  sched::Executor& executor_;
  MftpParams params_;
  uint64_t transfer_id_;
  FileMeta meta_;
  std::shared_ptr<const Buffer> content_;
  ChunkSendFn send_chunk_;
  StatusSendFn send_status_;
  SubscriberDoneFn on_subscriber_done_;
  IdleFn on_idle_;

  ChunkTable table_;
  // Round dedup: first_with_hash_[i] is the lowest index whose chunk
  // hash equals chunk i's (built once); round_sent_[j] marks that the
  // hash first carried by index j already went out this round.
  std::vector<uint32_t> first_with_hash_;
  std::vector<uint8_t> round_sent_;

  State state_ = State::kIdle;
  std::set<MftpPeer> subscribers_;
  std::set<MftpPeer> awaiting_;   // not yet responded this poll
  RunSet to_send_;
  std::vector<uint32_t> send_list_;  // flattened to_send_, cursor below
  size_t send_cursor_ = 0;
  RunSet next_round_;
  uint32_t round_ = 0;
  int status_retries_ = 0;
  sched::TaskTimerId timer_ = sched::kInvalidTaskTimer;
  MftpPublisherStats stats_;
  obs::TraceRing* trace_ = nullptr;
  uint32_t trace_self_ = 0;
};

struct MftpReceiverStats {
  uint64_t chunks_received = 0;
  uint64_t duplicate_chunks = 0;
  uint64_t payload_bytes_received = 0;  // raw content bytes accepted
  uint64_t wire_bytes_received = 0;     // chunk payload bytes off the wire
  uint64_t hash_mismatches = 0;  // chunks rejected (hash/decode failure)
  uint64_t chunks_deduped = 0;   // indices filled without a dedicated send
  uint64_t chunks_from_store = 0;  // of those, satisfied by the ChunkStore
  uint64_t acks_sent = 0;
  uint64_t nacks_sent = 0;

  MftpReceiverStats& operator+=(const MftpReceiverStats& o) {
    chunks_received += o.chunks_received;
    duplicate_chunks += o.duplicate_chunks;
    payload_bytes_received += o.payload_bytes_received;
    wire_bytes_received += o.wire_bytes_received;
    hash_mismatches += o.hash_mismatches;
    chunks_deduped += o.chunks_deduped;
    chunks_from_store += o.chunks_from_store;
    acks_sent += o.acks_sent;
    nacks_sent += o.nacks_sent;
    return *this;
  }
};

class MftpReceiver {
 public:
  // Unicast a control message (ACK/NACK) back to the publisher.
  using AckSendFn = std::function<void(const FileAckMsg&)>;
  using NackSendFn = std::function<void(const FileNackMsg&)>;
  using ProgressFn = std::function<void(uint32_t have, uint32_t total)>;
  using CompleteFn = std::function<void(std::shared_ptr<const Buffer>)>;

  MftpReceiver(uint64_t transfer_id, FileMeta meta, AckSendFn send_ack,
               NackSendFn send_nack);

  void set_on_progress(ProgressFn fn) { on_progress_ = std::move(fn); }
  void set_on_complete(CompleteFn fn) { on_complete_ = std::move(fn); }

  // Installs the announce manifest (one hash64 per raw chunk). Enables
  // per-index verification, same-hash dedup fills, and store resume;
  // ignored unless it has exactly chunk_count() entries.
  void set_manifest(std::vector<uint64_t> chunk_hashes);
  // Attaches a cross-transfer dedup store (not owned; must outlive the
  // receiver). Accepted chunks are inserted keyed by content hash.
  void set_chunk_store(ChunkStore* store) { store_ = store; }
  // Fills still-missing chunks whose manifest hash is already in the
  // store — the "late joiner / identical revision resumes by hash"
  // path. May complete the transfer (fires on_complete_).
  void resume_from_store();

  uint64_t manifest_hash() const { return manifest_hash_; }
  const FileMeta& meta() const { return meta_; }
  uint64_t transfer_id() const { return transfer_id_; }
  bool complete() const { return complete_; }
  uint32_t chunks_have() const {
    return static_cast<uint32_t>(have_.cardinality());
  }

  void on_chunk(const FileChunkMsg& msg);
  void on_status_request(const FileStatusRequestMsg& msg);

  const MftpReceiverStats& stats() const { return stats_; }

 private:
  uint64_t chunk_len(uint32_t index) const;
  void fill_index(uint32_t index, BytesView raw);
  void maybe_complete();

  uint64_t transfer_id_;
  FileMeta meta_;
  AckSendFn send_ack_;
  NackSendFn send_nack_;
  ProgressFn on_progress_;
  CompleteFn on_complete_;

  std::vector<uint64_t> manifest_;
  uint64_t manifest_hash_ = 0;
  // (hash, index) sorted; drives same-hash sibling fills.
  std::vector<std::pair<uint64_t, uint32_t>> manifest_index_;
  ChunkStore* store_ = nullptr;

  // The file image: the store references held chunks (never rewritten)
  // and completion hands it over; a CRC restart takes a new one.
  std::shared_ptr<Buffer> image_;
  RunSet have_;
  bool complete_ = false;
  MftpReceiverStats stats_;
};

}  // namespace marea::proto
