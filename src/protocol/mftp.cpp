#include "protocol/mftp.h"

#include <algorithm>
#include <cassert>

#include "util/crc32.h"
#include "util/hash.h"
#include "util/logging.h"

namespace marea::proto {

namespace {
// Completion rounds a publisher runs before it fails the receivers
// still missing chunks.
constexpr uint32_t kMaxRounds = 64;
}  // namespace

// ---------------------------------------------------------------------------
// MftpPublisher
// ---------------------------------------------------------------------------

MftpPublisher::MftpPublisher(sched::Executor& executor, MftpParams params,
                             uint64_t transfer_id, FileMeta meta,
                             std::shared_ptr<const Buffer> content,
                             ChunkSendFn send_chunk, StatusSendFn send_status,
                             const MftpPublisher* previous)
    : executor_(executor),
      params_(params),
      transfer_id_(transfer_id),
      meta_(std::move(meta)),
      content_(std::move(content)),
      send_chunk_(std::move(send_chunk)),
      send_status_(std::move(send_status)) {
  assert(content_ && send_chunk_ && send_status_);
  assert(meta_.size == content_->size());
  assert(meta_.chunk_size > 0);
  // Pure pre-computation: hash (and, when announced, compress) every
  // chunk up front, on the constructing (sim) thread.
  table_ = ChunkTable::build(
      as_bytes_view(*content_), meta_.chunk_size,
      static_cast<util::Codec>(meta_.codec),
      previous ? &previous->table_ : nullptr,
      previous ? as_bytes_view(*previous->content_) : BytesView{});
  // Map each index to the lowest index sharing its hash, via one sort
  // of (hash, index) pairs; the dedup check per send is then an array
  // lookup.
  const std::vector<uint64_t>& hashes = table_.hashes();
  std::vector<std::pair<uint64_t, uint32_t>> by_hash(hashes.size());
  for (uint32_t i = 0; i < hashes.size(); ++i) by_hash[i] = {hashes[i], i};
  std::sort(by_hash.begin(), by_hash.end());
  first_with_hash_.resize(hashes.size());
  uint32_t first = 0;
  for (size_t k = 0; k < by_hash.size(); ++k) {
    if (k == 0 || by_hash[k - 1].first != by_hash[k].first) {
      first = by_hash[k].second;  // lowest index of this hash's group
    }
    first_with_hash_[by_hash[k].second] = first;
  }
  round_sent_.resize(hashes.size());
}

MftpPublisher::~MftpPublisher() { executor_.cancel(timer_); }

void MftpPublisher::add_subscriber(MftpPeer peer) {
  auto [it, inserted] = subscribers_.insert(peer);
  (void)it;
  if (!inserted) return;
  if (state_ == State::kIdle) {
    // Ask the newcomer what it needs rather than blindly resending all.
    begin_status_phase();
  }
  // Mid-transfer joiners are picked up at the next completion poll.
}

void MftpPublisher::remove_subscriber(MftpPeer peer) {
  subscribers_.erase(peer);
  awaiting_.erase(peer);
  if (state_ == State::kAwaitingStatus && awaiting_.empty()) resolve_round();
}

void MftpPublisher::start() {
  if (subscribers_.empty()) return;
  round_ = 0;
  RunSet all;
  if (meta_.chunk_count() > 0) all.insert_run(0, meta_.chunk_count());
  begin_sending(std::move(all));
}

void MftpPublisher::begin_sending(RunSet chunks) {
  executor_.cancel(timer_);
  timer_ = sched::kInvalidTaskTimer;
  state_ = State::kSending;
  to_send_ = std::move(chunks);
  send_list_ = to_send_.to_indices();
  send_cursor_ = 0;
  std::fill(round_sent_.begin(), round_sent_.end(), uint8_t{0});
  stats_.rounds++;
  if (send_list_.empty()) {
    begin_status_phase();
    return;
  }
  send_next_chunk();
}

void MftpPublisher::send_next_chunk() {
  if (state_ != State::kSending) return;
  // Elide chunks whose hash already went out this round: one copy on
  // the wire fills every index sharing it at manifest-holding
  // receivers (manifest-less ones NACK the siblings and pick them up
  // in repair rounds).
  while (send_cursor_ < send_list_.size()) {
    uint8_t& sent = round_sent_[first_with_hash_[send_list_[send_cursor_]]];
    if (sent == 0) {
      sent = 1;
      break;
    }
    ++send_cursor_;
    ++stats_.chunks_dedup_skipped;
  }
  if (send_cursor_ >= send_list_.size()) {
    begin_status_phase();
    return;
  }
  uint32_t index = send_list_[send_cursor_++];
  uint64_t offset = static_cast<uint64_t>(index) * meta_.chunk_size;
  uint64_t len = std::min<uint64_t>(meta_.chunk_size, meta_.size - offset);
  const ChunkEntry& entry = table_.entry(index);

  FileChunkMsg msg;
  msg.transfer_id = transfer_id_;
  msg.revision = meta_.revision;
  msg.index = index;
  msg.hash = table_.hashes()[index];
  // Borrow straight out of the file image (or the chunk table's
  // compressed payload); send_chunk_ encodes synchronously, so the
  // view never outlives the publisher.
  if (entry.compressed) {
    msg.flags = kChunkFlagCompressed;
    msg.data = Bytes::borrow(table_.payload(index));
  } else {
    msg.data = Bytes::borrow(
        BytesView(*content_).subspan(static_cast<size_t>(offset),
                                     static_cast<size_t>(len)));
  }
  stats_.chunks_sent++;
  stats_.payload_bytes_sent += len;
  stats_.wire_bytes_sent += msg.data.size();
  if (round_ > 0) {
    stats_.chunk_retransmits++;
    if (trace_) {
      trace_->record(executor_.now(), obs::TraceEvent::kRetransmit,
                     obs::TraceKind::kFile, trace_self_, transfer_id_, index);
    }
  }
  // The next chunk waits until this one has drained from the sender's
  // egress queue (never less than chunk_interval), so a latency-critical
  // frame sent meanwhile queues behind at most about one chunk.
  const Duration backlog = send_chunk_(msg);
  timer_ = executor_.schedule(std::max(params_.chunk_interval, backlog),
                              sched::Priority::kFileTransfer,
                              [this] { send_next_chunk(); });
}

void MftpPublisher::begin_status_phase() {
  executor_.cancel(timer_);
  timer_ = sched::kInvalidTaskTimer;
  if (subscribers_.empty() || round_ >= kMaxRounds) {
    // Out of subscribers, or of patience: fail any still subscribed.
    auto remaining = subscribers_;
    for (MftpPeer peer : remaining) {
      stats_.dropped_subscribers++;
      finish_peer(peer, timeout_error("MFTP exceeded max rounds"));
    }
    state_ = State::kIdle;
    if (on_idle_) on_idle_();
    return;
  }
  state_ = State::kAwaitingStatus;
  awaiting_ = subscribers_;
  next_round_ = RunSet{};
  status_retries_ = 0;
  send_status_request();
}

void MftpPublisher::send_status_request() {
  FileStatusRequestMsg msg;
  msg.transfer_id = transfer_id_;
  msg.revision = meta_.revision;
  msg.round = round_;
  stats_.status_requests++;
  send_status_(msg);
  timer_ = executor_.schedule(params_.status_timeout,
                              sched::Priority::kFileTransfer,
                              [this] { on_status_timeout(); });
}

void MftpPublisher::on_status_timeout() {
  timer_ = sched::kInvalidTaskTimer;
  if (state_ != State::kAwaitingStatus) return;
  if (awaiting_.empty()) {
    resolve_round();
    return;
  }
  if (++status_retries_ > params_.max_status_retries) {
    // Drop unresponsive subscribers and move on with the rest.
    auto unresponsive = awaiting_;
    for (MftpPeer peer : unresponsive) {
      stats_.dropped_subscribers++;
      finish_peer(peer, unavailable_error("subscriber unresponsive"));
    }
    awaiting_.clear();
    if (state_ == State::kAwaitingStatus) resolve_round();
    return;
  }
  send_status_request();
}

void MftpPublisher::on_ack(MftpPeer peer, const FileAckMsg& msg) {
  if (msg.transfer_id != transfer_id_ || msg.revision != meta_.revision) {
    return;
  }
  if (!subscribers_.count(peer)) return;
  stats_.completions++;
  finish_peer(peer, Status::ok());
  if (state_ == State::kAwaitingStatus && awaiting_.empty()) resolve_round();
}

void MftpPublisher::on_nack(MftpPeer peer, const FileNackMsg& msg) {
  if (msg.transfer_id != transfer_id_ || msg.revision != meta_.revision) {
    return;
  }
  // A NACK repairing against a different manifest (stale announce of
  // the same revision id) would request chunks we'd fill with the
  // wrong bytes — drop it and let the next announce resync the peer.
  if (msg.manifest_hash != 0 && msg.manifest_hash != table_.manifest_hash()) {
    return;
  }
  if (!subscribers_.count(peer)) return;
  // A NACK outside a poll (e.g. right after late subscribe) still counts:
  // it is folded into the next round all the same.
  for (const auto& run : msg.missing.runs()) {
    next_round_.insert_run(run.first, run.count);
  }
  if (state_ != State::kAwaitingStatus) return;
  awaiting_.erase(peer);
  if (awaiting_.empty()) resolve_round();
}

void MftpPublisher::finish_peer(MftpPeer peer, const Status& status) {
  subscribers_.erase(peer);
  awaiting_.erase(peer);
  if (on_subscriber_done_) on_subscriber_done_(peer, status);
}

void MftpPublisher::resolve_round() {
  executor_.cancel(timer_);
  timer_ = sched::kInvalidTaskTimer;
  round_++;
  if (!subscribers_.empty() && !next_round_.empty()) {
    // Clamp to valid chunk range (defensive against hostile NACKs).
    RunSet valid;
    uint32_t total = meta_.chunk_count();
    for (const auto& run : next_round_.runs()) {
      if (run.first >= total) continue;
      uint32_t count = std::min(run.count, total - run.first);
      valid.insert_run(run.first, count);
    }
    begin_sending(std::move(valid));
    return;
  }
  // Nothing to resend (a late joiner may have come after the poll
  // snapshot): poll again, or go idle without subscribers.
  begin_status_phase();
}

// ---------------------------------------------------------------------------
// MftpReceiver
// ---------------------------------------------------------------------------

MftpReceiver::MftpReceiver(uint64_t transfer_id, FileMeta meta,
                           AckSendFn send_ack, NackSendFn send_nack)
    : transfer_id_(transfer_id),
      meta_(std::move(meta)),
      send_ack_(std::move(send_ack)),
      send_nack_(std::move(send_nack)) {
  assert(send_ack_ && send_nack_);
  assert(meta_.size <= kMaxFileBytes && "refuse the announce first");
  image_ = std::make_shared<Buffer>(meta_.size);
  if (meta_.chunk_count() == 0) complete_ = true;  // empty file
}

void MftpReceiver::set_manifest(std::vector<uint64_t> chunk_hashes) {
  if (chunk_hashes.size() != meta_.chunk_count()) return;
  manifest_ = std::move(chunk_hashes);
  manifest_hash_ = util::hash64_list(manifest_.data(), manifest_.size());
  manifest_index_.resize(manifest_.size());
  for (uint32_t i = 0; i < manifest_.size(); ++i) {
    manifest_index_[i] = {manifest_[i], i};
  }
  std::sort(manifest_index_.begin(), manifest_index_.end());
}

uint64_t MftpReceiver::chunk_len(uint32_t index) const {
  const uint64_t offset = static_cast<uint64_t>(index) * meta_.chunk_size;
  return std::min<uint64_t>(meta_.chunk_size, meta_.size - offset);
}

void MftpReceiver::fill_index(uint32_t index, BytesView raw) {
  std::copy(raw.begin(), raw.end(),
            image_->data() + static_cast<size_t>(index) * meta_.chunk_size);
  have_.insert(index);
}

void MftpReceiver::maybe_complete() {
  if (complete_ || have_.cardinality() != meta_.chunk_count()) return;
  // A manifest checked every chunk's hash64; the CRC is for the rest.
  if (manifest_.empty() && crc32(*image_) != meta_.content_crc) {
    // Corrupt reassembly: discard everything and let the completion
    // poll fetch it again, into a fresh image the store never saw.
    MAREA_LOG(kWarn, "mftp") << "content CRC mismatch for '" << meta_.name
                             << "' rev " << meta_.revision
                             << "; restarting collection";
    have_ = RunSet{};
    image_ = std::make_shared<Buffer>(meta_.size);
    return;
  }
  complete_ = true;
  if (on_complete_) on_complete_(image_);
}

void MftpReceiver::resume_from_store() {
  if (store_ == nullptr || manifest_.empty() || complete_) return;
  const uint32_t total = meta_.chunk_count();
  uint32_t filled = 0;
  for (uint32_t i = 0; i < total; ++i) {
    if (have_.contains(i)) continue;
    const BytesView cached = store_->find(manifest_[i]);
    if (cached.size() != chunk_len(i)) continue;
    fill_index(i, cached);
    stats_.chunks_from_store++;
    stats_.chunks_deduped++;
    ++filled;
  }
  if (filled > 0 && on_progress_) on_progress_(chunks_have(), total);
  maybe_complete();
}

void MftpReceiver::on_chunk(const FileChunkMsg& msg) {
  if (msg.transfer_id != transfer_id_ || msg.revision != meta_.revision) {
    return;
  }
  uint32_t total = meta_.chunk_count();
  if (msg.index >= total) return;
  stats_.chunks_received++;
  stats_.wire_bytes_received += msg.data.size();
  if (have_.contains(msg.index)) {
    stats_.duplicate_chunks++;
    return;
  }
  const uint64_t expect = chunk_len(msg.index);
  const size_t offset = static_cast<size_t>(msg.index) * meta_.chunk_size;
  BytesView raw;
  const bool compressed = (msg.flags & kChunkFlagCompressed) != 0;
  if (compressed) {
    // Decode straight into this index's slot of the file image. The
    // slot is not held, so a stream that fails to decode or verify
    // only leaves bytes a later fill overwrites.
    const util::Compressor* comp = util::compressor_for(meta_.codec);
    std::span<uint8_t> slot(image_->data() + offset,
                            static_cast<size_t>(expect));
    if (comp == nullptr || !comp->decompress(msg.data.view(), slot)) {
      stats_.hash_mismatches++;
      return;  // unknown codec or malformed stream; NACK will refetch
    }
    raw = slot;
  } else {
    if (msg.data.size() != expect) return;  // malformed
    raw = msg.data.view();
  }
  // End-to-end verification against the chunk-carried digest and (when
  // announced) the manifest — this is what lets chunks be trusted into
  // the cross-transfer store.
  const uint64_t digest = util::hash64(raw);
  if ((msg.hash != 0 && digest != msg.hash) ||
      (!manifest_.empty() && manifest_[msg.index] != digest)) {
    stats_.hash_mismatches++;
    return;
  }
  if (compressed) {
    have_.insert(msg.index);  // already in place
  } else {
    fill_index(msg.index, raw);
  }
  stats_.payload_bytes_received += raw.size();
  if (store_ != nullptr) store_->put(digest, image_, offset, raw.size());
  // One verified copy fills every sibling index carrying the same
  // content hash (the publisher elides those sends within a round).
  if (!manifest_.empty()) {
    auto it = std::lower_bound(manifest_index_.begin(), manifest_index_.end(),
                               std::pair<uint64_t, uint32_t>{digest, 0});
    for (; it != manifest_index_.end() && it->first == digest; ++it) {
      const uint32_t sibling = it->second;
      if (sibling == msg.index || have_.contains(sibling)) continue;
      if (chunk_len(sibling) != raw.size()) continue;
      fill_index(sibling, raw);
      stats_.chunks_deduped++;
    }
  }
  if (on_progress_) on_progress_(chunks_have(), total);
  maybe_complete();
}

void MftpReceiver::on_status_request(const FileStatusRequestMsg& msg) {
  if (msg.transfer_id != transfer_id_ || msg.revision != meta_.revision) {
    return;
  }
  if (complete_) {
    FileAckMsg ack;
    ack.transfer_id = transfer_id_;
    ack.revision = meta_.revision;
    stats_.acks_sent++;
    send_ack_(ack);
    return;
  }
  FileNackMsg nack;
  nack.transfer_id = transfer_id_;
  nack.revision = meta_.revision;
  nack.manifest_hash = manifest_hash_;
  nack.missing = missing_of(have_, meta_.chunk_count());
  stats_.nacks_sent++;
  send_nack_(nack);
}

}  // namespace marea::proto
