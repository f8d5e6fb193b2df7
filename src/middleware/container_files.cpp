// File transmission (paper §4.4): MFTP-like multicast bulk transfer with
// revisions, late join, and the same-container bypass ("the transfer is
// bypassed by the container as direct access to the resource").
#include "middleware/container.h"

#include <algorithm>

#include "util/crc32.h"

namespace marea::mw {

namespace {
constexpr const char* kLog = "files";
}

Status ServiceContainer::publish_file_resource(Service& owner,
                                               const std::string& name,
                                               Buffer content) {
  if (content.size() > proto::kMaxFileBytes) {
    return invalid_argument_error("file '" + name + "' over kMaxFileBytes");
  }
  FileEntry& e = entry_for(files_, name);
  const bool fresh = !e.prov;
  if (!fresh && e.prov->owner != &owner) {
    return already_exists_error("file '" + name +
                                "' is published by another service");
  }
  FileProvision& prov = fresh ? e.prov.emplace() : *e.prov;
  // The outgoing revision's publisher lives until the new one is built:
  // the new one reuses its unchanged chunks.
  std::unique_ptr<proto::MftpPublisher> previous = std::move(prov.publisher);
  if (previous) {
    mftp_pub_retired_ += previous->stats();
    mftp_pipeline_retired_ += previous->pipeline_stats();
    transfers_.erase(prov.transfer_id);
  }

  prov.owner = &owner;
  prov.meta.name = name;
  prov.meta.revision = fresh ? 1 : prov.meta.revision + 1;
  prov.meta.size = content.size();
  prov.meta.chunk_size = config_.mftp.chunk_size;
  prov.meta.content_crc = crc32(as_bytes_view(content));
  prov.meta.codec = static_cast<uint8_t>(config_.mftp.codec);
  prov.content = std::make_shared<const Buffer>(std::move(content));
  prov.transfer_id =
      (static_cast<uint64_t>(config_.id) << 32) | next_transfer_seq_++;
  transfers_[prov.transfer_id].prov = &prov;

  const uint32_t channel = e.channel;
  prov.publisher = std::make_unique<proto::MftpPublisher>(
      executor_, config_.mftp, prov.transfer_id, prov.meta, prov.content,
      [this, channel](const proto::FileChunkMsg& msg) {
        multicast_msg(channel, proto::MsgType::kFileChunk, msg);
        return transport_.send_backlog();
      },
      [this, channel](const proto::FileStatusRequestMsg& msg) {
        multicast_msg(channel, proto::MsgType::kFileStatusRequest, msg);
      },
      previous.get());
  previous.reset();
  prov.publisher->set_trace(trace_, static_cast<uint32_t>(config_.id));
  prov.publisher->set_on_subscriber_done(
      [&prov](proto::MftpPeer peer, const Status& s) {
        if (!s.is_ok()) {
          MAREA_LOG(kWarn, kLog)
              << "file '" << prov.meta.name << "': subscriber " << peer
              << " dropped: " << s.to_string();
          prov.remote_subscribers.erase(peer);
        }
      });

  const proto::ChunkPipelineStats& ps = prov.publisher->pipeline_stats();
  stats_.file_chunks_reused += ps.reused_chunks;
  stats_.file_chunks_probe_skipped += ps.skipped_by_probe;

  stats_.files_published++;
  trace_ev(obs::TraceEvent::kPublish, obs::TraceKind::kFile, prov.transfer_id,
           prov.meta.revision);
  auto& owner_usage = usage_of(&owner);
  owner_usage.files_published++;
  owner_usage.payload_bytes_sent += prov.meta.size;

  // Local subscribers get the content directly (bypass).
  if (e.sub) {
    stats_.file_local_bypasses++;
    deliver_file(*e.sub, prov.meta, prov.content);
  }

  // Current receivers follow the resource across revisions (§4.4
  // "subscribers can also be notified of revision changes"). No blind
  // full push: adding the first subscriber opens a completion poll, and
  // each receiver NACKs only what its chunk store can't satisfy by hash —
  // ~nothing for an identical republish, just the delta for an edit.
  if (!prov.remote_subscribers.empty()) {
    proto::FileRevisionMsg rev_msg;
    rev_msg.transfer_id = prov.transfer_id;
    rev_msg.meta = prov.meta;
    rev_msg.chunk_hashes = prov.publisher->chunk_hashes();
    const Buffer inner =
        control_frame(proto::MsgType::kFileRevision, rev_msg);
    for (proto::MftpPeer peer_id : prov.remote_subscribers) {
      link_send(static_cast<proto::ContainerId>(peer_id),
                proto::InnerType::kControl, inner);
      prov.publisher->add_subscriber(peer_id);
    }
  }

  // Peers read the name, not the revision: only a new name changes the
  // manifest.
  if (fresh) manifest_changed();
  return Status::ok();
}

Status ServiceContainer::register_file_subscription(
    Service& owner, const std::string& name, FileCompleteHandler on_done,
    FileProgressHandler on_progress) {
  if (!on_done) return invalid_argument_error("file handler empty");
  FileEntry& e = entry_for(files_, name);
  if (!e.sub) e.sub.emplace();
  e.sub->entries.push_back(
      FileSubEntry{&owner, std::move(on_done), std::move(on_progress)});

  // Same-container resource: hand over the bytes right away.
  if (e.prov) {
    stats_.file_local_bypasses++;
    deliver_file(*e.sub, e.prov->meta, e.prov->content);
    return Status::ok();
  }
  if (running_) try_bind(e);
  return Status::ok();
}

void ServiceContainer::retire_subscription(FileTable::iterator it) {
  FileSubscription& sub = *it->second.sub;
  release_binding<proto::FileUnsubscribeMsg>(sub, it->first,
                                             proto::MsgType::kFileUnsubscribe);
  if (sub.receiver) drop_receiver(sub);
  drop_subscription(files_, it);
}

void ServiceContainer::drop_receiver(FileSubscription& sub) {
  mftp_rx_retired_ += sub.receiver->stats();
  transfers_.erase(sub.receiver->transfer_id());
  sub.receiver.reset();
}

void ServiceContainer::deliver_file(FileSubscription& sub,
                                    const proto::FileMeta& meta,
                                    std::shared_ptr<const Buffer> content) {
  sub.completed_revision = meta.revision;
  stats_.file_completions++;
  // Post (not inline) so subscribe_file never reenters the service.
  sub.walk([&](FileSubEntry& entry) {
    auto handler = entry.on_done;
    Service* owner = entry.service;
    usage_of(owner).file_bytes_delivered += content->size();
    executor_.post(
        sched::Priority::kFileTransfer,
        [this, owner, handler, meta, content] {
          guard(owner, "file handler", [&] { handler(meta, *content); });
        },
        config_.handler_cost);
  });
}

void ServiceContainer::try_bind(FileEntry& e) {
  if (e.prov) return;
  FileSubscription& sub = *e.sub;
  if (sub.announced && sub.provider) return;

  auto provider = directory_.resolve(proto::ItemKind::kFile, e.name);
  if (!provider) return;
  sub.provider = *provider;

  if (!sub.joined_group) {
    Status s = transport_.join_group(e.channel, config_.data_port);
    sub.joined_group = s.is_ok() || s.code() == StatusCode::kAlreadyExists;
  }

  proto::FileSubscribeMsg msg;
  msg.name = e.name;
  msg.revision_have = sub.completed_revision;
  send_control(provider->container, proto::MsgType::kFileSubscribe, msg);
  sub.announced = true;
}

void ServiceContainer::on_file_subscribe(proto::ContainerId from,
                                         const proto::FileSubscribeMsg& msg) {
  FileProvision* prov = provision(files_, msg.name);
  if (!prov) return;

  // Always answer with the current revision's coordinates (manifest
  // included, so the subscriber can verify and resume by hash).
  proto::FileRevisionMsg rev;
  rev.transfer_id = prov->transfer_id;
  rev.meta = prov->meta;
  rev.chunk_hashes = prov->publisher->chunk_hashes();
  send_control(from, proto::MsgType::kFileRevision, rev);

  if (msg.revision_have == prov->meta.revision) return;  // already current
  prov->remote_subscribers.insert(from);
  prov->publisher->add_subscriber(from);
}

void ServiceContainer::on_file_unsubscribe(
    proto::ContainerId from, const proto::FileUnsubscribeMsg& msg) {
  if (FileProvision* prov = provision(files_, msg.name)) {
    prov->remote_subscribers.erase(from);
    prov->publisher->remove_subscriber(from);
  }
}

void ServiceContainer::on_file_revision(const proto::FileRevisionMsg& msg) {
  auto it = files_.find(msg.meta.name);
  if (it == files_.end() || !it->second.sub) return;
  FileSubscription& sub = *it->second.sub;
  if (sub.completed_revision >= msg.meta.revision) return;  // old news
  if (sub.receiver && sub.receiver->transfer_id() == msg.transfer_id &&
      sub.receiver->meta().revision == msg.meta.revision) {
    return;  // already collecting this revision
  }
  if (!sub.provider) return;  // not bound (e.g. raced with peer loss)
  if (msg.meta.size > proto::kMaxFileBytes) {
    stats_.file_revisions_refused++;  // its receiver would allocate it all
    return;
  }
  start_file_receiver(it->second, msg.transfer_id, msg.meta, msg.chunk_hashes,
                      sub.provider->address);
}

void ServiceContainer::start_file_receiver(
    FileEntry& e, uint64_t transfer_id, const proto::FileMeta& meta,
    const std::vector<uint64_t>& chunk_hashes,
    transport::Address publisher_addr) {
  FileSubscription& sub = *e.sub;
  if (sub.receiver) drop_receiver(sub);
  sub.receiver = std::make_unique<proto::MftpReceiver>(
      transfer_id, meta,
      [this, publisher_addr](const proto::FileAckMsg& ack) {
        send_msg(publisher_addr, proto::MsgType::kFileAck, ack);
      },
      [this, publisher_addr](const proto::FileNackMsg& nack) {
        send_msg(publisher_addr, proto::MsgType::kFileNack, nack);
      });
  transfers_[transfer_id].sub = &sub;

  // Progress handlers run inside the receiver's on_chunk; one that
  // unsubscribes the last service leaves the receiver alive for the
  // resubscribe tick to retire (Subscribers).
  sub.receiver->set_on_progress([&sub](uint32_t have, uint32_t total) {
    sub.walk([&](FileSubEntry& entry) {
      if (entry.on_progress) {
        entry.on_progress(sub.receiver->meta(), have, total);
      }
    });
  });
  auto on_complete = [this, &e,
                      &s = sub](std::shared_ptr<const Buffer> content) {
    const proto::FileMeta& meta = s.receiver->meta();
    trace_ev(obs::TraceEvent::kDeliver, obs::TraceKind::kFile,
             s.receiver->transfer_id(), meta.revision);
    MAREA_LOG(kInfo, kLog) << config_.node_name << " completed file '" << e.name
                           << "' rev " << meta.revision << " ("
                           << meta.size << " bytes)";
    // The receiver's own image, shared by every handler post.
    deliver_file(s, meta, std::move(content));
  };
  sub.receiver->set_on_complete(on_complete);
  sub.receiver->set_manifest(chunk_hashes);
  sub.receiver->set_chunk_store(&chunk_store_);
  if (sub.receiver->complete()) {
    // Zero-byte resources are complete on arrival of the metadata alone.
    on_complete(std::make_shared<const Buffer>());
  } else {
    // Late join / revision change: satisfy whatever the cross-transfer
    // chunk store already holds by hash (may complete immediately via
    // on_complete, e.g. an identical-content republish).
    sub.receiver->resume_from_store();
  }
}

void ServiceContainer::on_file_chunk(const proto::FileChunkMsg& msg) {
  auto it = transfers_.find(msg.transfer_id);
  if (it == transfers_.end() || !it->second.sub) return;
  it->second.sub->receiver->on_chunk(msg);
}

void ServiceContainer::on_file_status_request(
    const proto::FileStatusRequestMsg& msg) {
  auto it = transfers_.find(msg.transfer_id);
  if (it == transfers_.end() || !it->second.sub) return;
  it->second.sub->receiver->on_status_request(msg);
}

void ServiceContainer::on_file_ack(proto::ContainerId from,
                                   const proto::FileAckMsg& msg) {
  auto it = transfers_.find(msg.transfer_id);
  if (it == transfers_.end() || !it->second.prov) return;
  it->second.prov->publisher->on_ack(from, msg);
}

void ServiceContainer::on_file_nack(proto::ContainerId from,
                                    const proto::FileNackMsg& msg) {
  auto it = transfers_.find(msg.transfer_id);
  if (it == transfers_.end() || !it->second.prov) return;
  it->second.prov->publisher->on_nack(from, msg);
}

}  // namespace marea::mw
