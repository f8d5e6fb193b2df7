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
  auto [it, fresh] = file_provisions_.try_emplace(name);
  FileProvision& prov = it->second;
  if (!fresh && prov.owner != &owner) {
    return already_exists_error("file '" + name +
                                "' is published by another service");
  }
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

  const uint32_t channel = proto::channel_of(name);
  prov.publisher = std::make_unique<proto::MftpPublisher>(
      executor_, config_.mftp, prov.transfer_id, prov.meta, prov.content,
      [this, channel](const proto::FileChunkMsg& msg) {
        multicast_msg(channel, proto::MsgType::kFileChunk, msg);
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
  if (auto sub_it = file_subs_.find(name); sub_it != file_subs_.end()) {
    stats_.file_local_bypasses++;
    deliver_file(sub_it->second, prov.meta, prov.content);
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

  manifest_changed();
  return Status::ok();
}

Status ServiceContainer::register_file_subscription(
    Service& owner, const std::string& name, FileCompleteHandler on_done,
    FileProgressHandler on_progress) {
  if (!on_done) return invalid_argument_error("file handler empty");
  auto it = file_subs_.find(name);
  if (it == file_subs_.end()) {
    FileSubscription sub;
    sub.name = name;
    it = file_subs_.emplace(name, std::move(sub)).first;
  }
  it->second.entries.push_back(
      FileSubEntry{&owner, std::move(on_done), std::move(on_progress)});

  // Same-container resource: hand over the bytes right away.
  if (auto prov_it = file_provisions_.find(name);
      prov_it != file_provisions_.end()) {
    stats_.file_local_bypasses++;
    deliver_file(it->second, prov_it->second.meta, prov_it->second.content);
    return Status::ok();
  }
  if (running_) try_bind_file_subscription(it->second);
  return Status::ok();
}

Status ServiceContainer::unregister_file_subscription(
    Service& owner, const std::string& name) {
  auto it = file_subs_.find(name);
  if (it == file_subs_.end()) {
    return not_found_error("not subscribed to file '" + name + "'");
  }
  FileSubscription& sub = it->second;
  if (std::erase_if(sub.entries,
                    [&](const auto& e) { return e.service == &owner; }) == 0) {
    return not_found_error("service '" + owner.name() +
                           "' is not subscribed to '" + name + "'");
  }
  if (!sub.entries.empty()) return Status::ok();

  release_binding<proto::FileUnsubscribeMsg>(sub, name,
                                             proto::MsgType::kFileUnsubscribe);
  if (sub.receiver) drop_receiver(sub);
  file_subs_.erase(it);
  return Status::ok();
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
  for (auto& entry : sub.entries) {
    auto handler = entry.on_done;
    Service* owner = entry.service;
    usage_of(owner).file_bytes_delivered += content->size();
    executor_.post(
        sched::Priority::kFileTransfer,
        [this, owner, handler, meta, content] {
          guard(owner, "file handler", [&] { handler(meta, *content); });
        },
        config_.handler_cost);
  }
}

void ServiceContainer::try_bind_file_subscription(FileSubscription& sub) {
  if (file_provisions_.count(sub.name)) return;
  if (sub.announced && sub.provider) return;

  auto provider = directory_.resolve(proto::ItemKind::kFile, sub.name);
  if (!provider) {
    send_name_query(proto::ItemKind::kFile, sub.name, sub.last_name_query);
    return;
  }
  sub.provider = *provider;

  if (!sub.joined_group) {
    Status s =
        transport_.join_group(proto::channel_of(sub.name), config_.data_port);
    sub.joined_group = s.is_ok() || s.code() == StatusCode::kAlreadyExists;
  }

  proto::FileSubscribeMsg msg;
  msg.name = sub.name;
  msg.revision_have = sub.completed_revision;
  send_control(provider->container, proto::MsgType::kFileSubscribe, msg);
  sub.announced = true;
}

void ServiceContainer::on_file_subscribe(proto::ContainerId from,
                                         const proto::FileSubscribeMsg& msg) {
  auto it = file_provisions_.find(msg.name);
  if (it == file_provisions_.end()) return;
  FileProvision& prov = it->second;

  // Always answer with the current revision's coordinates (manifest
  // included, so the subscriber can verify and resume by hash).
  proto::FileRevisionMsg rev;
  rev.transfer_id = prov.transfer_id;
  rev.meta = prov.meta;
  rev.chunk_hashes = prov.publisher->chunk_hashes();
  send_control(from, proto::MsgType::kFileRevision, rev);

  if (msg.revision_have == prov.meta.revision) return;  // already current
  prov.remote_subscribers.insert(from);
  prov.publisher->add_subscriber(from);
}

void ServiceContainer::on_file_unsubscribe(
    proto::ContainerId from, const proto::FileUnsubscribeMsg& msg) {
  auto it = file_provisions_.find(msg.name);
  if (it == file_provisions_.end()) return;
  it->second.remote_subscribers.erase(from);
  it->second.publisher->remove_subscriber(from);
}

void ServiceContainer::on_file_revision(const proto::FileRevisionMsg& msg) {
  auto it = file_subs_.find(msg.meta.name);
  if (it == file_subs_.end()) return;
  FileSubscription& sub = it->second;
  if (sub.completed_revision >= msg.meta.revision) return;  // old news
  if (sub.receiver && sub.receiver->transfer_id() == msg.transfer_id &&
      sub.receiver->meta().revision == msg.meta.revision) {
    return;  // already collecting this revision
  }
  if (!sub.provider) return;  // not bound (e.g. raced with peer loss)
  start_file_receiver(sub, msg.transfer_id, msg.meta, msg.chunk_hashes,
                      sub.provider->address);
}

void ServiceContainer::start_file_receiver(
    FileSubscription& sub, uint64_t transfer_id, const proto::FileMeta& meta,
    const std::vector<uint64_t>& chunk_hashes,
    transport::Address publisher_addr) {
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

  sub.receiver->set_on_progress([&sub](uint32_t have, uint32_t total) {
    for (auto& entry : sub.entries) {
      if (entry.on_progress) {
        entry.on_progress(sub.receiver->meta(), have, total);
      }
    }
  });
  auto on_complete = [this, &s = sub](const Buffer& content) {
    const proto::FileMeta& meta = s.receiver->meta();
    trace_ev(obs::TraceEvent::kDeliver, obs::TraceKind::kFile,
             s.receiver->transfer_id(), meta.revision);
    MAREA_LOG(kInfo, kLog) << config_.node_name << " completed file '" << s.name
                           << "' rev " << meta.revision << " ("
                           << meta.size << " bytes)";
    // One immutable copy of the reassembled image, shared by every
    // handler post.
    deliver_file(s, meta, std::make_shared<const Buffer>(content));
  };
  sub.receiver->set_on_complete(on_complete);
  sub.receiver->set_manifest(chunk_hashes);
  sub.receiver->set_chunk_store(&chunk_store_);
  if (sub.receiver->complete()) {
    // Zero-byte resources are complete on arrival of the metadata alone.
    on_complete(Buffer{});
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
