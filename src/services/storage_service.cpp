#include "util/logging.h"
#include "services/storage_service.h"

#include <cstdio>

#include "util/bytes.h"
#include "util/hash.h"

namespace marea::services {

namespace {
// At-rest container: [codec u8][hash64 of raw u64][varint raw_size][payload].
Buffer pack_at_rest(BytesView raw, util::Codec codec) {
  ByteWriter w(raw.size() + 16);
  const uint64_t digest = util::hash64(raw);
  const util::Compressor* comp = util::compressor_for(codec);
  Buffer packed;
  size_t packed_size = 0;
  if (comp != nullptr && !raw.empty()) {
    packed.resize(raw.size() - 1);
    packed_size = comp->compress(raw, packed);
  }
  w.u8(static_cast<uint8_t>(packed_size > 0 ? codec : util::Codec::kNone));
  w.u64(digest);
  w.varint(raw.size());
  w.bytes(packed_size > 0 ? BytesView(packed).first(packed_size) : raw);
  return w.take();
}
}  // namespace

StorageService::StorageService(uint64_t quota_bytes,
                               util::Codec at_rest_codec)
    : Service("storage"), fs_(quota_bytes), at_rest_codec_(at_rest_codec) {}

StatusOr<Buffer> StorageService::fetch(const std::string& path) const {
  auto stored = fs_.read(path);
  if (!stored.ok()) return stored.status();
  ByteReader r{BytesView(*stored)};
  const uint8_t codec_id = r.u8();
  const uint64_t digest = r.u64();
  const uint64_t raw_size = r.varint();
  if (!r.ok()) {
    return data_loss_error("storage.fetch: truncated container '" + path +
                           "'");
  }
  BytesView payload = r.bytes(r.remaining());
  Buffer raw;
  if (codec_id == static_cast<uint8_t>(util::Codec::kNone)) {
    raw.assign(payload.begin(), payload.end());
  } else {
    const util::Compressor* comp = util::compressor_for(codec_id);
    // The varint size is read back from storage: bound it by what the
    // payload could decode to before allocating for it.
    bool ok = comp != nullptr &&
              raw_size <= comp->max_decoded_size(payload.size());
    if (ok) {
      raw.resize(static_cast<size_t>(raw_size));
      ok = comp->decompress(payload, raw);
    }
    if (!ok) {
      return data_loss_error("storage.fetch: undecodable payload in '" +
                             path + "'");
    }
  }
  if (raw.size() != raw_size || util::hash64(BytesView(raw)) != digest) {
    return data_loss_error("storage.fetch: content hash mismatch in '" +
                           path + "'");
  }
  return raw;
}

Status StorageService::on_start() {
  Status s = provide_function<StoreRequest, Ack>(
      "storage.store", [this](const StoreRequest& req) { return store(req); });
  if (!s.is_ok()) return s;
  s = provide_function<RecordRequest, Ack>(
      "storage.record",
      [this](const RecordRequest& req) { return record(req); });
  if (!s.is_ok()) return s;
  return provide_function<ListRequest, ListReply>(
      "storage.list", [this](const ListRequest& req) { return list(req); });
}

StatusOr<Ack> StorageService::store(const StoreRequest& req) {
  if (req.resource.empty()) {
    return invalid_argument_error("storage.store: empty resource");
  }
  std::string dir = req.directory.empty() ? "photos" : req.directory;
  if (!stored_resources_.count(req.resource)) {
    stored_resources_.insert(req.resource);
    Status s = subscribe_file(
        req.resource,
        [this, dir](const proto::FileMeta& meta, const Buffer& content) {
          std::string path = dir + "/" + meta.name + ".r" +
                             std::to_string(meta.revision);
          Buffer packed = pack_at_rest(BytesView(content), at_rest_codec_);
          const size_t disk = packed.size();
          Status ws = fs_.write(path, std::move(packed));
          if (ws.is_ok()) {
            ++files_stored_;
            stored_raw_bytes_ += content.size();
            stored_disk_bytes_ += disk;
            MAREA_LOG(kInfo, "storage")
                << "stored '" << path << "' (" << content.size()
                << " -> " << disk << " bytes)";
          } else {
            MAREA_LOG(kError, "storage")
                << "failed to store '" << path << "': " << ws.to_string();
          }
        });
    if (!s.is_ok()) return s;
  }
  Ack ack;
  ack.ok = true;
  ack.detail = "storing " + req.resource + " under " + dir;
  return ack;
}

StatusOr<Ack> StorageService::record(const RecordRequest& req) {
  if (req.variable.empty()) {
    return invalid_argument_error("storage.record: empty variable");
  }
  std::string dir = req.directory.empty() ? "track" : req.directory;
  if (!recorded_variables_.count(req.variable)) {
    recorded_variables_.insert(req.variable);
    std::string variable = req.variable;
    Status s = subscribe_variable(
        variable, enc::descriptor_of<GpsFix>(),
        [this, dir, variable](const enc::Value& v, const mw::SampleInfo&) {
          // Append a CSV-ish line per sample.
          std::string path = dir + "/" + variable + ".log";
          Buffer existing;
          if (auto r = fs_.read(path); r.ok()) existing = std::move(*r);
          std::string line = v.to_string() + "\n";
          existing.insert(existing.end(), line.begin(), line.end());
          (void)fs_.write(path, std::move(existing));
          ++samples_recorded_;
        });
    if (!s.is_ok()) return s;
  }
  Ack ack;
  ack.ok = true;
  ack.detail = "recording " + req.variable;
  return ack;
}

StatusOr<ListReply> StorageService::list(const ListRequest& req) {
  ListReply reply;
  for (const auto& info : fs_.list(req.directory)) {
    reply.paths.push_back(info.path);
    reply.total_bytes += info.size;
  }
  return reply;
}

}  // namespace marea::services
