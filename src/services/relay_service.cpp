#include "services/relay_service.h"

#include <algorithm>

#include "encoding/codec.h"
#include "util/hash.h"
#include "util/logging.h"

namespace marea::services {

namespace {
constexpr const char* kLog = "relay";
constexpr const char* kTelemetryClass = "telemetry";
constexpr const char* kEventClass = "event";
constexpr const char* kFileClass = "file";
}  // namespace

RelayService::RelayService(Role role, std::vector<RelayRoute> routes,
                           RelayConfig config)
    : Service(role == Role::kMule ? "relay_mule" : "relay_sink"),
      role_(role),
      routes_(std::move(routes)),
      config_(std::move(config)) {}

Status RelayService::on_start() {
  running_ = true;
  return role_ == Role::kMule ? start_mule() : start_sink();
}

void RelayService::on_stop() { running_ = false; }

// --- mule -------------------------------------------------------------------

Status RelayService::start_mule() {
  auto status_var = provide_variable<RelayStatus>(
      config_.status_variable, {.period = config_.status_period,
                                .validity = config_.status_period * 3});
  if (!status_var.ok()) return status_var.status();
  status_var_ = *status_var;

  for (const RelayRoute& route : routes_) {
    Status s = Status::ok();
    switch (route.kind) {
      case RelayRoute::Kind::kTelemetry:
        s = subscribe_variable(
            route.name, route.type,
            [this, route](const enc::Value& v, const mw::SampleInfo& info) {
              samples_seen_++;
              RelayBundle b;
              b.id = next_id_++;
              b.mule = name();
              b.klass = kTelemetryClass;
              b.name = route.name;
              b.origin_time_ns = info.publish_time.ns;
              auto bytes = enc::encode_value(v, *route.type);
              if (!bytes.ok()) return;
              b.payload = std::move(*bytes);
              enqueue_telemetry(route.name, std::move(b));
            });
        break;
      case RelayRoute::Kind::kEvent:
        s = subscribe_event(
            route.name, route.type,
            [this, route](const enc::Value& v, const mw::EventInfo& info) {
              events_seen_++;
              RelayBundle b;
              b.id = next_id_++;
              b.mule = name();
              b.klass = kEventClass;
              b.name = route.name;
              b.origin_time_ns = info.publish_time.ns;
              auto bytes = enc::encode_value(v, *route.type);
              if (!bytes.ok()) return;
              b.payload = std::move(*bytes);
              enqueue_custody(std::move(b));
            },
            {.ordered = true});
        break;
      case RelayRoute::Kind::kFile:
        s = subscribe_file(
            route.name,
            [this, route](const proto::FileMeta& meta, const Buffer& content) {
              files_seen_++;
              const size_t chunk = std::max<size_t>(config_.file_chunk_bytes, 1);
              const uint32_t count = std::max<uint32_t>(
                  1, static_cast<uint32_t>((content.size() + chunk - 1) /
                                           chunk));
              const util::Compressor* comp =
                  util::compressor_for(config_.file_codec);
              for (uint32_t i = 0; i < count; ++i) {
                RelayBundle b;
                b.id = next_id_++;
                b.mule = name();
                b.klass = kFileClass;
                b.name = route.name;
                b.chunk_index = i;
                b.chunk_count = count;
                b.revision = meta.revision;
                b.origin_time_ns = now().ns;
                const size_t begin = i * chunk;
                const size_t end = std::min(content.size(), begin + chunk);
                BytesView raw(content.data() + begin, end - begin);
                // Content-address each custody chunk at capture:
                // compress (when it wins) to stretch the bounded buffer
                // and the contact window, and hash the raw bytes so the
                // sink can verify before taking custody.
                b.chunk_hash = util::hash64(raw);
                b.raw_size = static_cast<uint32_t>(raw.size());
                size_t packed = 0;
                if (comp != nullptr && !raw.empty()) {
                  b.payload.resize(raw.size() - 1);
                  packed = comp->compress(raw, b.payload);
                }
                if (packed > 0) {
                  b.payload.resize(packed);
                  b.codec = static_cast<uint32_t>(config_.file_codec);
                } else {
                  b.payload.assign(raw.begin(), raw.end());
                }
                custody_raw_bytes_ += raw.size();
                custody_wire_bytes_ += b.payload.size();
                enqueue_custody(std::move(b));
              }
            });
        break;
    }
    if (!s.is_ok()) return s;
  }

  publish_relay_status();
  // Kick the delivery loop; it re-arms itself every contact_retry and
  // chains immediately after each custody transfer.
  schedule(config_.contact_retry, [this] { delivery_tick(); });
  return Status::ok();
}

void RelayService::enqueue_telemetry(const std::string& route_name,
                                     RelayBundle bundle) {
  auto it = telemetry_.find(route_name);
  if (it != telemetry_.end()) {
    queued_bytes_ -= it->second.payload.size();
    status_.conflated++;
    telemetry_.erase(it);
  }
  if (queued_bytes_ + bundle.payload.size() > config_.max_buffered_bytes) {
    // Telemetry never evicts anything else: a fresh sample that does
    // not fit is simply the one conflated away.
    status_.dropped++;
    return;
  }
  queued_bytes_ += bundle.payload.size();
  telemetry_.emplace(route_name, std::move(bundle));
}

bool RelayService::make_room(size_t needed) {
  while (queued_bytes_ + needed > config_.max_buffered_bytes &&
         !telemetry_.empty()) {
    auto it = telemetry_.begin();
    queued_bytes_ -= it->second.payload.size();
    status_.dropped++;
    telemetry_.erase(it);
  }
  return queued_bytes_ + needed <= config_.max_buffered_bytes;
}

void RelayService::enqueue_custody(RelayBundle bundle) {
  if (!make_room(bundle.payload.size())) {
    // Drop-newest: custody already accepted outranks new arrivals.
    status_.dropped++;
    MAREA_LOG(kWarn, kLog) << "buffer full, dropping new " << bundle.klass
                           << " bundle for '" << bundle.name << "'";
    return;
  }
  queued_bytes_ += bundle.payload.size();
  custody_.push_back(std::move(bundle));
}

void RelayService::delivery_tick() {
  if (!running_) return;
  attempt_delivery();
  schedule(config_.contact_retry, [this] { delivery_tick(); });
}

void RelayService::attempt_delivery() {
  if (!running_ || in_flight_) return;
  RelayBundle* head = nullptr;
  if (!custody_.empty()) {
    head = &custody_.front();
  } else if (!telemetry_.empty()) {
    head = &telemetry_.begin()->second;
  }
  if (!head) return;
  in_flight_ = true;
  RelayBundle copy = *head;
  call<RelayBundle, RelayAck>(
      config_.deliver_function, copy,
      [this, copy](StatusOr<RelayAck> ack) mutable {
        on_deliver_result(std::move(copy), std::move(ack));
      },
      {.timeout = config_.deliver_timeout});
}

void RelayService::on_deliver_result(RelayBundle sent,
                                     StatusOr<RelayAck> ack) {
  in_flight_ = false;
  if (!running_) return;
  const bool transferred = ack.ok() && ack->accepted && ack->id == sent.id;
  if (!transferred) {
    status_.contact = false;
    return;  // custody retained; delivery_tick retries
  }
  status_.contact = true;
  status_.last_contact_ns = now().ns;
  status_.delivered++;
  if (sent.klass == kTelemetryClass) {
    // Only retire the slot if it still holds the acknowledged sample —
    // a fresher one may have conflated in while this was in flight.
    auto it = telemetry_.find(sent.name);
    if (it != telemetry_.end() && it->second.id == sent.id) {
      queued_bytes_ -= it->second.payload.size();
      telemetry_.erase(it);
    }
  } else if (!custody_.empty() && custody_.front().id == sent.id) {
    queued_bytes_ -= custody_.front().payload.size();
    custody_.pop_front();
  }
  attempt_delivery();  // drain while the contact window lasts
}

void RelayService::publish_relay_status() {
  if (!running_) return;
  status_.queued = static_cast<uint32_t>(custody_.size() + telemetry_.size());
  status_.queued_bytes = queued_bytes_;
  (void)status_var_.publish(status_);
  schedule(config_.status_period, [this] { publish_relay_status(); });
}

// --- sink -------------------------------------------------------------------

Status RelayService::start_sink() {
  for (const RelayRoute& route : routes_) {
    const std::string relayed = route.name + config_.relayed_suffix;
    switch (route.kind) {
      case RelayRoute::Kind::kTelemetry: {
        // Relayed samples are old by construction: a generous validity
        // keeps read_variable useful between contact windows.
        auto var = provide_variable(relayed, route.type,
                                    {.validity = seconds(10.0)});
        if (!var.ok()) return var.status();
        relay_vars_[route.name] = *var;
        break;
      }
      case RelayRoute::Kind::kEvent: {
        auto ev = provide_event(relayed, route.type);
        if (!ev.ok()) return ev.status();
        relay_events_[route.name] = *ev;
        break;
      }
      case RelayRoute::Kind::kFile:
        break;  // republished on completed reassembly
    }
  }
  return provide_function<RelayBundle, RelayAck>(
      config_.deliver_function,
      [this](const RelayBundle& b) { return on_deliver(b); });
}

StatusOr<RelayAck> RelayService::on_deliver(const RelayBundle& b) {
  RelayAck ack;
  ack.id = b.id;
  ack.accepted = true;
  if (!seen_[b.mule].insert(b.id).second) {
    // Retransmission after a lost ack: custody already transferred,
    // just re-ack.
    duplicates_ignored_++;
    return ack;
  }

  // Decompress and verify file chunks BEFORE any custody accounting:
  // refusing the ack (and forgetting the id) makes the mule retain and
  // retry the bundle instead of losing the chunk forever.
  Buffer raw;
  if (b.klass == kFileClass) {
    bool ok = true;
    if (b.codec != 0) {
      const util::Compressor* comp =
          util::compressor_for(static_cast<uint8_t>(b.codec));
      // raw_size comes off the wire: bound it by what the payload could
      // possibly decode to before allocating for it.
      ok = comp != nullptr &&
           b.raw_size <= comp->max_decoded_size(b.payload.size());
      if (ok) {
        raw.resize(b.raw_size);
        ok = comp->decompress(BytesView(b.payload), raw);
      }
    } else {
      raw = b.payload;
    }
    if (ok && b.chunk_hash != 0 &&
        util::hash64(BytesView(raw)) != b.chunk_hash) {
      ok = false;
    }
    if (!ok) {
      bundles_rejected_++;
      seen_[b.mule].erase(b.id);
      ack.accepted = false;
      return ack;
    }
  }

  bundles_accepted_++;
  custody_latency_total_ =
      custody_latency_total_ + (now() - TimePoint{b.origin_time_ns});

  const RelayRoute* route = nullptr;
  for (const RelayRoute& r : routes_) {
    if (r.name == b.name) {
      route = &r;
      break;
    }
  }
  if (route == nullptr) {
    MAREA_LOG(kWarn, kLog) << "no route for relayed '" << b.name
                           << "'; bundle accepted and discarded";
    return ack;
  }

  if (b.klass == kFileClass) {
    FileAssembly& fa = assemblies_[{b.name, b.revision}];
    if (fa.chunks.empty()) {
      fa.chunks.resize(b.chunk_count);
      fa.got.assign(b.chunk_count, false);
    }
    if (b.chunk_index < fa.chunks.size() && !fa.got[b.chunk_index]) {
      fa.chunks[b.chunk_index] = std::move(raw);
      fa.got[b.chunk_index] = true;
      fa.have++;
    }
    if (fa.have == fa.chunks.size()) {
      Buffer content;
      for (const Buffer& c : fa.chunks) {
        content.insert(content.end(), c.begin(), c.end());
      }
      (void)publish_file(b.name + config_.relayed_suffix, std::move(content));
      files_relayed_++;
      assemblies_.erase({b.name, b.revision});
    }
    return ack;
  }

  auto value = enc::decode_value(BytesView(b.payload), *route->type);
  if (!value.ok()) {
    MAREA_LOG(kWarn, kLog) << "relayed payload for '" << b.name
                           << "' does not decode: "
                           << value.status().to_string();
    return ack;
  }
  if (b.klass == kTelemetryClass) {
    telemetry_relayed_++;
    (void)relay_vars_[b.name].publish(std::move(*value));
  } else {
    events_relayed_++;
    (void)relay_events_[b.name].publish(std::move(*value));
  }
  return ack;
}

}  // namespace marea::services
