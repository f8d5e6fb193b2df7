#include "protocol/chunk_table.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstring>

#include "sched/parallel.h"
#include "util/hash.h"

namespace marea::proto {
namespace {

inline uint64_t now_nanos() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

}  // namespace

ChunkTable ChunkTable::build(BytesView content, uint32_t chunk_size,
                             util::Codec codec, unsigned threads) {
  ChunkTable table;
  if (chunk_size == 0) return table;
  const size_t count = (content.size() + chunk_size - 1) / chunk_size;
  table.entries_.resize(count);
  const util::Compressor* comp = util::compressor_for(codec);
  // Chunk i may use slot [i * (chunk_size - 1), +len - 1): a codec output
  // must be strictly smaller than its chunk to be kept.
  const size_t slot = chunk_size - 1;
  if (comp != nullptr) table.payload_.resize(content.size() - count);
  std::atomic<uint64_t> hash_nanos{0};
  std::atomic<uint64_t> compress_nanos{0};
  // Each index writes only its own entry and payload slot; the blocking
  // fan-out is a pure pre-computation whose result is thread-count
  // independent.
  auto build_one = [&](size_t i) {
    const size_t offset = i * static_cast<size_t>(chunk_size);
    const size_t len = std::min<size_t>(chunk_size, content.size() - offset);
    BytesView raw = content.subspan(offset, len);
    ChunkEntry& e = table.entries_[i];
    e.raw_size = static_cast<uint32_t>(len);
    const uint64_t t0 = now_nanos();
    e.hash = util::hash64(raw);
    const uint64_t t1 = now_nanos();
    hash_nanos.fetch_add(t1 - t0, std::memory_order_relaxed);
    if (comp != nullptr) {
      e.payload_offset = i * slot;
      e.payload_size = static_cast<uint32_t>(comp->compress(
          raw, std::span<uint8_t>(table.payload_).subspan(i * slot, len - 1)));
      e.compressed = e.payload_size > 0;
      compress_nanos.fetch_add(now_nanos() - t1, std::memory_order_relaxed);
    }
  };
  sched::parallel_for(count, threads,
                      [&build_one](size_t i) { build_one(i); });

  // Pack the kept payloads to the front, in index order (each moves
  // down or stays, so one forward pass never overwrites a later slot).
  size_t packed = 0;
  std::vector<uint64_t> hashes(count);
  for (size_t i = 0; i < count; ++i) {
    ChunkEntry& e = table.entries_[i];
    if (e.compressed) {
      std::memmove(table.payload_.data() + packed,
                   table.payload_.data() + e.payload_offset, e.payload_size);
      e.payload_offset = packed;
      packed += e.payload_size;
      ++table.stats_.compressed_chunks;
    } else {
      e.payload_offset = 0;
    }
    hashes[i] = e.hash;
    table.stats_.raw_bytes += e.raw_size;
    table.stats_.wire_bytes += e.compressed ? e.payload_size : e.raw_size;
  }
  table.payload_.resize(packed);
  table.stats_.chunks = static_cast<uint32_t>(count);
  table.stats_.hash_nanos = hash_nanos.load(std::memory_order_relaxed);
  table.stats_.compress_nanos =
      compress_nanos.load(std::memory_order_relaxed);
  table.manifest_hash_ = util::hash64_list(hashes.data(), hashes.size());
  return table;
}

std::vector<uint64_t> ChunkTable::hashes() const {
  std::vector<uint64_t> out(entries_.size());
  for (size_t i = 0; i < entries_.size(); ++i) out[i] = entries_[i].hash;
  return out;
}

const Buffer* ChunkStore::find(uint64_t hash) {
  auto it = map_.find(hash);
  if (it == map_.end()) {
    ++stats_.misses;
    return nullptr;
  }
  ++stats_.hits;
  lru_.splice(lru_.begin(), lru_, it->second.lru_pos);
  return &it->second.data;
}

void ChunkStore::put(uint64_t hash, BytesView raw) {
  if (raw.size() > max_bytes_) return;  // would evict the whole store
  auto it = map_.find(hash);
  if (it != map_.end()) {
    // Same hash, same content (by construction); just refresh.
    lru_.splice(lru_.begin(), lru_, it->second.lru_pos);
    return;
  }
  // Evict least-recent first. The first victim's nodes are kept (its
  // list node moved to the front, out of the eviction walk) and reused
  // for the new chunk; later victims are freed.
  decltype(map_)::node_type spare;
  while (bytes_ + raw.size() > max_bytes_ && !map_.empty()) {
    auto vit = map_.find(lru_.back());
    bytes_ -= vit->second.data.size();
    ++stats_.evictions;
    if (spare.empty()) {
      lru_.splice(lru_.begin(), lru_, vit->second.lru_pos);
      spare = map_.extract(vit);
    } else {
      lru_.pop_back();
      map_.erase(vit);
    }
  }
  if (spare.empty()) {
    lru_.push_front(hash);
    Entry e;
    e.data = to_buffer(raw);
    e.lru_pos = lru_.begin();
    map_.emplace(hash, std::move(e));
  } else {
    spare.key() = hash;
    *spare.mapped().lru_pos = hash;
    spare.mapped().data.assign(raw.begin(), raw.end());
    map_.insert(std::move(spare));
  }
  bytes_ += raw.size();
  ++stats_.inserts;
}

}  // namespace marea::proto
