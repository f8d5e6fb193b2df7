#include "protocol/chunk_table.h"

#include <algorithm>
#include <bit>
#include <cstring>

#include "util/hash.h"

namespace marea::proto {

ChunkTable ChunkTable::build(BytesView content, uint32_t chunk_size,
                             util::Codec codec, const ChunkTable* prev,
                             BytesView prev_content) {
  ChunkTable table;
  table.chunk_size_ = chunk_size;
  table.codec_ = codec;
  if (chunk_size == 0) return table;
  const size_t count = (content.size() + chunk_size - 1) / chunk_size;
  table.entries_.resize(count);
  const util::Compressor* comp = util::compressor_for(codec);
  // A kept codec output is strictly smaller than its chunk, so the
  // payloads packed before chunk i end at or before i * (chunk_size - 1)
  // and chunk i's len - 1 byte output span always fits.
  if (comp != nullptr) table.payload_.resize(content.size() - count);
  // The previous revision is usable when it was sliced and encoded the
  // same way and `prev_content` is the content it was built from.
  if (prev != nullptr &&
      (prev->chunk_size_ != chunk_size || prev->codec_ != codec ||
       prev->stats_.raw_bytes != prev_content.size())) {
    prev = nullptr;
  }
  ChunkPipelineStats& stats = table.stats_;
  size_t packed = 0;
  std::vector<uint64_t> hashes(count);
  for (size_t i = 0; i < count; ++i) {
    const size_t offset = i * static_cast<size_t>(chunk_size);
    const size_t len = std::min<size_t>(chunk_size, content.size() - offset);
    BytesView raw = content.subspan(offset, len);
    ChunkEntry& e = table.entries_[i];
    e.raw_size = static_cast<uint32_t>(len);
    if (prev != nullptr && i < prev->entries_.size() &&
        prev->entries_[i].raw_size == len &&
        std::memcmp(prev_content.data() + offset, raw.data(), len) == 0) {
      // Same bytes: the hash and the compress-or-raw outcome are what
      // the previous build computed for them.
      const ChunkEntry& p = prev->entries_[i];
      e.hash = p.hash;
      e.compressed = p.compressed;
      e.payload_size = p.payload_size;
      if (p.compressed) {
        std::memcpy(table.payload_.data() + packed,
                    prev->payload_.data() + p.payload_offset, p.payload_size);
      }
      ++stats.reused_chunks;
    } else {
      e.hash = util::hash64(raw);
      if (comp != nullptr) {
        e.payload_size = static_cast<uint32_t>(comp->compress(
            raw, std::span<uint8_t>(table.payload_).subspan(packed, len - 1)));
        e.compressed = e.payload_size > 0;
      }
    }
    if (e.compressed) {
      e.payload_offset = packed;
      packed += e.payload_size;
      ++stats.compressed_chunks;
    }
    hashes[i] = e.hash;
    stats.raw_bytes += len;
    stats.wire_bytes += e.compressed ? e.payload_size : len;
  }
  table.payload_.resize(packed);
  stats.chunks = static_cast<uint32_t>(count);
  table.manifest_hash_ = util::hash64_list(hashes.data(), hashes.size());
  return table;
}

std::vector<uint64_t> ChunkTable::hashes() const {
  std::vector<uint64_t> out(entries_.size());
  for (size_t i = 0; i < entries_.size(); ++i) out[i] = entries_[i].hash;
  return out;
}

size_t ChunkStore::home(uint64_t hash) const {
  // Fibonacci hashing: the top bits of an odd multiply depend on every
  // key bit, so peer-chosen keys that share low bits do not cluster.
  return static_cast<size_t>((hash * 0x9E3779B97F4A7C15ull) >> index_shift_);
}

size_t ChunkStore::find_cell(uint64_t hash) const {
  if (index_.empty()) return kNoCell;
  const size_t mask = index_.size() - 1;
  for (size_t c = home(hash);; c = (c + 1) & mask) {
    if (index_[c].slot == kNil) return kNoCell;
    if (index_[c].hash == hash) return c;
  }
}

void ChunkStore::index_insert(uint64_t hash, uint32_t slot) {
  if (2 * (entries_ + 1) > index_.size()) {
    std::vector<Cell> old = std::move(index_);
    index_.assign(old.empty() ? 16 : 2 * old.size(), Cell{});
    index_shift_ = 64 - static_cast<unsigned>(std::countr_zero(index_.size()));
    for (const Cell& cell : old) {
      if (cell.slot != kNil) index_insert(cell.hash, cell.slot);
    }
  }
  const size_t mask = index_.size() - 1;
  size_t c = home(hash);
  while (index_[c].slot != kNil) c = (c + 1) & mask;
  index_[c] = Cell{hash, slot};
}

void ChunkStore::index_erase(size_t cell) {
  // Backward-shift deletion: pull each later member of the probe run
  // into the hole unless the hole lies before its home position, so
  // lookups never need tombstones.
  const size_t mask = index_.size() - 1;
  size_t hole = cell;
  for (size_t c = (hole + 1) & mask; index_[c].slot != kNil;
       c = (c + 1) & mask) {
    const size_t dist_home = (c - home(index_[c].hash)) & mask;
    if (dist_home >= ((c - hole) & mask)) {
      index_[hole] = index_[c];
      hole = c;
    }
  }
  index_[hole].slot = kNil;
}

void ChunkStore::unlink(uint32_t s) {
  Slot& x = slots_[s];
  (x.prev == kNil ? head_ : slots_[x.prev].next) = x.next;
  (x.next == kNil ? tail_ : slots_[x.next].prev) = x.prev;
}

void ChunkStore::push_front(uint32_t s) {
  Slot& x = slots_[s];
  x.prev = kNil;
  x.next = head_;
  (head_ == kNil ? tail_ : slots_[head_].prev) = s;
  head_ = s;
}

const Buffer* ChunkStore::find(uint64_t hash) {
  const size_t c = find_cell(hash);
  if (c == kNoCell) {
    ++stats_.misses;
    return nullptr;
  }
  ++stats_.hits;
  const uint32_t s = index_[c].slot;
  unlink(s);
  push_front(s);
  return &slots_[s].data;
}

void ChunkStore::put(uint64_t hash, BytesView raw) {
  if (raw.size() > max_bytes_) return;  // would evict the whole store
  if (const size_t c = find_cell(hash); c != kNoCell) {
    // Same hash, same content (by construction); just refresh.
    unlink(index_[c].slot);
    push_front(index_[c].slot);
    return;
  }
  // Evict least-recent first. The first victim's slot (and its buffer
  // capacity) carries the new chunk; later victims join the free list.
  uint32_t s = kNil;
  while (bytes_ + raw.size() > max_bytes_ && entries_ != 0) {
    const uint32_t victim = tail_;
    bytes_ -= slots_[victim].data.size();
    ++stats_.evictions;
    --entries_;
    unlink(victim);
    index_erase(find_cell(slots_[victim].hash));
    if (s == kNil) {
      s = victim;
    } else {
      slots_[victim].next = free_;
      free_ = victim;
    }
  }
  if (s == kNil && free_ != kNil) {
    s = free_;
    free_ = slots_[s].next;
  }
  if (s == kNil) {
    s = static_cast<uint32_t>(slots_.size());
    slots_.emplace_back();
  }
  slots_[s].hash = hash;
  slots_[s].data.assign(raw.begin(), raw.end());
  push_front(s);
  index_insert(hash, s);
  ++entries_;
  bytes_ += raw.size();
  ++stats_.inserts;
}

}  // namespace marea::proto
