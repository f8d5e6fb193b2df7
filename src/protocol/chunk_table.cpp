#include "protocol/chunk_table.h"

#include <algorithm>
#include <bit>
#include <cstring>

#include "util/hash.h"

namespace marea::proto {

namespace {

// Chunks the incompressibility probe tries before a revision's loop.
constexpr size_t kProbeSamples = 8;

}  // namespace

ChunkTable ChunkTable::build(BytesView content, uint32_t chunk_size,
                             util::Codec codec, const ChunkTable* prev,
                             BytesView prev_content) {
  ChunkTable table;
  table.chunk_size_ = chunk_size;
  table.codec_ = codec;
  if (chunk_size == 0) return table;
  const size_t count = (content.size() + chunk_size - 1) / chunk_size;
  table.entries_.resize(count);
  table.hashes_.resize(count);
  const util::Compressor* comp = util::compressor_for(codec);
  // A kept codec output is strictly smaller than its chunk, so the
  // payloads packed before chunk i end at or before i * (chunk_size - 1)
  // and chunk i's len - 1 byte output span always fits. The buffer is
  // allocated once but zero-filled only as far as it gets written.
  if (comp != nullptr) table.payload_.reserve(content.size() - count);
  // The previous revision is usable when it was sliced and encoded the
  // same way and `prev_content` is the content it was built from.
  if (prev != nullptr &&
      (prev->chunk_size_ != chunk_size || prev->codec_ != codec ||
       prev->stats_.raw_bytes != prev_content.size())) {
    prev = nullptr;
  }
  auto chunk = [&](size_t i) {
    const size_t offset = i * static_cast<size_t>(chunk_size);
    return content.subspan(
        offset, std::min<size_t>(chunk_size, content.size() - offset));
  };
  // prev's entry for chunk i when its raw bytes equal `raw`, else null.
  auto unchanged = [&](size_t i, BytesView raw) -> const ChunkEntry* {
    if (prev == nullptr || i >= prev->entries_.size()) return nullptr;
    const ChunkEntry& p = prev->entries_[i];
    const uint8_t* was = prev_content.data() + i * size_t{chunk_size};
    if (p.raw_size != raw.size() ||
        std::memcmp(was, raw.data(), raw.size()) != 0) {
      return nullptr;
    }
    return &p;
  };
  auto sample = [count](size_t j) { return j * count / kProbeSamples; };

  ChunkPipelineStats& stats = table.stats_;
  // The incompressibility probe: before the loop, try the evenly spaced
  // samples in order and stop at the first that compresses. When none
  // does, the whole revision ships raw and the other chunks are never
  // tried. An unchanged sample that prev tried takes prev's verdict.
  bool try_all = comp != nullptr;
  size_t probed = 0;  // samples decided: all lost, but a winning last
  if (comp != nullptr && count > kProbeSamples) {
    try_all = false;
    // Scratch output for the samples: the loop below redoes a winner.
    table.payload_.resize(chunk_size - 1);
    while (!try_all && probed < kProbeSamples) {
      const size_t i = sample(probed++);
      const BytesView raw = chunk(i);
      if (const ChunkEntry* p = unchanged(i, raw);
          p != nullptr && !p->probe_skipped) {
        try_all = p->compressed;
        continue;
      }
      ++stats.compress_calls;
      try_all = comp->compress(raw, std::span<uint8_t>(table.payload_)
                                        .first(raw.size() - 1)) > 0;
    }
  }
  if (try_all) table.payload_.resize(content.size() - count);

  size_t packed = 0;
  size_t next = 0;  // the next probe sample the loop meets
  for (size_t i = 0; i < count; ++i) {
    const BytesView raw = chunk(i);
    const size_t len = raw.size();
    ChunkEntry& e = table.entries_[i];
    e.raw_size = static_cast<uint32_t>(len);
    const bool sampled = next < probed && i == sample(next);
    if (sampled) ++next;
    // Every sample the probe decided lost, but a winning last one.
    const bool lost = sampled && !(try_all && next == probed);
    // Same bytes as prev's chunk i: the same hash, and when prev tried
    // the chunk, the same compress-or-raw outcome.
    const ChunkEntry* p = unchanged(i, raw);
    if (p != nullptr) ++stats.reused_chunks;
    table.hashes_[i] = p != nullptr ? prev->hashes_[i] : util::hash64(raw);
    if (comp == nullptr || lost) {
      // Ships raw: no codec, or the probe saw this sample lose.
    } else if (!try_all) {
      e.probe_skipped = true;
      ++stats.skipped_by_probe;
    } else if (p != nullptr && !p->probe_skipped) {
      e.compressed = p->compressed;
      e.payload_size = p->payload_size;
      if (p->compressed) {
        std::memcpy(table.payload_.data() + packed,
                    prev->payload_.data() + p->payload_offset, p->payload_size);
      }
    } else {
      ++stats.compress_calls;
      e.payload_size = static_cast<uint32_t>(comp->compress(
          raw, std::span<uint8_t>(table.payload_).subspan(packed, len - 1)));
      e.compressed = e.payload_size > 0;
    }
    if (e.compressed) {
      e.payload_offset = packed;
      packed += e.payload_size;
      ++stats.compressed_chunks;
    }
    stats.raw_bytes += len;
    stats.wire_bytes += e.compressed ? e.payload_size : len;
  }
  table.payload_.resize(packed);
  table.manifest_hash_ =
      util::hash64_list(table.hashes_.data(), table.hashes_.size());
  return table;
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
  if (2 * slots_.size() > index_.size()) {  // slots_ holds `slot` already
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

std::vector<ChunkStore::Pin>::iterator ChunkStore::pin_of(
    const Buffer* image) {
  return std::ranges::lower_bound(pins_, image, {}, &Pin::key);
}

void ChunkStore::evict_lru() {
  const uint32_t s = tail_;
  unlink(s);
  index_erase(find_cell(slots_[s].hash));
  if (auto pin = pin_of(slots_[s].image); --pin->chunks == 0) {
    bytes_ -= pin->image->size();
    pins_.erase(pin);
  }
  // Keep slots_ dense: the last slot moves into the victim's place.
  if (Slot& x = slots_[s] = slots_.back(); s + 1 != slots_.size()) {
    (x.prev == kNil ? head_ : slots_[x.prev].next) = s;
    (x.next == kNil ? tail_ : slots_[x.next].prev) = s;
    index_[find_cell(x.hash)].slot = s;
  }
  slots_.pop_back();
  ++stats_.evictions;
}

BytesView ChunkStore::find(uint64_t hash) {
  const size_t c = find_cell(hash);
  if (c == kNoCell) {
    ++stats_.misses;
    return {};
  }
  ++stats_.hits;
  const uint32_t s = index_[c].slot;
  unlink(s);
  push_front(s);
  return slots_[s].chunk;
}

void ChunkStore::put(uint64_t hash, const std::shared_ptr<const Buffer>& image,
                     size_t offset, size_t length) {
  if (length == 0 || image->size() > max_bytes_) return;  // or evicts all
  if (const size_t c = find_cell(hash); c != kNoCell) {
    // Same hash, same content (by construction); just refresh.
    unlink(index_[c].slot);
    push_front(index_[c].slot);
    return;
  }
  auto pin = pin_of(image.get());
  if (pin == pins_.end() || pin->image != image) {
    // A new image: evict least-recent chunks until it fits whole.
    while (bytes_ + image->size() > max_bytes_) evict_lru();
    pin = pins_.insert(pin_of(image.get()), Pin{image, 0});
    bytes_ += image->size();
  }
  ++pin->chunks;
  const auto s = static_cast<uint32_t>(slots_.size());
  slots_.push_back(Slot{hash, kNil, kNil, image.get(),
                        BytesView(*image).subspan(offset, length)});
  push_front(s);
  index_insert(hash, s);
  ++stats_.inserts;
}

}  // namespace marea::proto
