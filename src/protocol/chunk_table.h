// Content-addressed chunk layer for MFTP (ROADMAP item 3).
//
// ChunkTable is the publisher-side pre-computation: slice a revision's
// content at chunk_size, hash every raw chunk (util::hash64), and — when
// a codec is negotiated — decide per revision whether to compress. A
// probe first tries up to 8 evenly spaced chunks; if none compresses
// strictly smaller than raw, the whole revision ships raw and the other
// chunks are never tried. Otherwise every chunk is compressed
// independently and keeps its compressed form only when it is strictly
// smaller. One sequential pass on the calling thread builds the table;
// the result is a pure function of (content, chunk_size, codec), so
// simulation stays deterministic. Every kept chunk is compressed
// straight into its packed place, in index order, in one table-owned
// buffer: a revision costs O(1) allocations, not one per chunk. Given
// the outgoing revision of the same resource, a chunk whose bytes did
// not change takes its hash from there, and its payload too when that
// build tried the chunk; equal bytes give equal results, so the table is
// the one a fresh build makes.
//
// ChunkStore is the receiver-side bounded LRU keyed by chunk hash: the
// cross-transfer dedup memory that lets an identical-revision republish
// transfer ~0 payload bytes and a late joiner resume by hash. Lookups
// verify size before use; the 64-bit hash plus size check is the
// store's identity (see util/hash.h for the collision budget).
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "util/bytes.h"
#include "util/compress.h"

namespace marea::proto {

// One chunk's wire form; its hash is the table's hashes()[index].
struct ChunkEntry {
  uint32_t raw_size = 0;  // chunk length before compression
  bool compressed = false;
  // Shipped raw without being tried: the revision's probe found no
  // chunk that compresses. A later build cannot reuse a verdict from it.
  bool probe_skipped = false;
  // Compressed bytes within the table's payload buffer; empty when
  // !compressed.
  size_t payload_offset = 0;
  uint32_t payload_size = 0;
};

// Build-time accounting: deterministic byte and chunk counts.
struct ChunkPipelineStats {
  uint64_t raw_bytes = 0;
  uint64_t wire_bytes = 0;  // sum of per-chunk payloads as sent
  uint32_t compressed_chunks = 0;
  uint32_t reused_chunks = 0;     // hash taken from the previous revision
  uint32_t compress_calls = 0;    // Compressor::compress calls, probe too
  uint32_t skipped_by_probe = 0;  // entries with probe_skipped set

  ChunkPipelineStats& operator+=(const ChunkPipelineStats& o) {
    raw_bytes += o.raw_bytes;
    wire_bytes += o.wire_bytes;
    compressed_chunks += o.compressed_chunks;
    reused_chunks += o.reused_chunks;
    compress_calls += o.compress_calls;
    skipped_by_probe += o.skipped_by_probe;
    return *this;
  }
};

class ChunkTable {
 public:
  ChunkTable() = default;

  // `prev` (optional) is the table of the revision this one replaces
  // and `prev_content` the bytes it was built from: with the same
  // chunk_size and codec, chunk i reuses prev's chunk i when their raw
  // bytes are equal: always its hash, and its compress-or-raw outcome
  // unless prev skipped the chunk.
  static ChunkTable build(BytesView content, uint32_t chunk_size,
                          util::Codec codec, const ChunkTable* prev = nullptr,
                          BytesView prev_content = {});

  uint32_t chunk_count() const {
    return static_cast<uint32_t>(entries_.size());
  }
  const ChunkEntry& entry(uint32_t index) const { return entries_[index]; }
  // The compressed bytes of chunk `index`; empty when it ships raw.
  BytesView payload(uint32_t index) const {
    const ChunkEntry& e = entries_[index];
    return BytesView(payload_).subspan(e.payload_offset, e.payload_size);
  }

  // The announce manifest: the digest of every RAW chunk, in index
  // order.
  const std::vector<uint64_t>& hashes() const { return hashes_; }
  // Digest of the hash list — names this exact revision layout, echoed
  // in NACKs so a publisher can ignore status for a stale manifest.
  uint64_t manifest_hash() const { return manifest_hash_; }

  const ChunkPipelineStats& stats() const { return stats_; }

 private:
  std::vector<ChunkEntry> entries_;
  std::vector<uint64_t> hashes_;  // the manifest
  Buffer payload_;  // every compressed chunk, packed in index order
  uint32_t chunk_size_ = 0;
  util::Codec codec_ = util::Codec::kNone;
  uint64_t manifest_hash_ = 0;
  ChunkPipelineStats stats_;
};

// Bounded receiver-side LRU of raw chunks keyed by content hash, each a
// reference (file image, offset, length). Deterministic: no clocks, eviction
// order is purely access order. The budget counts a pinned image whole while
// any of its chunks is stored. Slots form an index-linked LRU list found by
// an open-addressed index; once the vectors have grown, put() never allocates.
class ChunkStore {
 public:
  explicit ChunkStore(size_t max_bytes = 4u << 20) : max_bytes_(max_bytes) {}

  // Returns the stored raw chunk (refreshing its LRU position), or an
  // empty view. The view is invalidated by the next put().
  BytesView find(uint64_t hash);
  // The referenced bytes must never change; a stored hash is refreshed.
  void put(uint64_t hash, const std::shared_ptr<const Buffer>& image,
           size_t offset, size_t length);

  struct Stats {
    uint64_t hits = 0;
    uint64_t misses = 0;
    uint64_t inserts = 0;
    uint64_t evictions = 0;
  };
  const Stats& stats() const { return stats_; }
  size_t bytes() const { return bytes_; }  // pinned image bytes
  size_t entries() const { return slots_.size(); }

 private:
  static constexpr uint32_t kNil = UINT32_MAX;
  static constexpr size_t kNoCell = SIZE_MAX;
  struct Slot {
    uint64_t hash = 0;
    uint32_t prev = kNil;  // LRU neighbour towards the most recent
    uint32_t next = kNil;  // towards the least recent
    const Buffer* image = nullptr;  // pinned in pins_
    BytesView chunk;                // within *image
  };
  struct Cell {
    uint64_t hash = 0;
    uint32_t slot = kNil;  // kNil: empty cell
  };
  struct Pin {  // an image and the count of slots referencing it
    std::shared_ptr<const Buffer> image;
    size_t chunks = 0;
    const Buffer* key() const { return image.get(); }
  };

  size_t home(uint64_t hash) const;
  size_t find_cell(uint64_t hash) const;  // cell holding hash, or kNoCell
  void index_insert(uint64_t hash, uint32_t slot);
  void index_erase(size_t cell);
  void unlink(uint32_t s);
  void push_front(uint32_t s);
  std::vector<Pin>::iterator pin_of(const Buffer* image);
  void evict_lru();

  size_t max_bytes_;
  size_t bytes_ = 0;
  std::vector<Slot> slots_;
  uint32_t head_ = kNil;  // most recently used
  uint32_t tail_ = kNil;  // least recently used: the next victim
  std::vector<Cell> index_;  // power-of-two size, at most half full
  unsigned index_shift_ = 64;  // 64 - log2(index_.size())
  std::vector<Pin> pins_;  // sorted by image address
  Stats stats_;
};

}  // namespace marea::proto
