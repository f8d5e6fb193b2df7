// Content-addressed chunk layer for MFTP (ROADMAP item 3).
//
// ChunkTable is the publisher-side pre-computation: slice a revision's
// content at chunk_size, hash every raw chunk (util::hash64), and — when
// a codec is negotiated — compress each chunk independently, keeping
// the compressed form only when it is strictly smaller than raw. The
// per-chunk work fans out over sched::parallel_for; results are a pure
// function of (content, chunk_size, codec), independent of thread
// count, so the table can be built on a worker pool without perturbing
// simulation determinism. Every chunk compresses into its own slot of
// one table-owned buffer, which is then packed in index order: a
// revision costs O(1) allocations, not one per chunk.
//
// ChunkStore is the receiver-side bounded LRU keyed by chunk hash: the
// cross-transfer dedup memory that lets an identical-revision republish
// transfer ~0 payload bytes and a late joiner resume by hash. Lookups
// verify size before use; the 64-bit hash plus size check is the
// store's identity (see util/hash.h for the collision budget).
#pragma once

#include <cstdint>
#include <list>
#include <unordered_map>
#include <vector>

#include "util/bytes.h"
#include "util/compress.h"

namespace marea::proto {

struct ChunkEntry {
  uint64_t hash = 0;       // digest of the RAW chunk bytes
  uint32_t raw_size = 0;   // chunk length before compression
  bool compressed = false;
  // Compressed bytes within the table's payload buffer; empty when
  // !compressed.
  size_t payload_offset = 0;
  uint32_t payload_size = 0;
};

// Build-time accounting. The nanosecond fields are wall-clock CPU time
// summed across workers — they feed the opt-in mftp.hash_mb_s /
// compress MB/s rates and bench JSON, and must never be folded into
// deterministic sim dumps (see MftpParams::report_wall_rates).
struct ChunkPipelineStats {
  uint64_t raw_bytes = 0;
  uint64_t wire_bytes = 0;  // sum of per-chunk payloads as sent
  uint32_t chunks = 0;
  uint32_t compressed_chunks = 0;
  uint64_t hash_nanos = 0;
  uint64_t compress_nanos = 0;
};

class ChunkTable {
 public:
  ChunkTable() = default;

  // threads <= 1 builds inline on the caller; otherwise a transient
  // worker pool hashes/compresses chunks concurrently.
  static ChunkTable build(BytesView content, uint32_t chunk_size,
                          util::Codec codec, unsigned threads = 0);

  uint32_t chunk_count() const {
    return static_cast<uint32_t>(entries_.size());
  }
  const ChunkEntry& entry(uint32_t index) const { return entries_[index]; }
  // The compressed bytes of chunk `index`; empty when it ships raw.
  BytesView payload(uint32_t index) const {
    const ChunkEntry& e = entries_[index];
    return BytesView(payload_).subspan(e.payload_offset, e.payload_size);
  }

  // The announce manifest: raw-chunk hashes in index order.
  std::vector<uint64_t> hashes() const;
  // Digest of the hash list — names this exact revision layout, echoed
  // in NACKs so a publisher can ignore status for a stale manifest.
  uint64_t manifest_hash() const { return manifest_hash_; }

  const ChunkPipelineStats& stats() const { return stats_; }

 private:
  std::vector<ChunkEntry> entries_;
  Buffer payload_;  // every compressed chunk, packed in index order
  uint64_t manifest_hash_ = 0;
  ChunkPipelineStats stats_;
};

// Bounded receiver-side LRU of raw chunks keyed by content hash.
// Deterministic: no clocks, eviction order is purely access order. Once
// full, put() recycles the least-recent victim's map node, list node
// and buffer capacity for the new chunk, so a warm store does not
// allocate.
class ChunkStore {
 public:
  explicit ChunkStore(size_t max_bytes = 4u << 20) : max_bytes_(max_bytes) {}

  // Returns the stored raw chunk (refreshing its LRU position) or
  // nullptr. The pointer is invalidated by the next put().
  const Buffer* find(uint64_t hash);
  void put(uint64_t hash, BytesView raw);

  struct Stats {
    uint64_t hits = 0;
    uint64_t misses = 0;
    uint64_t inserts = 0;
    uint64_t evictions = 0;
  };
  const Stats& stats() const { return stats_; }
  size_t bytes() const { return bytes_; }
  size_t entries() const { return map_.size(); }

 private:
  struct Entry {
    Buffer data;
    std::list<uint64_t>::iterator lru_pos;
  };
  size_t max_bytes_;
  size_t bytes_ = 0;
  std::list<uint64_t> lru_;  // front = most recently used
  std::unordered_map<uint64_t, Entry> map_;
  Stats stats_;
};

}  // namespace marea::proto
