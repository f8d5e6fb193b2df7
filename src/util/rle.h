// Run-length encoded set of uint32 indices.
//
// The MFTP completion phase (paper §4.4) sends a NACK carrying "a
// compressed list of the chunks it lacks". Missing chunks cluster in
// bursts (loss is bursty, tails are contiguous), so [first,len) runs
// compress them well. Also reused by the ARQ ack bitmap diagnostics.
#pragma once

#include <cstdint>
#include <vector>

#include "util/bytes.h"

namespace marea {

struct IndexRun {
  uint32_t first = 0;
  uint32_t count = 0;  // number of consecutive indices, >= 1

  friend bool operator==(const IndexRun&, const IndexRun&) = default;
};

// An ordered, non-overlapping set of uint32 indices stored as runs.
class RunSet {
 public:
  RunSet() = default;

  // Builds from a sorted, duplicate-free list of indices.
  static RunSet from_sorted(const std::vector<uint32_t>& sorted);

  // Inserts one index, merging adjacent runs. Idempotent.
  void insert(uint32_t index);
  // Inserts [first, first+count).
  void insert_run(uint32_t first, uint32_t count);

  // Drops every index below `n` and moves the rest down by `n`, in
  // place (an ARQ receive window sliding forward).
  void rebase(uint32_t n);

  bool contains(uint32_t index) const;
  bool empty() const { return runs_.empty(); }
  // Total number of indices in the set.
  uint64_t cardinality() const;

  const std::vector<IndexRun>& runs() const { return runs_; }
  std::vector<uint32_t> to_indices() const;

  // Wire form: varint run count, then per run varint(first delta), varint(count).
  void encode(ByteWriter& w) const;
  static bool decode(ByteReader& r, RunSet& out);

  friend bool operator==(const RunSet&, const RunSet&) = default;

 private:
  std::vector<IndexRun> runs_;  // sorted by first, non-adjacent
};

// Convenience: the complement of `have` within [0, total).
RunSet missing_of(const RunSet& have, uint32_t total);

}  // namespace marea
