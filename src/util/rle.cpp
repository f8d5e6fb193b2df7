#include "util/rle.h"

#include <algorithm>

namespace marea {

RunSet RunSet::from_sorted(const std::vector<uint32_t>& sorted) {
  RunSet set;
  for (uint32_t v : sorted) set.insert(v);
  return set;
}

void RunSet::insert(uint32_t index) { insert_run(index, 1); }

void RunSet::insert_run(uint32_t first, uint32_t count) {
  if (count == 0) return;
  uint64_t lo = first;
  uint64_t hi = static_cast<uint64_t>(first) + count;  // exclusive

  // Find first run that could touch [lo, hi): run.end >= lo - 1 handled via merge.
  auto it = std::lower_bound(
      runs_.begin(), runs_.end(), first,
      [](const IndexRun& r, uint32_t v) {
        return static_cast<uint64_t>(r.first) + r.count < v;
      });

  // Merge all overlapping/adjacent runs into [lo, hi).
  while (it != runs_.end() && it->first <= hi) {
    lo = std::min<uint64_t>(lo, it->first);
    hi = std::max<uint64_t>(hi, static_cast<uint64_t>(it->first) + it->count);
    it = runs_.erase(it);
  }
  runs_.insert(it, IndexRun{static_cast<uint32_t>(lo),
                            static_cast<uint32_t>(hi - lo)});
}

void RunSet::rebase(uint32_t n) {
  std::erase_if(runs_, [n](const IndexRun& r) {
    return static_cast<uint64_t>(r.first) + r.count <= n;
  });
  for (IndexRun& r : runs_) {
    const uint32_t cut = r.first < n ? n - r.first : 0;  // straddles n
    r.first = r.first + cut - n;
    r.count -= cut;
  }
}

bool RunSet::contains(uint32_t index) const {
  auto it = std::upper_bound(
      runs_.begin(), runs_.end(), index,
      [](uint32_t v, const IndexRun& r) { return v < r.first; });
  if (it == runs_.begin()) return false;
  --it;
  return index < static_cast<uint64_t>(it->first) + it->count;
}

uint64_t RunSet::cardinality() const {
  uint64_t n = 0;
  for (const auto& r : runs_) n += r.count;
  return n;
}

std::vector<uint32_t> RunSet::to_indices() const {
  std::vector<uint32_t> out;
  out.reserve(cardinality());
  for (const auto& r : runs_) {
    for (uint32_t i = 0; i < r.count; ++i) out.push_back(r.first + i);
  }
  return out;
}

void RunSet::encode(ByteWriter& w) const {
  w.varint(runs_.size());
  uint32_t prev_end = 0;
  for (const auto& r : runs_) {
    w.varint(r.first - prev_end);  // delta from previous run end
    w.varint(r.count);
    prev_end = r.first + r.count;
  }
}

bool RunSet::decode(ByteReader& r, RunSet& out) {
  out.runs_.clear();
  uint64_t n = r.varint();
  if (!r.ok()) return false;
  uint32_t prev_end = 0;
  for (uint64_t i = 0; i < n; ++i) {
    uint64_t delta = r.varint();
    uint64_t count = r.varint();
    if (!r.ok() || count == 0 || count > UINT32_MAX) return false;
    uint64_t first = prev_end + delta;
    if (first + count > UINT32_MAX) return false;
    out.runs_.push_back(
        IndexRun{static_cast<uint32_t>(first), static_cast<uint32_t>(count)});
    prev_end = static_cast<uint32_t>(first + count);
  }
  return true;
}

RunSet missing_of(const RunSet& have, uint32_t total) {
  RunSet miss;
  uint32_t cursor = 0;
  for (const auto& r : have.runs()) {
    if (r.first >= total) break;
    if (r.first > cursor) miss.insert_run(cursor, r.first - cursor);
    uint64_t end = static_cast<uint64_t>(r.first) + r.count;
    cursor = static_cast<uint32_t>(std::min<uint64_t>(end, total));
  }
  if (cursor < total) miss.insert_run(cursor, total - cursor);
  return miss;
}

}  // namespace marea
