#include "util/frame_pool.h"

namespace marea {

namespace detail {

void release_slab(FrameSlab* slab) {
  // Move the home reference out first: if the freelist is full (or the
  // pool core is somehow gone) the slab and the pool ref die together.
  std::shared_ptr<PoolCore> home = std::move(slab->home);
  std::unique_ptr<FrameSlab> owned(slab);
  if (!home) return;
  std::lock_guard<std::mutex> lock(home->mu);
  if (home->closed || home->free_list.size() >= home->max_free) return;
  // Keep capacity, drop contents: a re-acquired slab must start empty so
  // no stale bytes from a previous frame can leak into the next one. The
  // view offset rewinds with it — the next checkout sees a whole buffer.
  owned->data.clear();
  owned->view_offset = 0;
  home->free_list.push_back(std::move(owned));
}

}  // namespace detail

FramePool::FramePool(size_t slab_reserve, size_t max_free)
    : core_(std::make_shared<detail::PoolCore>()) {
  core_->slab_reserve = slab_reserve;
  core_->max_free = max_free;
}

FramePool::~FramePool() {
  std::vector<std::unique_ptr<detail::FrameSlab>> drained;
  {
    std::lock_guard<std::mutex> lock(core_->mu);
    core_->closed = true;
    drained.swap(core_->free_list);
  }
  // Slabs free outside the lock; outstanding frames keep the core alive
  // (shared_ptr) and see `closed` when they release.
}

FrameLease FramePool::acquire(size_t size_hint) {
  core_->checkouts.fetch_add(1, std::memory_order_relaxed);
  std::unique_ptr<detail::FrameSlab> slab;
  {
    std::lock_guard<std::mutex> lock(core_->mu);
    if (!core_->free_list.empty()) {
      slab = std::move(core_->free_list.back());
      core_->free_list.pop_back();
    }
  }
  if (slab) {
    core_->pool_hits.fetch_add(1, std::memory_order_relaxed);
  } else {
    core_->slab_allocs.fetch_add(1, std::memory_order_relaxed);
    slab = std::make_unique<detail::FrameSlab>();
    slab->data.reserve(core_->slab_reserve);
  }
  if (size_hint > slab->data.capacity()) slab->data.reserve(size_hint);
  slab->home = core_;
  return FrameLease(slab.release());
}

SharedFrame FramePool::copy_in(BytesView data) {
  FrameLease lease = acquire(data.size());
  lease.buffer().assign(data.begin(), data.end());
  core_->copies_in.fetch_add(1, std::memory_order_relaxed);
  core_->bytes_copied_in.fetch_add(data.size(), std::memory_order_relaxed);
  return std::move(lease).freeze();
}

FramePool::Stats FramePool::stats() const {
  Stats s;
  s.checkouts = core_->checkouts.load(std::memory_order_relaxed);
  s.pool_hits = core_->pool_hits.load(std::memory_order_relaxed);
  s.slab_allocs = core_->slab_allocs.load(std::memory_order_relaxed);
  s.copies_in = core_->copies_in.load(std::memory_order_relaxed);
  s.bytes_copied_in = core_->bytes_copied_in.load(std::memory_order_relaxed);
  return s;
}

}  // namespace marea
