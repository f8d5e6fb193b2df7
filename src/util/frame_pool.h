// Pooled, refcounted wire buffers — the ownership backbone of the
// zero-copy datapath (DESIGN.md "Datapath & buffer ownership").
//
// Life of a frame:
//   FramePool::acquire() -> FrameLease (exclusive, mutable: serialize the
//   frame in place) -> std::move(lease).freeze() -> SharedFrame
//   (immutable, refcounted: every fan-out destination and in-flight
//   delivery holds a cheap reference to the SAME bytes) -> last reference
//   released -> the slab returns to its pool's freelist, capacity intact,
//   ready for the next acquire() without touching the heap.
//
// The slab keeps a strong reference to the pool core while checked out,
// so frames may outlive the FramePool object itself (e.g. packets still
// in flight in the simulator when a network is torn down). Refcounting is
// atomic and the freelist is mutex-guarded: leases/frames may be created
// and released from different threads (UDP poll thread vs. app thread).
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "util/bytes.h"

namespace marea {

namespace detail {

struct PoolCore;

// One reusable backing buffer plus its refcount. refs == 0 means "held
// exclusively by a lease"; freeze() publishes it at refs == 1.
struct FrameSlab {
  Buffer data;
  // First byte of the published view. Normally 0; freeze_payload() sets
  // it when a kernel-written buffer carries a header (io_uring multishot
  // recvmsg prepends io_uring_recvmsg_out + the source address) ahead of
  // the payload that readers should see.
  size_t view_offset = 0;
  std::atomic<uint32_t> refs{0};
  // Strong ref back to the owning pool, held only while checked out.
  std::shared_ptr<PoolCore> home;
};

struct PoolCore {
  std::mutex mu;
  std::vector<std::unique_ptr<FrameSlab>> free_list;
  size_t max_free;
  size_t slab_reserve;
  // Set by ~FramePool(): frames released after the pool is gone free
  // their slabs instead of parking them on a freelist nobody will ever
  // drain again.
  bool closed = false;
  // Monotonic counters (see FramePool::Stats).
  std::atomic<uint64_t> checkouts{0};
  std::atomic<uint64_t> pool_hits{0};
  std::atomic<uint64_t> slab_allocs{0};
  std::atomic<uint64_t> copies_in{0};
  std::atomic<uint64_t> bytes_copied_in{0};
};

// Returns the slab to its home pool's freelist (or frees it when the
// freelist is full). Called when the last reference dies.
void release_slab(FrameSlab* slab);

}  // namespace detail

// Immutable, refcounted view of one sealed frame. Copies are refcount
// bumps; no byte is duplicated no matter how many destinations share it.
class SharedFrame {
 public:
  SharedFrame() = default;
  ~SharedFrame() { reset(); }

  SharedFrame(const SharedFrame& o) : slab_(o.slab_) { retain(); }
  SharedFrame& operator=(const SharedFrame& o) {
    if (this != &o) {
      reset();
      slab_ = o.slab_;
      retain();
    }
    return *this;
  }
  SharedFrame(SharedFrame&& o) noexcept : slab_(o.slab_) {
    o.slab_ = nullptr;
  }
  SharedFrame& operator=(SharedFrame&& o) noexcept {
    if (this != &o) {
      reset();
      slab_ = o.slab_;
      o.slab_ = nullptr;
    }
    return *this;
  }

  bool empty() const { return slab_ == nullptr; }
  explicit operator bool() const { return slab_ != nullptr; }
  // NOTE: deliberately no implicit conversion to BytesView — sharing vs.
  // viewing must be explicit at call sites (overload resolution safety).
  BytesView view() const {
    if (!slab_) return BytesView{};
    return BytesView(slab_->data.data() + slab_->view_offset,
                     slab_->data.size() - slab_->view_offset);
  }
  size_t size() const {
    return slab_ ? slab_->data.size() - slab_->view_offset : 0;
  }

  void reset() {
    if (slab_ && slab_->refs.fetch_sub(1, std::memory_order_acq_rel) == 1) {
      detail::release_slab(slab_);
    }
    slab_ = nullptr;
  }

 private:
  friend class FrameLease;
  explicit SharedFrame(detail::FrameSlab* slab) : slab_(slab) {}
  void retain() {
    if (slab_) slab_->refs.fetch_add(1, std::memory_order_relaxed);
  }

  detail::FrameSlab* slab_ = nullptr;
};

// Exclusive checkout of one slab: the only window in which frame bytes
// are mutable. Serialize into buffer(), then freeze() — or drop the lease
// to return the slab unused.
class FrameLease {
 public:
  FrameLease() = default;
  ~FrameLease() {
    if (slab_) detail::release_slab(slab_);
  }

  FrameLease(const FrameLease&) = delete;
  FrameLease& operator=(const FrameLease&) = delete;
  FrameLease(FrameLease&& o) noexcept : slab_(o.slab_) { o.slab_ = nullptr; }
  FrameLease& operator=(FrameLease&& o) noexcept {
    if (this != &o) {
      if (slab_) detail::release_slab(slab_);
      slab_ = o.slab_;
      o.slab_ = nullptr;
    }
    return *this;
  }

  bool valid() const { return slab_ != nullptr; }
  // Empty (size 0) on acquire; capacity persists across pool reuse.
  Buffer& buffer() { return slab_->data; }

  // Publishes the bytes as immutable shared state. Consumes the lease.
  SharedFrame freeze() && {
    detail::FrameSlab* slab = slab_;
    slab_ = nullptr;
    slab->refs.store(1, std::memory_order_release);
    return SharedFrame(slab);
  }

  // Publishes only the first `n` bytes (a shrink of the logical size: no
  // reallocation, no fill). The receive path acquires a max-datagram
  // slab, lets the kernel write into it, then freezes exactly the
  // datagram that arrived. Consumes the lease.
  SharedFrame freeze_prefix(size_t n) && {
    if (n < slab_->data.size()) slab_->data.resize(n);
    return std::move(*this).freeze();
  }

  // Publishes `len` bytes starting at `offset` — the payload window of a
  // buffer whose head holds transport framing the kernel wrote alongside
  // the datagram (see FrameSlab::view_offset). Zero-copy: the header
  // bytes stay in the slab but are invisible to every reader of the
  // SharedFrame. Consumes the lease.
  SharedFrame freeze_payload(size_t offset, size_t len) && {
    slab_->view_offset = offset;
    if (offset + len < slab_->data.size()) slab_->data.resize(offset + len);
    return std::move(*this).freeze();
  }

 private:
  friend class FramePool;
  explicit FrameLease(detail::FrameSlab* slab) : slab_(slab) {}

  detail::FrameSlab* slab_ = nullptr;
};

class FramePool {
 public:
  struct Stats {
    uint64_t checkouts = 0;    // acquire() calls
    uint64_t pool_hits = 0;    // served from the freelist (no heap)
    uint64_t slab_allocs = 0;  // new slabs heap-allocated (pool misses)
    uint64_t copies_in = 0;    // copy_in() calls
    uint64_t bytes_copied_in = 0;
  };

  // `slab_reserve`: initial capacity of fresh slabs (typical frame size);
  // `max_free`: freelist cap — slabs beyond it are freed on release.
  explicit FramePool(size_t slab_reserve = 2048, size_t max_free = 64);
  // Closes the core: the freelist is dropped now, and slabs still
  // checked out (frames in flight in the simulator) free themselves on
  // release instead of touching the dead freelist.
  ~FramePool();

  FramePool(const FramePool&) = delete;
  FramePool& operator=(const FramePool&) = delete;

  // `size_hint` pre-reserves capacity for the coming frame.
  FrameLease acquire(size_t size_hint = 0);

  // Copies caller-owned bytes into a fresh pooled frame: the one
  // user-space payload copy on the way into the frame datapath, counted
  // in Stats (copies_in / bytes_copied_in).
  SharedFrame copy_in(BytesView data);

  Stats stats() const;

 private:
  std::shared_ptr<detail::PoolCore> core_;
};

}  // namespace marea
