// FIFO queue over a power-of-two ring that keeps its capacity.
//
// std::deque allocates and frees a fixed-size block every few elements as
// its head and tail chase each other, so a queue that stays shallow but
// turns over constantly (an executor's task queue) still hits the heap on
// every few push/pop pairs. RingQueue grows by doubling when full and
// never shrinks: once it has seen its peak depth, emplace_back/pop_front
// are allocation-free. Elements live in raw slots and are constructed and
// destroyed in place, so move-only types (InlineFn tasks) work and a
// popped element releases what it holds immediately.
#pragma once

#include <cassert>
#include <cstddef>
#include <memory>
#include <new>
#include <utility>

namespace marea {

template <typename T>
class RingQueue {
 public:
  RingQueue() = default;
  RingQueue(const RingQueue&) = delete;
  RingQueue& operator=(const RingQueue&) = delete;
  ~RingQueue() {
    clear();
    if (slots_) std::allocator<T>().deallocate(slots_, capacity_);
  }

  bool empty() const { return size_ == 0; }
  size_t size() const { return size_; }
  size_t capacity() const { return capacity_; }

  T& front() {
    assert(size_ > 0);
    return slots_[head_];
  }

  // Constructs the new tail element in its slot from `args`, which must
  // not refer into the queue (growth may move its elements first).
  template <typename... A>
  void emplace_back(A&&... args) {
    if (size_ == capacity_) reserve(capacity_ ? capacity_ * 2 : kMinCapacity);
    ::new (static_cast<void*>(&slots_[(head_ + size_) & (capacity_ - 1)]))
        T(std::forward<A>(args)...);
    ++size_;
  }

  void pop_front() {
    assert(size_ > 0);
    slots_[head_].~T();
    head_ = (head_ + 1) & (capacity_ - 1);
    --size_;
  }

  void clear() {
    while (size_ > 0) pop_front();
    head_ = 0;
  }

  // Grows capacity to the next power of two >= n; never shrinks.
  void reserve(size_t n) {
    if (n <= capacity_) return;
    size_t cap = kMinCapacity;
    while (cap < n) cap *= 2;
    T* fresh = std::allocator<T>().allocate(cap);
    for (size_t i = 0; i < size_; ++i) {
      T& old = slots_[(head_ + i) & (capacity_ - 1)];
      ::new (static_cast<void*>(&fresh[i])) T(std::move(old));
      old.~T();
    }
    if (slots_) std::allocator<T>().deallocate(slots_, capacity_);
    slots_ = fresh;
    capacity_ = cap;
    head_ = 0;
  }

 private:
  static constexpr size_t kMinCapacity = 8;

  T* slots_ = nullptr;
  size_t capacity_ = 0;  // zero or a power of two
  size_t head_ = 0;
  size_t size_ = 0;
};

}  // namespace marea
