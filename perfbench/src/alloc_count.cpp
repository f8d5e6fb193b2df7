// Replaces the global allocation functions so every heap allocation of
// the process is counted: the ground truth for allocs_per_op, including
// std::function captures and container growth inside the library.
#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>

#include "harness.h"

namespace {
std::atomic<uint64_t> g_allocs{0};
thread_local uint64_t t_allocs = 0;

void* counted_alloc(size_t n) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  ++t_allocs;
  return std::malloc(n ? n : 1);
}
}  // namespace

namespace perfbench {
uint64_t allocs_total() { return g_allocs.load(std::memory_order_relaxed); }
uint64_t allocs_this_thread() { return t_allocs; }
}  // namespace perfbench

void* operator new(size_t n) {
  if (void* p = counted_alloc(n)) return p;
  throw std::bad_alloc();
}
void* operator new[](size_t n) { return ::operator new(n); }
void* operator new(size_t n, const std::nothrow_t&) noexcept {
  return counted_alloc(n);
}
void* operator new[](size_t n, const std::nothrow_t&) noexcept {
  return counted_alloc(n);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, size_t) noexcept { std::free(p); }
void operator delete[](void* p, size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}
