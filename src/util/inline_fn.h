// Move-only callable with configurable inline storage.
//
// std::function's small-object buffer (16 bytes in libstdc++) is smaller
// than nearly every closure on the datapath — a scheduled delivery
// captures {this, endpoints, epoch, SharedFrame} and a posted task
// captures {this, Address, SharedFrame} — so each simulator event and
// each executor task used to cost one heap allocation just to exist.
// InlineFn sizes the buffer to the closures we actually schedule; a
// callable that doesn't fit (or isn't nothrow-movable) still works via a
// heap fallback, so capacity is a performance knob, never a correctness
// constraint.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <new>
#include <type_traits>
#include <utility>

namespace marea {

namespace detail {
// Process-wide count of closures that outgrew their InlineFn buffer and
// fell back to a heap allocation. Published into the metrics registry by
// SimDomain (as a delta since domain construction) so the bench gate
// catches closure growth instead of letting per-event allocations creep
// back in silently. Relaxed: it's a statistic, never synchronization.
inline std::atomic<uint64_t> inline_fn_heap_fallbacks{0};
}  // namespace detail

inline uint64_t inline_fn_heap_fallback_count() {
  return detail::inline_fn_heap_fallbacks.load(std::memory_order_relaxed);
}

template <typename Sig, size_t Cap = 48>
class InlineFn;

template <typename R, typename... Args, size_t Cap>
class InlineFn<R(Args...), Cap> {
 public:
  InlineFn() = default;
  InlineFn(std::nullptr_t) {}  // NOLINT(google-explicit-constructor)

  template <typename F>
    requires(!std::is_same_v<std::decay_t<F>, InlineFn> &&
             std::is_invocable_r_v<R, std::decay_t<F>&, Args...>)
  InlineFn(F&& f) {  // NOLINT(google-explicit-constructor)
    construct(std::forward<F>(f));
  }

  InlineFn(InlineFn&& o) noexcept { move_from(o); }
  InlineFn& operator=(InlineFn&& o) noexcept {
    if (this != &o) {
      reset();
      move_from(o);
    }
    return *this;
  }
  InlineFn(const InlineFn&) = delete;
  InlineFn& operator=(const InlineFn&) = delete;
  ~InlineFn() { reset(); }

  explicit operator bool() const { return invoke_ != nullptr; }

  // Whether a callable of type F is stored in the inline buffer (true)
  // or falls back to the heap; lets a hot call site pin its closure.
  template <typename F>
  static constexpr bool stores_inline() {
    return fits<std::decay_t<F>>();
  }

  R operator()(Args... args) const {
    return invoke_(this, std::forward<Args>(args)...);
  }

  void reset() {
    if (manage_) manage_(Op::kDestroy, this, nullptr);
    invoke_ = nullptr;
    manage_ = nullptr;
  }

  // Replaces the held callable by building `f` straight into this
  // object's buffer: a closure handed to a long-lived slot (a timer
  // node) is constructed once where it will run instead of being built
  // in a temporary and relocated.
  template <typename F>
    requires(!std::is_same_v<std::decay_t<F>, InlineFn> &&
             std::is_invocable_r_v<R, std::decay_t<F>&, Args...>)
  void emplace(F&& f) {
    reset();
    construct(std::forward<F>(f));
  }

 private:
  enum class Op { kDestroy, kMove };
  using Invoke = R (*)(const InlineFn*, Args&&...);
  using Manage = void (*)(Op, InlineFn*, InlineFn*);

  template <typename D>
  static constexpr bool fits() {
    return sizeof(D) <= Cap && alignof(D) <= alignof(std::max_align_t) &&
           std::is_nothrow_move_constructible_v<D>;
  }

  template <typename D>
  static D* target(const InlineFn* self) {
    void* p = const_cast<unsigned char*>(self->buf_);
    if constexpr (fits<D>()) {
      return static_cast<D*>(p);
    } else {
      return *static_cast<D**>(p);
    }
  }

  template <typename D>
  static R invoke_impl(const InlineFn* self, Args&&... args) {
    return (*target<D>(self))(std::forward<Args>(args)...);
  }

  template <typename D>
  static void manage_impl(Op op, InlineFn* self, InlineFn* dst) {
    D* obj = target<D>(self);
    if (op == Op::kMove) {
      if constexpr (fits<D>()) {
        ::new (static_cast<void*>(dst->buf_)) D(std::move(*obj));
        obj->~D();
      } else {
        ::new (static_cast<void*>(dst->buf_)) D*(obj);  // steal heap ptr
      }
      dst->invoke_ = self->invoke_;
      dst->manage_ = self->manage_;
      self->invoke_ = nullptr;
      self->manage_ = nullptr;
    } else {
      if constexpr (fits<D>()) {
        obj->~D();
      } else {
        delete obj;
      }
    }
  }

  template <typename F>
  void construct(F&& f) {
    using D = std::decay_t<F>;
    if constexpr (fits<D>()) {
      ::new (static_cast<void*>(buf_)) D(std::forward<F>(f));
    } else {
      detail::inline_fn_heap_fallbacks.fetch_add(1, std::memory_order_relaxed);
      ::new (static_cast<void*>(buf_)) D*(new D(std::forward<F>(f)));
    }
    invoke_ = &invoke_impl<D>;
    manage_ = &manage_impl<D>;
  }

  void move_from(InlineFn& o) {
    if (o.manage_) o.manage_(Op::kMove, &o, this);
  }

  alignas(std::max_align_t) unsigned char buf_[Cap];
  Invoke invoke_ = nullptr;
  Manage manage_ = nullptr;
};

// Size note: an InlineFn is its max_align_t-aligned buffer plus two
// dispatch pointers, so the object rounds up to a multiple of
// alignof(max_align_t) (16 on the targets we build): footprint =
// round_up(Cap + 2 * sizeof(void*), alignof(max_align_t)). The hot-path
// instantiations — 104 for sim::EventFn (the timer-wheel node budget),
// 56 for sched::Task (the executor queue entry budget) — are pinned
// here so a capture that grows Cap shows up as a build break, not a
// silent node-size regression. Growing a capture beyond Cap without
// growing Cap still works, but each such closure costs a heap
// allocation counted by inline_fn_heap_fallback_count(); bench_hotpath
// reports it per sample and its baseline gates it at zero.
namespace detail {
constexpr size_t inline_fn_footprint(size_t cap) {
  const size_t raw = cap + 2 * sizeof(void*);
  const size_t a = alignof(std::max_align_t);
  return (raw + a - 1) / a * a;
}
}  // namespace detail
static_assert(sizeof(InlineFn<void(), 104>) ==
                  detail::inline_fn_footprint(104),
              "EventFn footprint drifted: timer-wheel node size budget");
static_assert(sizeof(InlineFn<void(), 56>) == detail::inline_fn_footprint(56),
              "Task footprint drifted: executor queue entry size budget");

}  // namespace marea
