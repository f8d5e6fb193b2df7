#include "transport/uring_transport.h"

#include <arpa/inet.h>
#include <linux/io_uring.h>
#include <netinet/in.h>
#include <sys/eventfd.h>
#include <sys/mman.h>
#include <sys/socket.h>
#include <sys/syscall.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <cstdlib>
#include <cstring>
#include <future>
#include <mutex>
#include <stdexcept>
#include <string_view>
#include <thread>
#include <unordered_map>
#include <vector>

#include "transport/send_retry.h"

namespace marea::transport {

namespace {

int sys_uring_setup(unsigned entries, io_uring_params* p) {
  return static_cast<int>(syscall(__NR_io_uring_setup, entries, p));
}

int sys_uring_enter(int fd, unsigned to_submit, unsigned min_complete,
                    unsigned flags, const void* arg, size_t argsz) {
  return static_cast<int>(syscall(__NR_io_uring_enter, fd, to_submit,
                                  min_complete, flags, arg, argsz));
}

int sys_uring_register(int fd, unsigned op, void* arg, unsigned nr) {
  return static_cast<int>(syscall(__NR_io_uring_register, fd, op, arg, nr));
}

// The build box's uapi header can trail the running kernel; these are
// ABI constants, fixed forever once released, so defining the missing
// ones locally is safe (the feature bits below are only acted on when
// the kernel actually reports them at setup time).
#ifndef IORING_FEAT_MIN_TIMEOUT
#define IORING_FEAT_MIN_TIMEOUT (1U << 15)
#endif

// io_uring_getevents_arg with the min_wait_usec field kernels >= 6.12
// carved out of the old pad word: "wait up to min_wait_usec to
// accumulate wait_for completions, then return whatever is there; if
// none arrived at all, keep waiting for the first one up to ts". The
// kernel copies exactly argsz bytes, so passing this layout to older
// kernels is still correct — they see the field as the (must-be-zero)
// pad, and we only set it when IORING_FEAT_MIN_TIMEOUT is reported.
struct GetEventsArg {
  uint64_t sigmask = 0;
  uint32_t sigmask_sz = 0;
  uint32_t min_wait_usec = 0;
  uint64_t ts = 0;
};
static_assert(sizeof(GetEventsArg) == sizeof(io_uring_getevents_arg));

// Minimal raw-syscall io_uring wrapper (the toolchain has no liburing):
// one SQ/CQ pair, mmap'd per io_uring_setup's offsets, with batched
// submission folded into the completion wait — the steady-state cost of
// a whole send batch or receive drain is a single io_uring_enter.
struct Ring {
  int fd = -1;
  io_uring_params params{};
  uint8_t* sq_mem = nullptr;
  size_t sq_len = 0;
  uint8_t* cq_mem = nullptr;
  size_t cq_len = 0;
  io_uring_sqe* sqes = nullptr;
  size_t sqes_len = 0;
  unsigned* sq_head = nullptr;
  unsigned* sq_tail = nullptr;
  unsigned* sq_array = nullptr;
  unsigned sq_mask = 0;
  unsigned* cq_head = nullptr;
  unsigned* cq_tail = nullptr;
  io_uring_cqe* cqe_base = nullptr;
  unsigned cq_mask = 0;
  unsigned to_submit = 0;  // SQEs staged since the last enter

  // `want_defer` asks for DEFER_TASKRUN|SINGLE_ISSUER: completion
  // task-work queues on the ring instead of waking the owner thread per
  // event, and runs batched when the owner's enter drains it — the
  // difference between one scheduler round-trip per datagram and one
  // per batch. The CALLING THREAD becomes the ring's single issuer:
  // every subsequent get_sqe/flush on such a ring must come from it.
  int init(unsigned entries, bool want_defer) {
    params = {};
    if (want_defer) {
      params.flags = IORING_SETUP_SINGLE_ISSUER |
                     IORING_SETUP_DEFER_TASKRUN | IORING_SETUP_COOP_TASKRUN;
      fd = sys_uring_setup(entries, &params);
    }
    if (fd < 0) {
      // COOP_TASKRUN: completion task-work piggybacks on our own ring
      // transitions instead of preempting the thread with an IPI — a
      // measurable win for the busy dispatch loop. Absent before 5.19:
      // degrade silently.
      params = {};
      params.flags = IORING_SETUP_COOP_TASKRUN;
      fd = sys_uring_setup(entries, &params);
    }
    if (fd < 0) {
      params = {};
      fd = sys_uring_setup(entries, &params);
    }
    if (fd < 0) return -errno;
    sq_len = params.sq_off.array + params.sq_entries * sizeof(unsigned);
    cq_len = params.cq_off.cqes + params.cq_entries * sizeof(io_uring_cqe);
    if (params.features & IORING_FEAT_SINGLE_MMAP) {
      if (cq_len > sq_len) sq_len = cq_len;
      cq_len = sq_len;
    }
    void* sq = mmap(nullptr, sq_len, PROT_READ | PROT_WRITE,
                    MAP_SHARED | MAP_POPULATE, fd, IORING_OFF_SQ_RING);
    if (sq == MAP_FAILED) return -errno;
    sq_mem = static_cast<uint8_t*>(sq);
    if (params.features & IORING_FEAT_SINGLE_MMAP) {
      cq_mem = sq_mem;
    } else {
      void* cq = mmap(nullptr, cq_len, PROT_READ | PROT_WRITE,
                      MAP_SHARED | MAP_POPULATE, fd, IORING_OFF_CQ_RING);
      if (cq == MAP_FAILED) return -errno;
      cq_mem = static_cast<uint8_t*>(cq);
    }
    sqes_len = params.sq_entries * sizeof(io_uring_sqe);
    void* se = mmap(nullptr, sqes_len, PROT_READ | PROT_WRITE,
                    MAP_SHARED | MAP_POPULATE, fd, IORING_OFF_SQES);
    if (se == MAP_FAILED) return -errno;
    sqes = static_cast<io_uring_sqe*>(se);
    sq_head = reinterpret_cast<unsigned*>(sq_mem + params.sq_off.head);
    sq_tail = reinterpret_cast<unsigned*>(sq_mem + params.sq_off.tail);
    sq_mask = *reinterpret_cast<unsigned*>(sq_mem + params.sq_off.ring_mask);
    sq_array = reinterpret_cast<unsigned*>(sq_mem + params.sq_off.array);
    cq_head = reinterpret_cast<unsigned*>(cq_mem + params.cq_off.head);
    cq_tail = reinterpret_cast<unsigned*>(cq_mem + params.cq_off.tail);
    cq_mask = *reinterpret_cast<unsigned*>(cq_mem + params.cq_off.ring_mask);
    cqe_base = reinterpret_cast<io_uring_cqe*>(cq_mem + params.cq_off.cqes);
    return 0;
  }

  void destroy() {
    if (sqes) munmap(sqes, sqes_len);
    if (cq_mem && cq_mem != sq_mem) munmap(cq_mem, cq_len);
    if (sq_mem) munmap(sq_mem, sq_len);
    sqes = nullptr;
    sq_mem = cq_mem = nullptr;
    if (fd >= 0) ::close(fd);
    fd = -1;
  }

  // Stages one zeroed SQE; null when the SQ is full (a short submit —
  // flush and retry).
  io_uring_sqe* get_sqe() {
    const unsigned head =
        std::atomic_ref<unsigned>(*sq_head).load(std::memory_order_acquire);
    const unsigned tail = *sq_tail;
    if (tail - head >= params.sq_entries) return nullptr;
    io_uring_sqe* s = &sqes[tail & sq_mask];
    std::memset(s, 0, sizeof *s);
    sq_array[tail & sq_mask] = tail & sq_mask;
    std::atomic_ref<unsigned>(*sq_tail).store(tail + 1,
                                              std::memory_order_release);
    ++to_submit;
    return s;
  }

  unsigned cq_ready() const {
    const unsigned tail =
        std::atomic_ref<unsigned>(*cq_tail).load(std::memory_order_acquire);
    return tail - *cq_head;
  }

  io_uring_cqe* cq_peek(unsigned i) {
    return &cqe_base[(*cq_head + i) & cq_mask];
  }

  void cq_advance(unsigned n) {
    std::atomic_ref<unsigned>(*cq_head).store(*cq_head + n,
                                              std::memory_order_release);
  }

  // Submits everything staged and (optionally) waits until `wait_for`
  // CQEs are ready — one io_uring_enter for the whole batch. A null
  // timeout waits indefinitely; otherwise EXT_ARG bounds the wait.
  // `min_wait_usec` (only honored when the kernel reports
  // IORING_FEAT_MIN_TIMEOUT) turns a wait_for > 1 into a bounded
  // batching window: accumulate up to wait_for completions for that
  // long, then return whatever arrived — and if nothing arrived at all,
  // fall back to waiting for the first completion up to `timeout`.
  // Returns 0, or -EBUSY when the kernel wants the CQ drained first.
  int flush(unsigned wait_for, const __kernel_timespec* timeout,
            unsigned min_wait_usec = 0) {
    unsigned enter_flags = 0;
    GetEventsArg arg{};
    const void* argp = nullptr;
    size_t argsz = 0;
    if (wait_for > 0) {
      enter_flags |= IORING_ENTER_GETEVENTS;
      if (timeout) {
        arg.ts = reinterpret_cast<uint64_t>(timeout);
        if (params.features & IORING_FEAT_MIN_TIMEOUT) {
          arg.min_wait_usec = min_wait_usec;
        }
        enter_flags |= IORING_ENTER_EXT_ARG;
        argp = &arg;
        argsz = sizeof arg;
      }
    }
    while (true) {
      const int rc =
          sys_uring_enter(fd, to_submit, wait_for, enter_flags, argp, argsz);
      if (rc >= 0) {
        to_submit -= static_cast<unsigned>(rc);
        if (to_submit == 0) return 0;
        continue;  // partial SQ accept: push the rest through
      }
      const int err = errno;
      if (err == EINTR) continue;
      if (err == ETIME) return 0;  // bounded wait expired
      if (err == EBUSY || err == EAGAIN) return -EBUSY;
      return -err;
    }
  }
};

// Dispatch-thread user_data vocabulary: token 0 is the eventfd read,
// the top bit marks ASYNC_CANCEL completions, everything else is a
// socket's (never reused) token.
constexpr uint64_t kUdEventFd = 0;
constexpr uint64_t kCancelBit = 1ull << 63;

constexpr unsigned kBufGroup = 0;
// Bytes the kernel prepends to each provided buffer before the payload:
// the recvmsg_out header plus the reserved source-address space.
constexpr size_t kRecvHeadroom =
    sizeof(io_uring_recvmsg_out) + sizeof(sockaddr_in);

// Submission-queue entries per ring (recv and send rings each).
constexpr unsigned kRingEntries = 256;

bool probe_uring() {
  if (const char* env = std::getenv("MAREA_URING")) {
    if (std::string_view(env) == "off") return false;
  }
  io_uring_params p{};
  int fd = sys_uring_setup(4, &p);
  if (fd < 0) return false;
  bool ok = (p.features & IORING_FEAT_EXT_ARG) != 0 &&
            (p.features & IORING_FEAT_NODROP) != 0;
  if (ok) {
    std::vector<uint8_t> mem(
        sizeof(io_uring_probe) + 64 * sizeof(io_uring_probe_op), 0);
    auto* probe = reinterpret_cast<io_uring_probe*>(mem.data());
    if (sys_uring_register(fd, IORING_REGISTER_PROBE, probe, 64) != 0) {
      ok = false;
    } else {
      auto op_ok = [&](unsigned op) {
        return op <= probe->last_op &&
               (probe->ops[op].flags & IO_URING_OP_SUPPORTED) != 0;
      };
      // SEND_ZC (kernel 6.0) is the cheapest witness that multishot
      // recvmsg and user-mapped provided buffer rings are all present.
      ok = op_ok(IORING_OP_RECVMSG) && op_ok(IORING_OP_SENDMSG) &&
           op_ok(IORING_OP_ASYNC_CANCEL) &&
           probe->last_op >= IORING_OP_SEND_ZC;
    }
  }
  if (ok) {
    // The registration itself is the real capability test.
    const size_t len = 16 * sizeof(io_uring_buf);
    void* ring = mmap(nullptr, len, PROT_READ | PROT_WRITE,
                      MAP_ANONYMOUS | MAP_PRIVATE, -1, 0);
    if (ring == MAP_FAILED) {
      ok = false;
    } else {
      io_uring_buf_reg reg{};
      reg.ring_addr = reinterpret_cast<uint64_t>(ring);
      reg.ring_entries = 16;
      reg.bgid = 0;
      ok = sys_uring_register(fd, IORING_REGISTER_PBUF_RING, &reg, 1) == 0;
      if (ok) sys_uring_register(fd, IORING_UNREGISTER_PBUF_RING, &reg, 1);
      munmap(ring, len);
    }
  }
  ::close(fd);
  return ok;
}

}  // namespace

bool uring_supported() {
  static const bool supported = probe_uring();
  return supported;
}


struct UringTransport::Core {
  Ring recv_ring;  // SQ produced only by the dispatch thread
  Ring send_ring;  // guarded by send_mu
  std::mutex send_mu;

  int event_fd = -1;
  uint64_t efd_buf = 0;
  bool efd_armed = false;  // dispatch thread only

  // Provided-buffer ring: entry bid i is backed by buf_leases[i], a
  // pooled FramePool slab the kernel writes datagrams into directly.
  io_uring_buf_ring* buf_ring = nullptr;
  size_t buf_ring_len = 0;
  unsigned buf_entries = 0;
  size_t buf_len = 0;
  std::vector<FrameLease> buf_leases;  // dispatch thread only after init
  uint16_t buf_tail = 0;
  // The name/control space reservations every multishot recvmsg reads;
  // outlives every armed request.
  msghdr recv_template{};

  // Sockets to arm (open) or cancel (closed), handed to the dispatcher.
  std::mutex mu;
  std::vector<SocketPtr> pending;
  // Sockets with a multishot armed, by token (dispatch thread only). The
  // reference keeps the fd open until the terminal CQE.
  std::unordered_map<uint64_t, SocketPtr> armed;

  std::atomic<bool> running{false};
  std::thread dispatcher;
  // Recv-side setup handshake: the dispatcher thread creates the recv
  // ring (it must be the DEFER_TASKRUN single issuer) and reports an
  // empty string on success or the failure reason; the ctor blocks on
  // the future so construction still throws with the real cause.
  std::promise<std::string> init_result;

  void wake() {
    const uint64_t one = 1;
    ssize_t n = ::write(event_fd, &one, sizeof one);
    (void)n;
  }

  void post(const SocketPtr& s) {
    {
      std::lock_guard lock(mu);
      pending.push_back(s);
    }
    wake();
  }

  // Re-adds bid to the provided-buffer ring (the CQE consumed its
  // entry). The address is re-read from the lease: a recycled slab and
  // a freshly acquired one publish the same way.
  //
  // The entry array is indexed through a raw cast, NOT br->bufs: under
  // C++ the uapi __DECLARE_FLEX_ARRAY expansion lands `bufs` at offset
  // 8 instead of 0 (a zero-size struct member has size 1 in C++), which
  // silently shifts every entry 8 bytes off the kernel's ABI. Entry 0
  // overlays the reserved header words; only its addr/len/bid fields
  // are written so the tail word (offset 14) is never clobbered.
  void publish_buf(unsigned bid) {
    io_uring_buf* e = reinterpret_cast<io_uring_buf*>(buf_ring) +
                      (buf_tail & (buf_entries - 1));
    e->addr = reinterpret_cast<uint64_t>(buf_leases[bid].buffer().data());
    e->len = static_cast<unsigned>(buf_len);
    e->bid = static_cast<uint16_t>(bid);
    ++buf_tail;
    std::atomic_ref<uint16_t>(buf_ring->tail)
        .store(buf_tail, std::memory_order_release);
  }

  void teardown() {
    recv_ring.destroy();
    send_ring.destroy();
    if (buf_ring) {
      munmap(buf_ring, buf_ring_len);
      buf_ring = nullptr;
    }
    if (event_fd >= 0) {
      ::close(event_fd);
      event_fd = -1;
    }
    pending.clear();
    armed.clear();
    buf_leases.clear();
  }
};

UringTransport::UringTransport(const std::string& local_ip,
                               LiveTransportOptions options)
    : LiveTransport(local_ip, options, "UringTransport"),
      core_(std::make_unique<Core>()) {
  if (!uring_supported()) {
    throw std::runtime_error(
        "UringTransport: io_uring is not supported on this kernel");
  }
  unsigned be = options_.uring_buf_ring < 8 ? 8 : options_.uring_buf_ring;
  while (be & (be - 1)) ++be;  // round up to a power of two

  Core& c = *core_;
  auto fail = [&](const std::string& what) {
    c.teardown();
    throw std::runtime_error("UringTransport: " + what);
  };
  // Send ring: submitted from arbitrary sender threads under send_mu,
  // so it can never be SINGLE_ISSUER.
  if (c.send_ring.init(kRingEntries, /*want_defer=*/false) != 0) {
    fail("send ring setup failed");
  }
  c.event_fd = eventfd(0, EFD_NONBLOCK);
  if (c.event_fd < 0) fail("eventfd failed");

  c.buf_entries = be;
  c.buf_len = options_.recv_buffer + kRecvHeadroom;
  c.buf_ring_len = be * sizeof(io_uring_buf);
  c.recv_template.msg_namelen = sizeof(sockaddr_in);

  // The recv ring, its provided-buffer registration and the initial
  // leases are all created at the top of dispatch_loop(), NOT here: the
  // thread that creates a DEFER_TASKRUN ring is its single issuer, and
  // the dispatcher is the thread that drives it. Block on the handshake
  // so a setup failure still throws from the constructor.
  std::future<std::string> ready = c.init_result.get_future();
  c.running = true;
  c.dispatcher = std::thread([this] { dispatch_loop(); });
  const std::string err = ready.get();
  if (!err.empty()) {
    c.running = false;
    c.dispatcher.join();
    fail(err);
  }
}

UringTransport::~UringTransport() {
  Core& c = *core_;
  detach_obs();
  c.running = false;
  c.wake();
  if (c.dispatcher.joinable()) c.dispatcher.join();
  // The dispatcher's shutdown pass cancelled and drained every armed
  // multishot, so no kernel request references the provided buffers or
  // socket fds anymore; teardown order is now free.
  c.teardown();
}

Status UringTransport::arm(const SocketPtr& s) {
  core_->post(s);
  return Status::ok();
}

void UringTransport::disarm(const SocketPtr& s) {
  core_->post(s);
}

// ---------------------------------------------------------------------------
// Send path: batched SQEs, one enter per flush
// ---------------------------------------------------------------------------

// Flushes `n` (<= kSendBatch) prepared datagrams as one SQE batch:
// stage, submit-and-wait in a single io_uring_enter, harvest the CQEs.
// Per-datagram transient pushback (EAGAIN/ENOBUFS/EINTR completions)
// and short SQ accepts resubmit the remainder under the shared retry
// contract (send_retry.h); hard per-datagram errors are dropped loudly.
size_t UringTransport::send_batch(int fd, mmsghdr* msgs, size_t n,
                                  size_t payload_bytes) {
  Core& c = *core_;
  std::lock_guard lock(c.send_mu);

  msghdr* pending[kSendBatch];
  for (size_t i = 0; i < n; ++i) pending[i] = &msgs[i].msg_hdr;
  size_t n_pending = n;
  size_t hard_failed = 0;
  int hard_errno = 0;

  const SendRetryResult r = retry_send_batches(
      n, SendRetryPolicy{}, [&](size_t, size_t) -> int {
        unsigned placed = 0;
        while (placed < n_pending) {
          io_uring_sqe* sqe = c.send_ring.get_sqe();
          if (!sqe) break;  // SQ full: short submit, tail next round
          sqe->opcode = IORING_OP_SENDMSG;
          sqe->fd = fd;
          sqe->addr = reinterpret_cast<uint64_t>(pending[placed]);
          sqe->user_data = placed;
          ++placed;
        }
        if (placed == 0) return -EAGAIN;
        stats_.uring_sqe_submitted.fetch_add(placed,
                                             std::memory_order_relaxed);
        msghdr* still[kSendBatch];
        size_t n_still = 0;
        int sent_ok = 0;
        int resolved_hard = 0;
        unsigned harvested = 0;
        while (harvested < placed) {
          const int rc = c.send_ring.flush(placed - harvested, nullptr);
          if (rc < 0 && rc != -EBUSY) return rc;  // enter itself failed
          unsigned ready = c.send_ring.cq_ready();
          for (unsigned i = 0; i < ready; ++i) {
            const io_uring_cqe* cqe = c.send_ring.cq_peek(i);
            const size_t idx = static_cast<size_t>(cqe->user_data);
            if (cqe->res >= 0) {
              ++sent_ok;
            } else {
              const int err = -cqe->res;
              if (err == EAGAIN || err == EWOULDBLOCK || err == ENOBUFS ||
                  err == EINTR) {
                still[n_still++] = pending[idx];
              } else {
                ++resolved_hard;
                ++hard_failed;
                hard_errno = err;
              }
            }
          }
          harvested += ready;
          c.send_ring.cq_advance(ready);
        }
        for (size_t i = placed; i < n_pending; ++i) {
          still[n_still++] = pending[i];
        }
        std::memcpy(pending, still, n_still * sizeof(msghdr*));
        n_pending = n_still;
        // Hard failures count as resolved progress so the retry loop
        // terminates; they are subtracted from the accepted total below.
        const int resolved = sent_ok + resolved_hard;
        return resolved > 0 ? resolved : -EAGAIN;
      });

  stats_.uring_short_submits.fetch_add(r.short_accepts,
                                       std::memory_order_relaxed);
  const size_t sent = r.accepted - hard_failed;
  return count_sent(sent, n - sent, hard_errno != 0 ? hard_errno : r.error,
                    payload_bytes);
}

// ---------------------------------------------------------------------------
// Receive path: the dispatch thread
// ---------------------------------------------------------------------------

void UringTransport::dispatch_loop() {
  Core& c = *core_;

  // Recv-side setup (see the constructor): this thread becomes the recv
  // ring's DEFER_TASKRUN single issuer, so the ring, the PBUF_RING
  // registration and the initial buffer leases are created here. On
  // failure the reason is handed back through the handshake and the
  // thread exits before the main loop; the constructor joins, tears
  // down, and throws.
  {
    std::string err;
    if (c.recv_ring.init(kRingEntries, /*want_defer=*/true) != 0) {
      err = "recv ring setup failed";
    }
    if (err.empty()) {
      void* ring = mmap(nullptr, c.buf_ring_len, PROT_READ | PROT_WRITE,
                        MAP_ANONYMOUS | MAP_PRIVATE, -1, 0);
      if (ring == MAP_FAILED) {
        err = "buffer ring mmap failed";
      } else {
        c.buf_ring = static_cast<io_uring_buf_ring*>(ring);
        io_uring_buf_reg reg{};
        reg.ring_addr = reinterpret_cast<uint64_t>(c.buf_ring);
        reg.ring_entries = c.buf_entries;
        reg.bgid = kBufGroup;
        if (sys_uring_register(c.recv_ring.fd, IORING_REGISTER_PBUF_RING,
                               &reg, 1) != 0) {
          err = "PBUF_RING register failed";
        }
      }
    }
    if (err.empty()) {
      c.buf_leases.reserve(c.buf_entries);
      for (unsigned i = 0; i < c.buf_entries; ++i) {
        FrameLease lease = frame_pool().acquire(c.buf_len);
        lease.buffer().resize(c.buf_len);
        c.buf_leases.push_back(std::move(lease));
        c.publish_buf(i);
      }
    }
    const bool failed = !err.empty();
    c.init_result.set_value(std::move(err));
    if (failed) return;
  }

  // Arms and cancels in hand-over order; dispatch thread only.
  std::vector<SocketPtr> todo;
  __kernel_timespec wait_ts{};
  wait_ts.tv_nsec = 100 * 1000 * 1000;  // shutdown/control backstop

  // Completion batching (kernels with IORING_FEAT_MIN_TIMEOUT): instead
  // of returning to userspace for every datagram, sleep until several
  // completions have accumulated or the batching window closes,
  // whichever is first. An idle ring still delivers the first datagram
  // immediately once its window expires (the kernel falls back to
  // wait-for-one), so sparse traffic pays at most one window of added
  // latency — while under load the window must exceed the per-socket
  // inter-arrival gap for batches to form (options_.uring_min_wait_us).
  const bool batch_wait =
      (c.recv_ring.params.features & IORING_FEAT_MIN_TIMEOUT) != 0 &&
      options_.uring_min_wait_us > 0;
  const unsigned wait_nr = batch_wait ? 8 : 1;
  const unsigned min_wait_usec = batch_wait ? options_.uring_min_wait_us : 0;

  // Arms every open socket and cancels every closed armed one in `todo`.
  // Whatever finds no SQE slot — the kernel refuses to take more
  // (-EBUSY) until the CQ is drained, i.e. under a receive flood — stays
  // queued for the next pass instead of being dropped.
  auto stage = [&] {
    size_t done = 0;
    for (; done < todo.size(); ++done) {
      const SocketPtr& s = todo[done];
      const bool closed = s->closed.load(std::memory_order_acquire);
      // An open socket already armed, or a closed one never armed (or
      // already retired), needs nothing.
      if (closed != (c.armed.count(s->token) > 0)) continue;
      io_uring_sqe* sqe = c.recv_ring.get_sqe();
      if (!sqe) {
        c.recv_ring.flush(0, nullptr);
        sqe = c.recv_ring.get_sqe();
        if (!sqe) break;
      }
      if (closed) {
        sqe->opcode = IORING_OP_ASYNC_CANCEL;
        sqe->fd = -1;
        sqe->addr = s->token;  // cancel by user_data
        sqe->user_data = kCancelBit | s->token;
        continue;
      }
      sqe->opcode = IORING_OP_RECVMSG;
      sqe->fd = s->fd;
      sqe->addr = reinterpret_cast<uint64_t>(&c.recv_template);
      sqe->ioprio = IORING_RECV_MULTISHOT;
      sqe->flags = IOSQE_BUFFER_SELECT;
      sqe->buf_group = kBufGroup;
      sqe->user_data = s->token;
      c.armed.emplace(s->token, s);
      stats_.uring_sqe_submitted.fetch_add(1, std::memory_order_relaxed);
    }
    todo.erase(todo.begin(), todo.begin() + static_cast<ptrdiff_t>(done));
  };

  auto handle_recv_cqe = [&](const io_uring_cqe* cqe) {
    const uint64_t token = cqe->user_data;
    if (token == kUdEventFd) {
      c.efd_armed = false;  // rearmed at the top of the loop
      return;
    }
    if (token & kCancelBit) return;  // bookkeeping rides the terminal CQE
    auto it = c.armed.find(token);
    const SocketPtr s = it != c.armed.end() ? it->second : nullptr;
    int bid = (cqe->flags & IORING_CQE_F_BUFFER)
                  ? static_cast<int>(cqe->flags >> IORING_CQE_BUFFER_SHIFT)
                  : -1;
    if (bid >= static_cast<int>(c.buf_entries)) {
      // Defensive: a bid outside the registered ring would index out of
      // buf_leases. Should be impossible; never trust it.
      stats_.recv_errors.fetch_add(1, std::memory_order_relaxed);
      bid = -1;
    }
    if (bid >= 0) {
      FrameLease& lease = c.buf_leases[bid];
      if (cqe->res >= 0 && s) {
        const uint8_t* base = lease.buffer().data();
        const auto* out = reinterpret_cast<const io_uring_recvmsg_out*>(base);
        Address from{0, 0};
        if (out->namelen >= sizeof(sockaddr_in)) {
          const auto* sa = reinterpret_cast<const sockaddr_in*>(
              base + sizeof(io_uring_recvmsg_out));
          from = Address{ntohl(sa->sin_addr.s_addr), ntohs(sa->sin_port)};
        }
        deliver(*s, from, out->payloadlen, (out->flags & MSG_TRUNC) != 0,
                lease, kRecvHeadroom);
        if (!lease.valid()) {
          // The filled slab left with the handler; a fresh pooled slab
          // takes its place in the buffer ring.
          lease = frame_pool().acquire(c.buf_len);
          lease.buffer().resize(c.buf_len);
        }
      }
      c.publish_buf(static_cast<unsigned>(bid));
      stats_.uring_buf_ring_refills.fetch_add(1, std::memory_order_relaxed);
    }
    if (!s) return;
    const bool closed = s->closed.load(std::memory_order_acquire);
    if (cqe->res < 0 && !closed) {
      const int err = -cqe->res;
      // ENOBUFS = buffer ring momentarily empty (datagram stays queued;
      // the rearm below redelivers); ECANCELED is shutdown noise.
      if (err != ENOBUFS && err != ECANCELED) {
        stats_.recv_errors.fetch_add(1, std::memory_order_relaxed);
        trace_drop(obs::TraceEvent::kDrop, static_cast<uint64_t>(err), 0);
      }
    }
    if (!(cqe->flags & IORING_CQE_F_MORE)) {
      // Terminal CQE: a closed socket retires (its fd closes with the
      // last reference), an open one re-arms.
      c.armed.erase(it);
      if (!closed) todo.push_back(s);
    }
  };

  auto reap = [&] {
    unsigned total = 0;
    for (unsigned ready; (ready = c.recv_ring.cq_ready()) > 0;
         total += ready) {
      for (unsigned i = 0; i < ready; ++i) {
        handle_recv_cqe(c.recv_ring.cq_peek(i));
      }
      c.recv_ring.cq_advance(ready);
    }
    if (total > 0) {
      stats_.uring_cqe_batch.fetch_add(1, std::memory_order_relaxed);
      stats_.recv_batches.fetch_add(1, std::memory_order_relaxed);
    }
  };

  while (c.running.load(std::memory_order_acquire)) {
    {
      std::lock_guard lock(c.mu);
      todo.insert(todo.end(), c.pending.begin(), c.pending.end());
      c.pending.clear();
    }
    stage();
    if (!c.efd_armed) {
      if (io_uring_sqe* sqe = c.recv_ring.get_sqe()) {
        sqe->opcode = IORING_OP_READ;
        sqe->fd = c.event_fd;
        sqe->addr = reinterpret_cast<uint64_t>(&c.efd_buf);
        sqe->len = sizeof c.efd_buf;
        sqe->user_data = kUdEventFd;
        c.efd_armed = true;
      }
    }
    // Zero-syscall steady state: when completions are already queued and
    // nothing is staged for submission, drain them without entering the
    // kernel at all. Only an empty CQ (or staged arms/cancels) costs an
    // io_uring_enter, which submits everything AND waits (bounded) for
    // the next completion.
    if (c.recv_ring.to_submit > 0 || c.recv_ring.cq_ready() == 0) {
      c.recv_ring.flush(wait_nr, &wait_ts, min_wait_usec);
    }
    reap();
  }

  // Shutdown: close and cancel every armed multishot and reap until the
  // terminal CQEs retire them all, so no kernel request can touch a
  // provided buffer or socket fd after the destructor tears the rings
  // down.
  todo.clear();
  for (auto& [token, s] : c.armed) {
    s->closed.store(true, std::memory_order_release);
    todo.push_back(s);
  }
  for (int rounds = 0; rounds < 50 && !c.armed.empty(); ++rounds) {
    stage();
    c.recv_ring.flush(1, &wait_ts);
    reap();
  }
}

}  // namespace marea::transport
