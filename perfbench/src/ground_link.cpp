// ground_link_{epoll,uring}: real loopback UDP in one process, open loop.
// A flight container (127.0.0.1) publishes GpsFix; a ground container
// (127.0.0.2, unicast) runs a validating subscriber and a one-shard
// GatewayService that fans every update out to 64 external subscribers
// spread over 4 benchmark-owned sink sockets, drained by one recvmmsg
// thread. A generator thread posts each publish at its due time with
// absolute-deadline sleeps. Latency = sink arrival - due time. One op =
// one published GpsFix.
#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstring>
#include <future>
#include <memory>
#include <thread>

#include "encoding/codec.h"
#include "middleware/container.h"
#include "sched/thread_pool.h"
#include "services/gateway_service.h"
#include "sim_common.h"
#include "transport/live_transport.h"
#include "util/logging.h"
#include "workloads.h"

namespace perfbench {
namespace {

using marea::Buffer;
using marea::enc::Value;
using marea::sched::Priority;
using marea::sched::Task;
using marea::services::GpsFix;

constexpr int kSubscribers = 64;
constexpr int kSinks = 4;
constexpr int kSetupRepeats = 5;
constexpr double kNominalHz = 200;
constexpr double kPeakHz = 2000;
constexpr double kLadderStep = 1.25;
constexpr double kLimitP99Us = 5000;
constexpr double kLimitErrorRate = 0.001;

// --- executor decorator --------------------------------------------------------
// Forwards to the benchmark-owned ThreadPoolExecutor. While tracing is on
// it wraps each task to record its queue wait (wall time from post, or
// from the due time of a scheduled task) and a sched span around the run.
// While tracing is off tasks pass through unwrapped: re-wrapping a Task
// would spill its inline buffer to the heap and inflate allocs_per_op.
class TracedExecutor final : public marea::sched::Executor {
 public:
  explicit TracedExecutor(marea::sched::ThreadPoolExecutor& inner)
      : inner_(inner) {}

  void post(Priority p, Task task, marea::Duration cost) override {
    if (!tracing_on()) {
      inner_.post(p, std::move(task), cost);
      return;
    }
    inner_.post(p, wrap(p, wall_ns(), std::move(task)), cost);
  }
  marea::sched::TaskTimerId schedule(marea::Duration delay, Priority p,
                                     Task task,
                                     marea::Duration cost) override {
    if (!tracing_on()) return inner_.schedule(delay, p, std::move(task), cost);
    return inner_.schedule(delay, p, wrap(p, wall_ns() + delay.ns, std::move(task)),
                           cost);
  }
  void cancel(marea::sched::TaskTimerId id) override { inner_.cancel(id); }
  const marea::Clock& clock() const override { return inner_.clock(); }

  struct Waits {
    std::atomic<int64_t> ns[marea::sched::kPriorityCount] = {};
    std::atomic<uint64_t> count[marea::sched::kPriorityCount] = {};
    std::atomic<int64_t> max_ns{0};
    std::atomic<uint64_t> tasks{0};
  };
  Waits waits;

 private:
  Task wrap(Priority p, int64_t due_ns, Task task) {
    return Task([this, p, due_ns, t = std::move(task)]() mutable {
      const int64_t wait = std::max<int64_t>(0, wall_ns() - due_ns);
      const auto k = static_cast<size_t>(p);
      waits.ns[k].fetch_add(wait, std::memory_order_relaxed);
      waits.count[k].fetch_add(1, std::memory_order_relaxed);
      waits.tasks.fetch_add(1, std::memory_order_relaxed);
      int64_t m = waits.max_ns.load(std::memory_order_relaxed);
      while (wait > m &&
             !waits.max_ns.compare_exchange_weak(m, wait,
                                                 std::memory_order_relaxed)) {
      }
      Span s(Layer::kSched, 0);
      t();
    });
  }

  marea::sched::ThreadPoolExecutor& inner_;
};

// Runs `fn` on the executor's worker and waits for it (the containers'
// state may only be touched from their own executor).
template <typename Fn>
void on_executor(marea::sched::Executor& ex, Fn fn) {
  // Shared so the worker's set_value can finish after this frame returns.
  auto done = std::make_shared<std::promise<void>>();
  std::future<void> f = done->get_future();
  ex.post(Priority::kBackground, [&fn, done] {
    fn();
    done->set_value();
  });
  f.wait();
}

// --- shared run state ----------------------------------------------------------
// Written by the generator before it posts update k; read by the sink.
struct Schedule {
  std::vector<std::atomic<int64_t>> due_ns;
  explicit Schedule(size_t n) : due_ns(n) {}
};

struct PhaseStats {
  std::vector<float> lat_us;      // one per received (update, subscriber)
  std::vector<double> gen_lag_us;  // one per update
  uint64_t first = 0, last = 0;    // pub index range [first, last)
  int64_t last_arrival_ns = 0;
};

class GpsSource final : public marea::mw::Service {
 public:
  explicit GpsSource(uint64_t seed) : Service("flight_gps"), seed_(seed) {}
  marea::Status on_start() override {
    auto h = provide_variable<GpsFix>("gps.position");
    if (!h.ok()) return h.status();
    gps_ = *h;
    return marea::Status::ok();
  }
  // Runs on the flight executor.
  void publish(uint64_t k) {
    Value v;
    {
      Span s(Layer::kToValue, k);
      v = marea::enc::to_value(gps_fix_at(seed_, k));
    }
    Span s(Layer::kMiddleware, k);
    if (!gps_.publish(std::move(v)).is_ok()) ++publish_errors;
  }
  std::atomic<uint64_t> publish_errors{0};

 private:
  uint64_t seed_;
  marea::mw::VariableHandle gps_;
};

// Ground-side subscriber: every fix must be the seeded one, in order.
class Validator final : public marea::mw::Service {
 public:
  explicit Validator(uint64_t seed) : Service("ground_validator"), seed_(seed) {}
  marea::Status on_start() override {
    return subscribe_variable(
        "gps.position", marea::enc::descriptor_of<GpsFix>(),
        [this](const Value& v, const marea::mw::SampleInfo& info) {
          GpsFix f{};
          bool ok = false;
          {
            Span s(Layer::kFromValue, info.seq);
            ok = marea::enc::from_value(v, f);
          }
          Span s(Layer::kHandler, info.seq);
          const uint64_t k = static_cast<uint64_t>(f.time_ns);
          if (!ok || hash_fix(0, f) != hash_fix(0, gps_fix_at(seed_, k)) ||
              (received.load() && k <= last_k_)) {
            bad.fetch_add(1);
            return;
          }
          last_k_ = k;
          received.fetch_add(1);
        });
  }
  std::atomic<uint64_t> received{0};
  std::atomic<uint64_t> bad{0};

 private:
  uint64_t seed_;
  uint64_t last_k_ = 0;
};

// The 64 external subscribers: 4 sockets, 16 subscribers each, drained by
// one recvmmsg thread that parses MGW1 frames and checks every value.
class SinkSet {
 public:
  // Values of updates below `checked` are precomputed per phase; the
  // table is sized once here because the sink thread reads it.
  SinkSet(uint64_t seed, Schedule& sched, size_t max_updates, size_t checked)
      : seed_(seed), sched_(sched), expected_(checked), copies_(max_updates) {}
  ~SinkSet() {
    stop();
    for (int fd : fds_) ::close(fd);
  }
  SinkSet(const SinkSet&) = delete;
  SinkSet& operator=(const SinkSet&) = delete;

  bool open(const char* ip) {
    for (int i = 0; i < kSinks; ++i) {
      int fd = ::socket(AF_INET, SOCK_DGRAM | SOCK_NONBLOCK, 0);
      if (fd < 0) return false;
      fds_.push_back(fd);
      int rcvbuf = 8 << 20;
      ::setsockopt(fd, SOL_SOCKET, SO_RCVBUF, &rcvbuf, sizeof rcvbuf);
      sockaddr_in a{};
      a.sin_family = AF_INET;
      ::inet_pton(AF_INET, ip, &a.sin_addr);
      if (::bind(fd, reinterpret_cast<sockaddr*>(&a), sizeof a) != 0) return false;
      socklen_t len = sizeof a;
      if (::getsockname(fd, reinterpret_cast<sockaddr*>(&a), &len) != 0) {
        return false;
      }
      addrs_.push_back({marea::transport::ipv4_host(ip), ntohs(a.sin_port)});
    }
    return true;
  }
  const std::vector<marea::transport::Address>& addrs() const { return addrs_; }

  void start() {
    running_.store(true);
    thread_ = std::thread([this] { loop(); });
  }
  void stop() {
    running_.store(false);
    if (thread_.joinable()) thread_.join();
  }

  // Expected tagged value bytes of update k, precomputed before a window
  // opens so checking a datagram allocates nothing.
  void precompute(uint64_t from, uint64_t to) {
    to = std::min<uint64_t>(to, expected_.size());
    for (uint64_t k = from; k < to; ++k) {
      if (!expected_[k].empty()) continue;
      expected_[k] = marea::enc::encode_tagged(
          marea::enc::to_value(gps_fix_at(seed_, k)));
    }
  }
  // Switches where latencies go; only between phases (traffic quiescent).
  void set_phase(PhaseStats* p) { phase_.store(p, std::memory_order_release); }

  uint64_t datagrams() const { return datagrams_.load(std::memory_order_acquire); }
  uint64_t copies(uint64_t k) const {
    return k < copies_.size() ? copies_[k].load(std::memory_order_relaxed) : 0;
  }
  uint64_t bad() const { return bad_.load(); }
  uint64_t misordered() const { return misordered_.load(); }

 private:
  static constexpr int kBatch = 64;
  static constexpr size_t kMaxDgram = 2048;

  void loop() {
    std::vector<uint8_t> bufs(kBatch * kMaxDgram);
    mmsghdr msgs[kBatch];
    iovec iov[kBatch];
    pollfd pfd[kSinks];
    for (int i = 0; i < kSinks; ++i) pfd[i] = {fds_[static_cast<size_t>(i)], POLLIN, 0};
    while (running_.load(std::memory_order_relaxed)) {
      if (::poll(pfd, kSinks, 5) <= 0) continue;
      for (int s = 0; s < kSinks; ++s) {
        if (!(pfd[s].revents & POLLIN)) continue;
        while (true) {
          for (int i = 0; i < kBatch; ++i) {
            iov[i] = {bufs.data() + static_cast<size_t>(i) * kMaxDgram, kMaxDgram};
            std::memset(&msgs[i], 0, sizeof msgs[i]);
            msgs[i].msg_hdr.msg_iov = &iov[i];
            msgs[i].msg_hdr.msg_iovlen = 1;
          }
          const int n = ::recvmmsg(pfd[s].fd, msgs, kBatch, MSG_DONTWAIT, nullptr);
          if (n <= 0) break;
          const int64_t now = wall_ns();
          for (int i = 0; i < n; ++i) {
            on_datagram(s, bufs.data() + static_cast<size_t>(i) * kMaxDgram,
                        msgs[i].msg_len, now);
          }
          datagrams_.fetch_add(static_cast<uint64_t>(n), std::memory_order_release);
          if (n < kBatch) break;
        }
      }
    }
  }

  void on_datagram(int sink, const uint8_t* p, size_t len, int64_t now) {
    if (len < 24) {
      bad_.fetch_add(1);
      return;
    }
    marea::ByteReader r(marea::BytesView(p, len));
    const uint32_t magic = r.u32();
    const uint16_t topic = r.u16();
    r.u16();
    const uint64_t gw_seq = r.u64();
    r.i64();
    const marea::BytesView value(p + 24, len - 24);
    if (magic != marea::services::kGatewayMagic || topic != 0 || gw_seq == 0) {
      bad_.fetch_add(1);
      return;
    }
    if (gw_seq < last_seq_[sink]) misordered_.fetch_add(1);
    last_seq_[sink] = gw_seq;
    // Gateway seq counts the samples the ground received; map it to the
    // publisher's update index, resyncing (by decoding) when a sample
    // went missing between the containers.
    uint64_t k = gw_seq + offset_;
    if (!matches(sink, k, value)) {
      auto v = marea::enc::decode_tagged(value);
      GpsFix f{};
      if (!v.ok() || !marea::enc::from_value(*v, f) ||
          hash_fix(0, f) != hash_fix(0, gps_fix_at(seed_, static_cast<uint64_t>(f.time_ns)))) {
        bad_.fetch_add(1);
        return;
      }
      k = static_cast<uint64_t>(f.time_ns);
      offset_ = k - gw_seq;
      cache_k_[sink] = k;
      cache_[sink].assign(value.begin(), value.end());
    }
    if (k < copies_.size()) copies_[k].fetch_add(1, std::memory_order_relaxed);
    PhaseStats* ph = phase_.load(std::memory_order_acquire);
    if (ph && k >= ph->first && k < ph->last) {
      const int64_t due = sched_.due_ns[k].load(std::memory_order_relaxed);
      // Capacity covers every copy of every update; never grow here.
      if (ph->lat_us.size() < ph->lat_us.capacity()) {
        ph->lat_us.push_back(static_cast<float>(static_cast<double>(now - due) / 1e3));
      }
      ph->last_arrival_ns = now;
    }
  }

  // Precomputed expectation first, else the value this socket validated
  // last (16 copies of each update land on every socket).
  bool matches(int sink, uint64_t k, marea::BytesView value) const {
    const Buffer* e = nullptr;
    if (k < expected_.size() && !expected_[k].empty()) {
      e = &expected_[k];
    } else if (k == cache_k_[sink]) {
      e = &cache_[sink];
    }
    return e && e->size() == value.size() &&
           std::memcmp(e->data(), value.data(), e->size()) == 0;
  }

  uint64_t seed_;
  Schedule& sched_;
  std::vector<int> fds_;
  std::vector<marea::transport::Address> addrs_;
  std::vector<Buffer> expected_;
  std::vector<std::atomic<uint8_t>> copies_;
  uint64_t last_seq_[kSinks] = {};
  uint64_t cache_k_[kSinks] = {UINT64_MAX, UINT64_MAX, UINT64_MAX, UINT64_MAX};
  Buffer cache_[kSinks];
  uint64_t offset_ = 0;
  std::atomic<PhaseStats*> phase_{nullptr};
  std::atomic<uint64_t> datagrams_{0};
  std::atomic<uint64_t> bad_{0};
  std::atomic<uint64_t> misordered_{0};
  std::atomic<bool> running_{false};
  std::thread thread_;
};

// --- one deployment ------------------------------------------------------------
struct World {
  // Declaration order is teardown order reversed: containers die first,
  // then executors (joined), then the sinks, the transports and last the
  // registries the transports' collectors live in.
  marea::obs::Observability flight_obs, ground_obs;
  std::unique_ptr<marea::transport::LiveTransport> flight_t, ground_t;
  std::unique_ptr<SinkSet> sinks;
  std::unique_ptr<marea::sched::ThreadPoolExecutor> flight_pool, ground_pool;
  std::unique_ptr<TracedExecutor> flight_ex, ground_ex;
  std::unique_ptr<marea::mw::ServiceContainer> flight, ground;
  GpsSource* source = nullptr;
  Validator* validator = nullptr;
  marea::services::GatewayService* gateway = nullptr;
  uint64_t next_k = 0;  // next update index to publish

  ~World() {
    if (sinks) sinks->stop();
    if (flight && ground) {
      on_executor(*flight_ex, [&] { flight->stop(); });
      on_executor(*ground_ex, [&] { ground->stop(); });
      flight_pool->drain();
      ground_pool->drain();
      std::this_thread::sleep_for(std::chrono::milliseconds(100));
      flight_pool->drain();
      ground_pool->drain();
    }
    flight.reset();
    ground.reset();
  }
};

// Result of trying to build a world: ok, environment skip, or failure.
struct BuildResult {
  bool ok = false;
  std::string skip;   // environment cannot run this workload
  std::string error;  // the workload is broken
};

// Publishes the next `n` updates open loop at `hz`, the first due 2 ms
// from now. Returns after the last post.
void generate(World& w, Schedule& sched, PhaseStats* ph, uint64_t n, double hz) {
  const int64_t period = static_cast<int64_t>(1e9 / hz);
  OpenLoopSchedule s{wall_ns() + 2'000'000, period};
  const uint64_t first = w.next_k;
  std::thread gen([&] {
    prctl(PR_SET_TIMERSLACK, 1UL);  // wake at the due time, not 50 us later
    for (uint64_t i = 0; i < n; ++i) {
      const uint64_t k = first + i;
      const int64_t due = s.due_ns(i);
      timespec ts{static_cast<time_t>(due / 1000000000), static_cast<long>(due % 1000000000)};
      while (clock_nanosleep(CLOCK_MONOTONIC, TIMER_ABSTIME, &ts, nullptr) == EINTR) {
      }
      if (ph) ph->gen_lag_us.push_back(static_cast<double>(wall_ns() - due) / 1e3);
      sched.due_ns[k].store(due, std::memory_order_relaxed);
      GpsSource* src = w.source;
      marea::sched::Executor& ex = *w.flight_ex;
      ex.post(Priority::kVariable, [src, k] { src->publish(k); });
    }
  });
  gen.join();
  w.next_k = first + n;
}

// Waits until the sink has seen every copy it is going to: the datagram
// count stops moving for 20 ms (or 2 s pass).
void drain(SinkSet& sinks) {
  uint64_t last = sinks.datagrams();
  int64_t still_since = wall_ns();
  const int64_t give_up = wall_ns() + 2'000'000'000;
  while (wall_ns() < give_up) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
    const uint64_t now = sinks.datagrams();
    if (now != last) {
      last = now;
      still_since = wall_ns();
    } else if (wall_ns() - still_since > 20'000'000) {
      return;
    }
  }
}

BuildResult build(World& w, const RunOptions& opt,
                  marea::transport::TransportBackend backend, Schedule& sched,
                  size_t max_updates, size_t checked) {
  BuildResult br;
  const bool uring = backend == marea::transport::TransportBackend::kUring;
  marea::transport::TransportConfig cfg;
  cfg.backend = backend;
  cfg.options.recv_buffer = 8192;
  try {
    w.flight_t = marea::transport::make_live_transport("127.0.0.1", cfg);
    w.ground_t = marea::transport::make_live_transport("127.0.0.2", cfg);
  } catch (const std::exception& e) {
    if (uring) {
      br.error = std::string("io_uring supported but transport failed: ") + e.what();
    } else {
      br.skip = std::string("UDP sockets unavailable: ") + e.what();
    }
    return br;
  }
  w.sinks = std::make_unique<SinkSet>(opt.seed, sched, max_updates, checked);
  if (!w.sinks->open("127.0.0.3")) {
    br.skip = "sink sockets unavailable";
    return br;
  }
  w.flight_t->set_obs(&w.flight_obs, "net");
  w.ground_t->set_obs(&w.ground_obs, "net");
  w.flight_pool = std::make_unique<marea::sched::ThreadPoolExecutor>(1);
  w.ground_pool = std::make_unique<marea::sched::ThreadPoolExecutor>(1);
  w.flight_ex = std::make_unique<TracedExecutor>(*w.flight_pool);
  w.ground_ex = std::make_unique<TracedExecutor>(*w.ground_pool);

  marea::mw::ContainerConfig fc;
  fc.id = 1;
  fc.node_name = "flight";
  fc.data_port = 0;
  fc.use_multicast = false;
  fc.obs = &w.flight_obs;
  marea::mw::ContainerConfig gc = fc;
  gc.id = 2;
  gc.node_name = "ground";
  gc.obs = &w.ground_obs;
  w.flight = std::make_unique<marea::mw::ServiceContainer>(fc, *w.flight_t, *w.flight_ex);
  w.ground = std::make_unique<marea::mw::ServiceContainer>(gc, *w.ground_t, *w.ground_ex);

  auto src = std::make_unique<GpsSource>(opt.seed);
  w.source = src.get();
  (void)w.flight->add_service(std::move(src));
  auto val = std::make_unique<Validator>(opt.seed);
  w.validator = val.get();
  (void)w.ground->add_service(std::move(val));
  marea::services::GatewayServiceOptions go;
  go.topics = {{"gps.position", marea::enc::descriptor_of<GpsFix>()}};
  go.fanout.shards = 1;
  go.fanout.max_topics = 1;
  auto gw = std::make_unique<marea::services::GatewayService>(
      std::vector<marea::transport::Transport*>{w.ground_t.get()}, go);
  w.gateway = gw.get();
  for (int i = 0; i < kSubscribers; ++i) {
    w.gateway->add_subscriber(w.sinks->addrs()[static_cast<size_t>(i % kSinks)], 0x1);
  }
  (void)w.ground->add_service(std::move(gw));

  bool bound = false;
  on_executor(*w.flight_ex, [&] { bound = w.flight->bind_transport().is_ok(); });
  on_executor(*w.ground_ex, [&] { bound = bound && w.ground->bind_transport().is_ok(); });
  if (!bound) {
    if (uring) {
      br.error = "io_uring transport could not bind the data port";
    } else {
      br.skip = "UDP bind failed";
    }
    return br;
  }
  std::vector<marea::transport::Address> peers = {
      {marea::transport::ipv4_host("127.0.0.1"), w.flight->config().data_port},
      {marea::transport::ipv4_host("127.0.0.2"), w.ground->config().data_port}};
  w.flight_t->set_peers(peers);
  w.ground_t->set_peers(peers);
  w.sinks->start();
  bool started = false;
  on_executor(*w.flight_ex, [&] { started = w.flight->start().is_ok(); });
  on_executor(*w.ground_ex, [&] { started = started && w.ground->start().is_ok(); });
  if (!started) {
    br.error = "containers failed to start";
    return br;
  }
  // Discovery and subscription binding: publish at the nominal rate until
  // the first update reaches a dashboard sink.
  const int64_t give_up = wall_ns() + 10'000'000'000;
  while (w.sinks->datagrams() == 0) {
    if (wall_ns() > give_up) {
      if (uring) {
        br.error = "no update reached the sinks within 10 s";
      } else {
        br.skip = "no UDP traffic crossed loopback within 10 s";
      }
      return br;
    }
    generate(w, sched, nullptr, 1, kNominalHz);
  }
  br.ok = true;
  return br;
}

struct PhaseResult {
  uint64_t updates = 0;
  uint64_t failed = 0;     // updates with fewer than 64 sink copies
  uint64_t pairs = 0;      // (update, subscriber) datagrams received
  double p50_us = 0, p99_us = 0;
  double gen_lag_p99_us = 0;
  double drain_lag_us = 0;  // last arrival after the last due time
  int64_t cpu_ns = 0;
  double cpu_per_op = 0;  // scaled, lower decile over the chunks
  uint64_t allocs = 0;
  uint64_t wire_bytes = 0;
  size_t samples = 0;
  size_t min_chunk_samples = 0;  // smallest population a p99 came from
};

// Values are checked against expectations built before the window opens
// (ladder steps past the table fall back to decoding), so the sink
// allocates nothing inside a fixed-rate window.
PhaseResult run_phase(World& w, Schedule& sched, double hz, double seconds,
                      PhaseStats& ph) {
  const uint64_t n = std::max<uint64_t>(1, static_cast<uint64_t>(hz * seconds));
  ph.first = w.next_k;
  ph.last = w.next_k + n;
  w.sinks->precompute(ph.first, ph.last);
  ph.lat_us.clear();
  ph.lat_us.reserve(n * kSubscribers + 1024);
  ph.gen_lag_us.clear();
  ph.gen_lag_us.reserve(n);
  w.sinks->set_phase(&ph);

  PhaseResult r;
  r.updates = n;
  const auto bytes = [&] {
    return w.flight_t->net_counters().bytes_sent + w.ground_t->net_counters().bytes_sent;
  };
  // Chunks of about one second, each drained before the next: CPU per op
  // is the median over chunks, so a burst of interference from outside
  // the process moves one chunk, not the figure.
  const uint64_t per_chunk = std::max<uint64_t>(1, static_cast<uint64_t>(hz));
  std::vector<double> chunk_cpu_per_op;
  std::vector<size_t> chunk_end;  // lat_us size after each chunk
  for (uint64_t done = 0; done < n;) {
    const uint64_t m = std::min(per_chunk, n - done);
    const double calib0 = calibration_cpu_ns();
    const uint64_t b0 = bytes();
    const uint64_t a0 = allocs_total() - calibration_allocs();
    const int64_t c0 = process_cpu_ns();
    generate(w, sched, &ph, m, hz);
    drain(*w.sinks);
    // The drain's 20 ms of quiet is idle time, not op cost.
    const int64_t c1 = process_cpu_ns();
    const uint64_t a1 = allocs_total() - calibration_allocs();
    const uint64_t b1 = bytes();
    r.cpu_ns += c1 - c0;
    r.allocs += a1 - a0;
    r.wire_bytes += b1 - b0;
    chunk_cpu_per_op.push_back(scaled_cpu_per_op(static_cast<double>(c1 - c0),
                                                 static_cast<double>(m),
                                                 0.5 * (calib0 + calibration_cpu_ns())));
    chunk_end.push_back(ph.lat_us.size());
    done += m;
  }
  r.cpu_per_op = cpu_low_decile(chunk_cpu_per_op);
  w.sinks->set_phase(nullptr);
  for (uint64_t k = ph.first; k < ph.last; ++k) {
    const uint64_t c = w.sinks->copies(k);
    r.pairs += c;
    if (c < kSubscribers) ++r.failed;
  }
  // Exact quantiles per one-second chunk, then the median over chunks: a
  // stall of the shared host lands in one chunk's tail, not the figure.
  std::vector<double> p50s, p99s;
  size_t begin = 0;
  r.samples = ph.lat_us.size();
  r.min_chunk_samples = SIZE_MAX;
  for (size_t end : chunk_end) {
    std::vector<double> lat(ph.lat_us.begin() + static_cast<std::ptrdiff_t>(begin),
                            ph.lat_us.begin() + static_cast<std::ptrdiff_t>(end));
    std::sort(lat.begin(), lat.end());
    p50s.push_back(quantile_sorted(lat, 0.5));
    p99s.push_back(quantile_sorted(lat, 0.99));
    r.min_chunk_samples = std::min(r.min_chunk_samples, lat.size());
    begin = end;
  }
  r.p50_us = median_of(p50s);
  r.p99_us = median_of(p99s);
  std::vector<double> lag = ph.gen_lag_us;
  std::sort(lag.begin(), lag.end());
  r.gen_lag_p99_us = quantile_sorted(lag, 0.99);
  r.drain_lag_us =
      static_cast<double>(ph.last_arrival_ns - sched.due_ns[ph.last - 1].load()) / 1e3;
  return r;
}

bool ladder_pass(const PhaseResult& r) {
  return r.p99_us <= kLimitP99Us &&
         static_cast<double>(r.failed) <= kLimitErrorRate * static_cast<double>(r.updates) &&
         r.drain_lag_us <= kLimitP99Us;
}

double per(double a, double b) { return b > 0 ? a / b : 0; }

}  // namespace

void run_ground_link(const RunOptions& opt, const std::string& backend_name,
                     Report& r) {
  marea::set_log_level(marea::LogLevel::kError);
  marea::transport::TransportBackend backend{};
  (void)marea::transport::parse_backend(backend_name, &backend);
  if (backend == marea::transport::TransportBackend::kUring &&
      !marea::transport::uring_supported()) {
    r.skip_reason = "io_uring unsupported on this kernel";
    return;
  }
  // Phase plan: untraced runs spend the time on the two fixed rates;
  // traced runs add a traced copy of the peak phase and the rate ladder.
  const double S = opt.seconds;
  const double nominal_s = opt.trace ? 0.15 * S : 0.45 * S;
  const double peak_s = opt.trace ? 0.15 * S : 0.45 * S;
  const double ladder_budget_s = 0.4 * S;
  const double step_s = 0.4;
  // Update indices a run can use: setup (at most 10 s at nominal) and
  // warm-up, the fixed-rate phases, and a ladder capped at 100 kHz.
  const size_t checked = static_cast<size_t>(kNominalHz * (nominal_s + 11) +
                                            kPeakHz * peak_s * 2) + 4096;
  size_t max_updates = checked;
  if (opt.trace) max_updates += static_cast<size_t>(ladder_budget_s * 100e3);
  Schedule sched(max_updates);

  std::unique_ptr<World> w;
  std::string skip, error;
  const int repeats = opt.trace ? 1 : kSetupRepeats;
  const double setup_s = median_setup_s(repeats, [&]() -> double {
    w.reset();
    if (!skip.empty() || !error.empty()) return 0;
    const int64_t t0 = wall_ns();
    w = std::make_unique<World>();
    w->next_k = 0;
    BuildResult br = build(*w, opt, backend, sched, max_updates, checked);
    skip = br.skip;
    error = br.error;
    return static_cast<double>(wall_ns() - t0) * 1e-9;
  });
  if (!error.empty()) {
    r.fail("ground_link_" + backend_name + ": " + error);
    return;
  }
  if (!skip.empty()) {
    r.skip_reason = skip;
    return;
  }
  // Later builds restart update numbering at 0; every build publishes the
  // same seeded stream, so due times and expected values stay consistent.

  PhaseStats warm, nominal, peak, traced_peak, step;
  run_phase(*w, sched, kNominalHz, 0.5, warm);  // warm-up, not reported
  const PhaseResult nom = run_phase(*w, sched, kNominalHz, nominal_s, nominal);
  const PhaseResult pk = run_phase(*w, sched, kPeakHz, peak_s, peak);

  uint64_t attempted = nom.updates + pk.updates;
  uint64_t failed = nom.failed + pk.failed;
  PhaseResult tpk;
  double max_rate = 0;
  if (opt.trace) {
    tracing_enable(true);
    tpk = run_phase(*w, sched, kPeakHz, peak_s, traced_peak);
    tracing_enable(false);
    // Rate ladder upward from peak: x1.25 until a step misses the limit,
    // then two bisection steps between the last pass and the first miss.
    const int64_t ladder_end = wall_ns() + static_cast<int64_t>(ladder_budget_s * 1e9);
    double pass = kPeakHz, fail = 0;
    for (double hz = kPeakHz * kLadderStep; wall_ns() < ladder_end; hz *= kLadderStep) {
      if (hz > 100e3 ||
          w->next_k + static_cast<uint64_t>(hz * step_s) + 1 >= max_updates) {
        break;
      }
      const PhaseResult s = run_phase(*w, sched, hz, step_s, step);
      if (!ladder_pass(s)) {
        fail = hz;
        break;
      }
      pass = hz;
    }
    for (int i = 0; i < 2 && fail > 0 && wall_ns() < ladder_end; ++i) {
      const double hz = std::sqrt(pass * fail);
      if (w->next_k + static_cast<uint64_t>(hz * step_s) + 1 >= max_updates) break;
      const PhaseResult s = run_phase(*w, sched, hz, step_s, step);
      (ladder_pass(s) ? pass : fail) = hz;
    }
    max_rate = pass;
  }
  // The ladder starts from peak only when peak itself meets the limits.
  if (opt.trace && !ladder_pass(pk)) max_rate = ladder_pass(nom) ? kNominalHz : 0;

  // --- output checks ---
  if (w->sinks->bad()) {
    r.fail(std::to_string(w->sinks->bad()) +
           " sink datagrams failed MGW1 parsing or value checks");
  }
  if (w->sinks->misordered()) {
    r.fail(std::to_string(w->sinks->misordered()) +
           " sink datagrams arrived with a falling gateway seq");
  }
  if (w->validator->bad.load()) {
    r.fail(std::to_string(w->validator->bad.load()) +
           " ground samples were not the published fix, or out of order");
  }
  if (w->source->publish_errors.load()) r.fail("flight publish() failed");
  r.attempted = attempted;
  r.failed = failed;

  // --- end-to-end ---
  const double ops = static_cast<double>(pk.updates);
  r.set("setup_s", setup_s);
  r.set("cpu_ns_per_op", pk.cpu_per_op);
  r.set("allocs_per_op", per(static_cast<double>(pk.allocs), ops));
  r.set("wire_bytes_per_op", per(static_cast<double>(pk.wire_bytes), ops));
  r.set("ok_ratio", 1.0 - per(static_cast<double>(failed), static_cast<double>(attempted)));
  if (!percentile_supported(nom.min_chunk_samples, 0.99) ||
      !percentile_supported(pk.min_chunk_samples, 0.99)) {
    r.fail("too few latency samples for p99");
  }
  r.set("lat_p50_us", nom.p50_us);
  r.set("lat_p99_us", nom.p99_us);
  r.set("e2e.lat_p99_us_peak", pk.p99_us);
  r.set("e2e.gw_delivery_ratio",
        per(static_cast<double>(pk.pairs), ops * kSubscribers));
  r.set("e2e.max_rate_hz", max_rate);
  r.set("e2e.latency_samples", static_cast<double>(nom.samples));
  r.set("bench.gen_lag_p99_us", pk.gen_lag_p99_us);
  if (!opt.trace) return;

  // --- per layer (traced peak phase; counters from the untraced one) ---
  const double tops = static_cast<double>(tpk.updates);
  LayerTotals lt[static_cast<size_t>(Layer::kCount)] = {};
  collect_layer_totals(lt);
  auto at = [&](Layer l) -> const LayerTotals& { return lt[static_cast<size_t>(l)]; };
  r.set("encoding.to_value_ns_per_op", per(static_cast<double>(at(Layer::kToValue).self_ns), tops));
  r.set("encoding.from_value_ns_per_delivery",
        per(static_cast<double>(at(Layer::kFromValue).self_ns),
            static_cast<double>(at(Layer::kFromValue).count)));
  r.set("encoding.presentation_allocs_per_op",
        per(static_cast<double>(at(Layer::kToValue).self_allocs + at(Layer::kFromValue).self_allocs),
            tops));
  r.set("middleware.publish_ns_per_op", per(static_cast<double>(at(Layer::kMiddleware).self_ns), tops));
  r.set("middleware.publish_allocs_per_op",
        per(static_cast<double>(at(Layer::kMiddleware).self_allocs), tops));
  r.set("services.handler_ns", per(static_cast<double>(at(Layer::kHandler).self_ns),
                                   static_cast<double>(at(Layer::kHandler).count)));
  r.set("sched.run_ns_per_task", per(static_cast<double>(at(Layer::kSched).total_ns),
                                     static_cast<double>(at(Layer::kSched).count)));
  int64_t self_sum = 0;
  for (const LayerTotals& t : lt) self_sum += t.self_ns;
  r.set("obs.trace_coverage", per(static_cast<double>(self_sum), static_cast<double>(tpk.cpu_ns)));
  r.set("obs.trace_overhead", per(tpk.cpu_per_op, pk.cpu_per_op) - 1.0);

  auto wait_us = [&](Priority p) {
    const auto k = static_cast<size_t>(p);
    uint64_t total = 0, count = 0;
    for (TracedExecutor* ex : {w->flight_ex.get(), w->ground_ex.get()}) {
      total += static_cast<uint64_t>(ex->waits.ns[k].load());
      count += ex->waits.count[k].load();
    }
    return per(static_cast<double>(total) / 1e3, static_cast<double>(count));
  };
  r.set("sched.wait_us.event", wait_us(Priority::kEvent));
  r.set("sched.wait_us.rpc", wait_us(Priority::kRpc));
  r.set("sched.wait_us.variable", wait_us(Priority::kVariable));
  r.set("sched.wait_us.file", wait_us(Priority::kFileTransfer));
  r.set("sched.max_wait_us",
        static_cast<double>(std::max(w->flight_ex->waits.max_ns.load(),
                                     w->ground_ex->waits.max_ns.load())) / 1e3);
  r.set("sched.tasks_per_op",
        per(static_cast<double>(w->flight_ex->waits.tasks.load() + w->ground_ex->waits.tasks.load()),
            tops));

  // Transport, pool, gateway and container counters over the whole run.
  const auto fnc = w->flight_t->net_counters();
  const auto gnc = w->ground_t->net_counters();
  const double all_ops = static_cast<double>(w->next_k);
  r.set("transport.frames_sent_per_op",
        per(static_cast<double>(fnc.frames_sent + gnc.frames_sent), all_ops));
  r.set("transport.recv_batches_per_op",
        per(static_cast<double>(fnc.recv_batches + gnc.recv_batches), all_ops));
  r.set("transport.frames_per_recv_batch",
        per(static_cast<double>(fnc.frames_received + gnc.frames_received),
            static_cast<double>(fnc.recv_batches + gnc.recv_batches)));
  r.set("transport.uring_sqe_per_op",
        per(static_cast<double>(fnc.uring_sqe_submitted + gnc.uring_sqe_submitted), all_ops));
  r.set("transport.uring_cqe_batches_per_op",
        per(static_cast<double>(fnc.uring_cqe_batch + gnc.uring_cqe_batch), all_ops));
  r.set("transport.payload_copies_per_op",
        per(static_cast<double>(fnc.payload_copies + gnc.payload_copies), all_ops));
  r.set("transport.send_errors", static_cast<double>(fnc.send_errors + gnc.send_errors));
  r.set("transport.drops_truncated",
        static_cast<double>(fnc.drops_truncated + gnc.drops_truncated));
  const auto fps = w->flight_t->frame_pool().stats();
  const auto gps = w->ground_t->frame_pool().stats();
  r.set("util.pool_hit_ratio", per(static_cast<double>(fps.pool_hits + gps.pool_hits),
                                   static_cast<double>(fps.checkouts + gps.checkouts)));
  r.set("util.pool_slab_allocs_per_op",
        per(static_cast<double>(fps.slab_allocs + gps.slab_allocs), all_ops));
  const auto gs = w->gateway->fanout().stats();
  r.set("services.gateway_datagrams_per_update",
        per(static_cast<double>(gs.datagrams), static_cast<double>(gs.updates)));
  r.set("services.gateway_conflated_ratio",
        per(static_cast<double>(gs.conflated), static_cast<double>(gs.updates) * kSubscribers));
  r.set("services.gateway_backpressure_drops", static_cast<double>(gs.backpressure_drops));

  marea::mw::ContainerStats fst, gst;
  uint64_t payload_bytes = 0;
  uint64_t arq[6] = {};  // retransmits, frames_sent, duplicates, frames_rx, acks, messages
  auto read_container = [&](marea::mw::ServiceContainer& c, marea::obs::Observability& o,
                            marea::mw::ContainerStats& out) {
    out = c.stats();
    for (const auto& [name, u] : c.usage()) payload_bytes += u.payload_bytes_sent;
    o.metrics.collect();
    const std::string p = "mw." + std::to_string(c.config().id) + ".arq.";
    arq[0] += o.metrics.counter_value(p + "retransmits");
    arq[1] += o.metrics.counter_value(p + "frames_sent");
    arq[2] += o.metrics.counter_value(p + "duplicates");
    arq[3] += o.metrics.counter_value(p + "frames_received");
    arq[4] += o.metrics.counter_value(p + "acks_sent");
    arq[5] += o.metrics.counter_value(p + "messages_accepted");
  };
  on_executor(*w->flight_ex, [&] { read_container(*w->flight, w->flight_obs, fst); });
  on_executor(*w->ground_ex, [&] { read_container(*w->ground, w->ground_obs, gst); });
  r.set("middleware.frames_received_per_op",
        per(static_cast<double>(fst.frames_received + gst.frames_received), all_ops));
  r.set("middleware.frames_dropped", static_cast<double>(fst.frames_dropped + gst.frames_dropped));
  r.set("middleware.name_queries_sent",
        static_cast<double>(fst.name_queries_sent + gst.name_queries_sent));
  r.set("protocol.header_bytes_per_op",
        per(static_cast<double>(fnc.bytes_sent) - static_cast<double>(payload_bytes), all_ops));
  r.set("protocol.arq_retransmit_ratio",
        per(static_cast<double>(arq[0]), static_cast<double>(arq[1])));
  r.set("protocol.arq_duplicate_ratio",
        per(static_cast<double>(arq[2]), static_cast<double>(arq[3])));
  r.set("protocol.arq_acks_per_message",
        per(static_cast<double>(arq[4]), static_cast<double>(arq[5])));

  std::vector<ReplayItem> replay;
  for (uint64_t k = 0; k < 64; ++k) {
    replay.push_back({marea::enc::to_value(gps_fix_at(opt.seed, k)),
                      marea::enc::descriptor_of<GpsFix>()});
  }
  r.set("encoding.encode_ns", replay_encode_ns(replay, 50));
  r.set("encoding.decode_ns", replay_decode_ns(replay, 50));
  r.set("encoding.tagged_encode_ns", replay_tagged_encode_ns(replay, 50));
  r.set("protocol.frame_ns", replay_frame_ns(replay, 50));
}

}  // namespace perfbench
