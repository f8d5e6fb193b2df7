// Multi-process live deployment: every peer is a different PID. These
// tests fork/exec the `marea-node` runner (path injected via
// MAREA_NODE_BIN) and drive it over its stdio protocol, covering what no
// in-process test can: discovery, name resolution, ARQ link sessions and
// the gateway fan-out when the peer's entire address space — sockets,
// ARQ state, sequence counters — dies and comes back under a new PID.
//
// Failure forensics: every child writes its flight-recorder dump under
// $MAREA_MULTIPROC_DUMPS (default /tmp/marea_multiproc); CI uploads that
// directory when this test fails.
#include <arpa/inet.h>
#include <fcntl.h>
#include <gtest/gtest.h>
#include <netinet/in.h>
#include <poll.h>
#include <signal.h>
#include <sys/socket.h>
#include <sys/stat.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "encoding/typed.h"
#include "frame_forge.h"
#include "middleware/container.h"
#include "protocol/messages.h"
#include "sched/thread_pool.h"
#include "transport/udp_transport.h"

// Structurally identical to the runner's payload structs (schema checks
// hash the field layout; the variable NAME does the matching).
struct Telemetry {
  uint64_t sample = 0;
  double lat = 0;
  double lon = 0;
  double alt = 0;
};
MAREA_REFLECT(Telemetry, sample, lat, lon, alt)

struct EchoMsg {
  uint64_t token = 0;
};
MAREA_REFLECT(EchoMsg, token)

namespace marea {
namespace {

#ifndef MAREA_NODE_BIN
#define MAREA_NODE_BIN "marea-node"
#endif

std::string dump_dir() {
  const char* env = ::getenv("MAREA_MULTIPROC_DUMPS");
  std::string dir = env ? env : "/tmp/marea_multiproc";
  ::mkdir(dir.c_str(), 0755);
  return dir;
}

// One spawned marea-node with piped stdio.
class ChildProc {
 public:
  ChildProc() = default;
  ~ChildProc() { kill_now(); }

  bool spawn(std::vector<std::string> args) {
    int to_child[2], from_child[2];
    if (::pipe(to_child) != 0) return false;
    if (::pipe(from_child) != 0) {
      ::close(to_child[0]);
      ::close(to_child[1]);
      return false;
    }
    pid_ = ::fork();
    if (pid_ < 0) return false;
    if (pid_ == 0) {
      ::dup2(to_child[0], STDIN_FILENO);
      ::dup2(from_child[1], STDOUT_FILENO);
      ::close(to_child[0]);
      ::close(to_child[1]);
      ::close(from_child[0]);
      ::close(from_child[1]);
      std::vector<char*> argv;
      argv.push_back(const_cast<char*>(MAREA_NODE_BIN));
      for (auto& a : args) argv.push_back(a.data());
      argv.push_back(nullptr);
      ::execv(MAREA_NODE_BIN, argv.data());
      ::_exit(127);
    }
    ::close(to_child[0]);
    ::close(from_child[1]);
    in_fd_ = to_child[1];
    out_fd_ = from_child[0];
    return true;
  }

  // Reads one '\n'-terminated line, waiting up to `timeout_ms`.
  bool read_line(std::string& line, int timeout_ms) {
    auto deadline = std::chrono::steady_clock::now() +
                    std::chrono::milliseconds(timeout_ms);
    for (;;) {
      auto nl = buf_.find('\n');
      if (nl != std::string::npos) {
        line = buf_.substr(0, nl);
        buf_.erase(0, nl + 1);
        return true;
      }
      auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
                      deadline - std::chrono::steady_clock::now())
                      .count();
      if (left <= 0) return false;
      struct pollfd pfd = {out_fd_, POLLIN, 0};
      int r = ::poll(&pfd, 1, static_cast<int>(left));
      if (r <= 0) return false;
      char tmp[512];
      ssize_t n = ::read(out_fd_, tmp, sizeof tmp);
      if (n <= 0) return false;
      buf_.append(tmp, static_cast<size_t>(n));
    }
  }

  // Waits for a line starting with `prefix`; returns the remainder.
  bool expect(const std::string& prefix, std::string& rest, int timeout_ms) {
    std::string line;
    auto deadline = std::chrono::steady_clock::now() +
                    std::chrono::milliseconds(timeout_ms);
    while (read_line(line, timeout_ms)) {
      if (line.rfind(prefix, 0) == 0) {
        rest = line.substr(prefix.size());
        return true;
      }
      if (std::chrono::steady_clock::now() > deadline) return false;
    }
    return false;
  }

  void send_line(const std::string& s) {
    std::string out = s + "\n";
    (void)!::write(in_fd_, out.data(), out.size());
  }

  void kill_now() {
    if (pid_ > 0) {
      ::kill(pid_, SIGKILL);
      ::waitpid(pid_, nullptr, 0);
      pid_ = -1;
    }
    close_fds();
  }

  // SIGTERM and wait; returns true on clean (0) exit.
  bool terminate() {
    if (pid_ <= 0) return false;
    ::kill(pid_, SIGTERM);
    int status = 0;
    for (int i = 0; i < 100; ++i) {
      pid_t r = ::waitpid(pid_, &status, WNOHANG);
      if (r == pid_) {
        pid_ = -1;
        close_fds();
        return WIFEXITED(status) && WEXITSTATUS(status) == 0;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(100));
    }
    kill_now();
    return false;
  }

  pid_t pid() const { return pid_; }

 private:
  void close_fds() {
    if (in_fd_ >= 0) ::close(in_fd_);
    if (out_fd_ >= 0) ::close(out_fd_);
    in_fd_ = out_fd_ = -1;
  }
  pid_t pid_ = -1;
  int in_fd_ = -1;
  int out_fd_ = -1;
  std::string buf_;
};

bool runner_available() { return ::access(MAREA_NODE_BIN, X_OK) == 0; }

// Plain non-blocking UDP sink for gateway egress; not a UdpTransport on
// purpose — external subscribers are protocol-free endpoints.
struct UdpSink {
  int fd = -1;
  uint16_t port = 0;

  bool open() {
    fd = ::socket(AF_INET, SOCK_DGRAM | SOCK_NONBLOCK, 0);
    if (fd < 0) return false;
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
      return false;
    }
    socklen_t len = sizeof addr;
    if (::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len) != 0) {
      return false;
    }
    port = ntohs(addr.sin_port);
    return true;
  }
  ~UdpSink() {
    if (fd >= 0) ::close(fd);
  }

  // Drains everything currently queued; counts gateway frames per topic.
  void drain(uint64_t counts[2]) {
    uint8_t buf[2048];
    for (;;) {
      ssize_t n = ::recv(fd, buf, sizeof buf, 0);
      if (n < 24) break;  // header is u32+u16+u16+u64+i64 = 24 bytes
      uint32_t magic;
      uint16_t topic;
      std::memcpy(&magic, buf, 4);
      std::memcpy(&topic, buf + 4, 2);
      if (magic == 0x3157474Du && topic < 2) counts[topic]++;
    }
  }
};

std::string addr_of(uint16_t port) {
  return "127.0.0.1:" + std::to_string(port);
}

// --- Test 1: 3-process topology (2 fleet + 1 gateway) with a mid-run
// kill and re-exec of one fleet node. ---------------------------------
TEST(MultiprocLinkTest, ThreeProcessGatewaySurvivesKillAndReexec) {
  if (!runner_available()) GTEST_SKIP() << "marea-node binary not found";
  UdpSink sink;
  if (!sink.open()) GTEST_SKIP() << "UDP sockets unavailable";
  const std::string dumps = dump_dir();

  auto flight_args = [&](int id) {
    return std::vector<std::string>{
        "--id", std::to_string(id), "--ip", "127.0.0.1", "--port", "0",
        "--wait-peers", "--duration-s", "60", "--telemetry-period-ms", "20",
        "--obs-dump", dumps + "/flight" + std::to_string(id) + ".json"};
  };
  ChildProc f1, f2, gw;
  ASSERT_TRUE(f1.spawn(flight_args(1)));
  ASSERT_TRUE(f2.spawn(flight_args(2)));
  ASSERT_TRUE(gw.spawn({"--id", "3", "--ip", "127.0.0.1", "--port", "0",
                        "--wait-peers", "--duration-s", "60", "--services",
                        "gateway", "--gw-topics", "1,2", "--gw-sink",
                        addr_of(sink.port), "--gw-subscribers", "1",
                        "--gw-shards", "2", "--obs-dump",
                        dumps + "/gateway.json"}));

  std::string p1s, p2s, p3s;
  if (!f1.expect("MAREA_PORT ", p1s, 10000)) {
    GTEST_SKIP() << "runner could not bind (restricted environment)";
  }
  ASSERT_TRUE(f2.expect("MAREA_PORT ", p2s, 10000));
  ASSERT_TRUE(gw.expect("MAREA_PORT ", p3s, 10000));
  const uint16_t p1 = static_cast<uint16_t>(std::stoi(p1s));
  const uint16_t p2 = static_cast<uint16_t>(std::stoi(p2s));
  const uint16_t p3 = static_cast<uint16_t>(std::stoi(p3s));

  const std::string mesh =
      "PEERS " + addr_of(p1) + "," + addr_of(p2) + "," + addr_of(p3);
  f1.send_line(mesh);
  f2.send_line(mesh);
  gw.send_line(mesh);
  std::string rest;
  ASSERT_TRUE(f1.expect("MAREA_READY", rest, 10000));
  ASSERT_TRUE(f2.expect("MAREA_READY", rest, 10000));
  ASSERT_TRUE(gw.expect("MAREA_READY", rest, 10000));

  // Phase A: telemetry from BOTH fleet nodes must reach the external
  // subscriber through the gateway.
  uint64_t counts[2] = {0, 0};
  auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(20);
  while (std::chrono::steady_clock::now() < deadline) {
    sink.drain(counts);
    if (counts[0] >= 10 && counts[1] >= 10) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
  if (counts[0] + counts[1] == 0) {
    f1.terminate();
    f2.terminate();
    gw.terminate();
    GTEST_SKIP() << "no cross-process UDP traffic (restricted loopback)";
  }
  EXPECT_GE(counts[0], 10u) << "gateway never saw fleet node 1";
  EXPECT_GE(counts[1], 10u) << "gateway never saw fleet node 2";

  // Phase B: hard-kill fleet node 1 (SIGKILL — no bye, no teardown), then
  // re-exec it on a fresh ephemeral port. The gateway must re-resolve,
  // re-subscribe and resume topic-0 fan-out without restarting.
  f1.kill_now();
  std::this_thread::sleep_for(std::chrono::milliseconds(300));

  ChildProc f1b;
  auto args = flight_args(1);
  args.back() = dumps + "/flight1_reexec.json";  // own obs dump
  ASSERT_TRUE(f1b.spawn(args));
  ASSERT_TRUE(f1b.expect("MAREA_PORT ", p1s, 10000));
  const uint16_t p1b = static_cast<uint16_t>(std::stoi(p1s));
  EXPECT_NE(p1b, 0);
  f1b.send_line("PEERS " + addr_of(p1b) + "," + addr_of(p2) + "," +
                addr_of(p3));
  ASSERT_TRUE(f1b.expect("MAREA_READY", rest, 10000));

  sink.drain(counts);  // discard anything queued before the kill settled
  const uint64_t before0 = counts[0];
  deadline = std::chrono::steady_clock::now() + std::chrono::seconds(20);
  while (std::chrono::steady_clock::now() < deadline) {
    sink.drain(counts);
    if (counts[0] >= before0 + 10) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
  EXPECT_GE(counts[0], before0 + 10)
      << "topic-0 fan-out did not resume after node 1 was re-exec'd";

  EXPECT_TRUE(f1b.terminate());
  EXPECT_TRUE(f2.terminate());
  EXPECT_TRUE(gw.terminate());
}

// --- Test 2: ARQ session reset across a same-incarnation process
// re-exec, plus negative validation that stale-session acks are dropped.
// The parent hosts the subscriber container in-process so it can inspect
// ContainerStats and forge wire traffic. --------------------------------
namespace {

class ProbeService final : public mw::Service {
 public:
  ProbeService() : Service("probe") {}
  Status on_start() override {
    Status s = subscribe_variable<Telemetry>(
        "flight.telemetry.7",
        [this](const Telemetry&, const mw::SampleInfo&) {
          samples.fetch_add(1);
        });
    if (!s.is_ok()) return s;
    s = subscribe_event<EchoMsg>(
        "flight.evt.7",
        [this](const EchoMsg&, const mw::EventInfo&) {
          events.fetch_add(1);
        });
    if (!s.is_ok()) return s;
    try_echo();
    return Status::ok();
  }
  // Keeps reliable traffic flowing parent -> child across the child's
  // whole lifecycle (this is what forces the tx link session into use).
  void try_echo() {
    if (stopping.load()) return;
    EchoMsg req;
    req.token = 42;
    call<EchoMsg, EchoMsg>(
        "flight.echo.7", req,
        [this](StatusOr<EchoMsg> r) {
          if (r.ok()) rpc_ok.fetch_add(1);
          schedule(milliseconds(300), [this] { try_echo(); },
                   sched::Priority::kRpc);
        },
        {.timeout = seconds(1.0)});
  }
  std::atomic<int> samples{0};
  std::atomic<int> events{0};
  std::atomic<int> rpc_ok{0};
  std::atomic<bool> stopping{false};
};

}  // namespace

TEST(MultiprocLinkTest, SessionResetAndStaleAckDropAcrossReexec) {
  if (!runner_available()) GTEST_SKIP() << "marea-node binary not found";
  std::unique_ptr<transport::UdpTransport> net;
  try {
    net = std::make_unique<transport::UdpTransport>("127.0.0.1");
  } catch (const std::exception&) {
    GTEST_SKIP() << "UDP sockets unavailable";
  }
  const transport::HostId h = transport::ipv4_host("127.0.0.1");
  sched::ThreadPoolExecutor exec(1);

  mw::ContainerConfig cfg;
  cfg.id = 10;
  cfg.node_name = "probe";
  cfg.data_port = 0;
  cfg.use_multicast = false;
  // The child is hard-killed and back within ~300 ms; keep the liveness
  // watchdog out of the picture so recovery exercises the *session reset*
  // path (same id, same incarnation, new PID + port), not peer_lost.
  cfg.liveness_factor = 10000;
  mw::ServiceContainer probe_c(cfg, *net, exec);
  auto probe_svc = std::make_unique<ProbeService>();
  auto* probe = probe_svc.get();
  (void)probe_c.add_service(std::move(probe_svc));

  std::atomic<bool> bound{false};
  exec.post(sched::Priority::kBackground,
            [&] { bound = probe_c.bind_transport().is_ok(); });
  exec.drain();
  ASSERT_TRUE(bound.load());
  const uint16_t pa = probe_c.config().data_port;
  ASSERT_NE(pa, 0);

  ChildProc child;
  auto child_args = [&] {
    return std::vector<std::string>{
        "--id", "7", "--incarnation", "7", "--ip", "127.0.0.1",
        "--port", "0", "--peers", addr_of(pa), "--duration-s", "60",
        "--telemetry-period-ms", "20",
        "--obs-dump", dump_dir() + "/session_child.json"};
  };
  ASSERT_TRUE(child.spawn(child_args()));
  std::string ps, rest;
  if (!child.expect("MAREA_PORT ", ps, 10000)) {
    GTEST_SKIP() << "runner could not bind (restricted environment)";
  }
  uint16_t pb = static_cast<uint16_t>(std::stoi(ps));
  ASSERT_TRUE(child.expect("MAREA_READY", rest, 10000));

  net->set_peers(std::vector<transport::Address>{{h, pa}, {h, pb}});
  std::atomic<bool> started{false};
  exec.post(sched::Priority::kBackground,
            [&] { started = probe_c.start().is_ok(); });
  exec.drain();
  ASSERT_TRUE(started.load());

  auto stats_snapshot = [&] {
    mw::ContainerStats out;
    std::atomic<bool> done{false};
    exec.post(sched::Priority::kBackground, [&] {
      out = probe_c.stats();
      done = true;
    });
    while (!done.load()) {
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    return out;
  };

  auto wait_until = [&](auto pred, int timeout_ms) {
    auto deadline = std::chrono::steady_clock::now() +
                    std::chrono::milliseconds(timeout_ms);
    while (std::chrono::steady_clock::now() < deadline) {
      if (pred()) return true;
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
    }
    return pred();
  };

  bool flowing = wait_until(
      [&] {
        return probe->samples.load() > 20 && probe->events.load() >= 1 &&
               probe->rpc_ok.load() >= 1;
      },
      15000);
  if (probe->samples.load() == 0) {
    probe->stopping.store(true);
    child.terminate();
    exec.post(sched::Priority::kBackground, [&] { probe_c.stop(); });
    exec.drain();
    std::this_thread::sleep_for(std::chrono::milliseconds(400));
    exec.drain();
    GTEST_SKIP() << "no cross-process UDP traffic (restricted loopback)";
  }
  ASSERT_TRUE(flowing) << "samples=" << probe->samples.load()
                       << " events=" << probe->events.load()
                       << " rpc=" << probe->rpc_ok.load();

  // Hard-kill + same-incarnation re-exec. The new process starts its link
  // sequence space from scratch on a new port; the probe must observe a
  // session reset (not a peer loss) and resume delivery.
  child.kill_now();
  std::this_thread::sleep_for(std::chrono::milliseconds(300));
  ASSERT_TRUE(child.spawn(child_args()));
  ASSERT_TRUE(child.expect("MAREA_PORT ", ps, 10000));
  pb = static_cast<uint16_t>(std::stoi(ps));
  ASSERT_TRUE(child.expect("MAREA_READY", rest, 10000));
  net->set_peers(std::vector<transport::Address>{{h, pa}, {h, pb}});

  const int samples_mark = probe->samples.load();
  const int events_mark = probe->events.load();
  EXPECT_TRUE(wait_until(
      [&] { return stats_snapshot().link_session_resets >= 1; }, 15000))
      << "no link session reset observed after same-incarnation re-exec";
  EXPECT_TRUE(wait_until(
      [&] {
        return probe->samples.load() > samples_mark + 20 &&
               probe->events.load() > events_mark;
      },
      15000))
      << "delivery did not resume after session reset (samples "
      << probe->samples.load() << " vs mark " << samples_mark << ")";

  // Negative validation: forge an ack that claims the child's current
  // incarnation but a session that never belonged to this tx link. It
  // must be counted + dropped — never fed to the ARQ sender (a floor of
  // 1e6 would otherwise cancel retransmission of everything in flight).
  const uint64_t stale_before = stats_snapshot().stale_session_acks;
  proto::ReliableAckMsg forged;
  forged.incarnation = 7;
  forged.session = 1;  // real sessions are time-floored, never this small
  forged.floor = 1000000;
  FramePool pool;
  SharedFrame frame =
      testutil::forge_frame(pool, proto::MsgType::kReliableAck, 7, forged);
  int raw = ::socket(AF_INET, SOCK_DGRAM, 0);
  ASSERT_GE(raw, 0);
  sockaddr_in to{};
  to.sin_family = AF_INET;
  to.sin_port = htons(pa);
  to.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  for (int i = 0; i < 3; ++i) {
    ASSERT_GT(::sendto(raw, frame.view().data(), frame.size(), 0,
                       reinterpret_cast<sockaddr*>(&to), sizeof to),
              0);
  }
  ::close(raw);
  EXPECT_TRUE(wait_until(
      [&] { return stats_snapshot().stale_session_acks >= stale_before + 1; },
      10000))
      << "forged stale-session ack was not counted as dropped";

  // Delivery must be unaffected by the forged acks.
  const int samples_after_forge = probe->samples.load();
  EXPECT_TRUE(wait_until(
      [&] { return probe->samples.load() > samples_after_forge + 10; }, 10000))
      << "delivery stalled after stale-session acks";

  probe->stopping.store(true);
  EXPECT_TRUE(child.terminate());
  exec.post(sched::Priority::kBackground, [&] { probe_c.stop(); });
  exec.drain();
  std::this_thread::sleep_for(std::chrono::milliseconds(400));
  exec.drain();
}

}  // namespace
}  // namespace marea
