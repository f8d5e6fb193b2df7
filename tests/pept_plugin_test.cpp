// PEPt pluggability (Fig 4): each subsystem — Presentation/Encoding,
// Protocol, Transport, and the scheduler — is an interface whose
// implementation can be swapped without touching the layers above.
// This suite plugs in alternatives and shows the stack still works.
#include <gtest/gtest.h>

#include <map>

#include "encoding/codec.h"
#include "middleware/container.h"
#include "sched/sim_executor.h"
#include "sim/simulator.h"
#include "transport/transport.h"

namespace marea {
namespace {

// --- a pluggable Encoding: XOR-masked binary --------------------------------------
// (a stand-in for "a different wire format" — e.g. an encrypted or
// text-based encoding plugged under the same Presentation layer)
class MaskedWireFormat final : public enc::WireFormat {
 public:
  const char* name() const override { return "masked-v1"; }

  Status encode(const enc::Value& value, const enc::TypeDescriptor& type,
                ByteWriter& out) const override {
    ByteWriter inner;
    Status s = base_.encode(value, type, inner);
    if (!s.is_ok()) return s;
    for (uint8_t b : inner.view()) out.u8(b ^ kMask);
    return Status::ok();
  }

  StatusOr<enc::Value> decode(ByteReader& in,
                              const enc::TypeDescriptor& type) const override {
    Buffer unmasked;
    while (in.remaining() > 0) unmasked.push_back(in.u8() ^ kMask);
    ByteReader inner(as_bytes_view(unmasked));
    return base_.decode(inner, type);
  }

 private:
  static constexpr uint8_t kMask = 0x5A;
  enc::BinaryWireFormat base_;
};

TEST(PeptPluginTest, AlternativeWireFormatRoundTrips) {
  MaskedWireFormat format;
  auto type = enc::TypeDescriptor::struct_of(
      "P", {{"x", enc::f64_type()}, {"n", enc::string_type()}});
  enc::Value v = enc::StructBuilder()
                     .add(enc::Value::of_double(3.25))
                     .add(enc::Value::of_string("plug"))
                     .build();
  ByteWriter masked;
  ASSERT_TRUE(format.encode(v, *type, masked).is_ok());

  // The masked bytes differ from the default format's bytes...
  ByteWriter plain;
  ASSERT_TRUE(enc::binary_format().encode(v, *type, plain).is_ok());
  EXPECT_NE(to_buffer(masked.view()), to_buffer(plain.view()));
  EXPECT_EQ(masked.size(), plain.size());

  // ...but decode to the same value through the common interface.
  ByteReader r(masked.view());
  auto back = format.decode(r, *type);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(*back, v);
}

// --- a pluggable Transport: in-process pipe ---------------------------------------
// A zero-dependency Transport connecting N "hosts" through plain function
// calls deferred on the simulator — proving the container only needs the
// frames-only Transport contract, not the simulated network.
class PipeHub {
 public:
  explicit PipeHub(sim::Simulator& sim) : sim_(sim) {}

  class PipeTransport final : public transport::Transport {
   public:
    PipeTransport(PipeHub& hub, transport::HostId host)
        : hub_(hub), host_(host) {}

    transport::HostId local_host() const override { return host_; }
    size_t mtu() const override { return 65507; }

    Status bind_frames(uint16_t port, FrameRecvHandler handler) override {
      auto key = std::make_pair(host_, port);
      if (hub_.handlers_.count(key)) {
        return already_exists_error("port in use");
      }
      hub_.handlers_[key] = std::move(handler);
      return Status::ok();
    }
    void unbind(uint16_t port) override {
      hub_.handlers_.erase({host_, port});
    }
    Status join_group(transport::GroupId group, uint16_t port) override {
      hub_.groups_[group].insert({host_, port});
      return Status::ok();
    }
    void leave_group(transport::GroupId group, uint16_t port) override {
      hub_.groups_[group].erase({host_, port});
    }
    Status send_frame(uint16_t src_port, transport::Address dst,
                      SharedFrame frame) override {
      hub_.deliver({host_, src_port}, dst, std::move(frame));
      return Status::ok();
    }
    Status send_frame_multicast(uint16_t src_port, transport::GroupId group,
                                SharedFrame frame) override {
      for (auto [host, port] : hub_.groups_[group]) {
        if (host == host_ && port == src_port) continue;
        hub_.deliver({host_, src_port}, {host, port}, frame);
      }
      return Status::ok();
    }
    Status send_frame_broadcast(uint16_t src_port, uint16_t dst_port,
                                SharedFrame frame) override {
      for (transport::HostId host : hub_.hosts_) {
        if (host == host_) continue;
        hub_.deliver({host_, src_port}, {host, dst_port}, frame);
      }
      return Status::ok();
    }

   private:
    PipeHub& hub_;
    transport::HostId host_;
  };

  std::unique_ptr<PipeTransport> make_transport(transport::HostId host) {
    hosts_.push_back(host);
    return std::make_unique<PipeTransport>(*this, host);
  }

 private:
  friend class PipeTransport;

  // Every destination shares the sender's refcounted frame.
  void deliver(transport::Address from, transport::Address to,
               SharedFrame frame) {
    sim_.post([this, from, to, frame = std::move(frame)] {
      auto it = handlers_.find({to.host, to.port});
      if (it != handlers_.end()) it->second(from, frame);
    });
  }

  sim::Simulator& sim_;
  std::vector<transport::HostId> hosts_;
  std::map<std::pair<transport::HostId, uint16_t>,
           transport::FrameRecvHandler>
      handlers_;
  std::map<transport::GroupId, std::set<std::pair<transport::HostId, uint16_t>>>
      groups_;
};

// Minimal producing/consuming services for the plugged stack.
class PingService final : public mw::Service {
 public:
  PingService() : Service("ping") {}
  Status on_start() override {
    return provide_function(
        "ping", enc::string_type(), enc::string_type(),
        [](const enc::Value& v) -> StatusOr<enc::Value> {
          return enc::Value::of_string("pong:" + v.as_string());
        });
  }
};

class PongClient final : public mw::Service {
 public:
  PongClient() : Service("pong_client") {}
  Status on_start() override { return Status::ok(); }
  void ping() {
    call("ping", enc::Value::of_string("hi"),
         [this](StatusOr<enc::Value> result) {
           reply = result.value_or(enc::Value::of_string("")).as_string();
         });
  }
  std::string reply;
};

TEST(PeptPluginTest, ContainerRunsOnAlternativeTransport) {
  sim::Simulator sim;
  PipeHub hub(sim);
  sched::SimExecutor exec1(sim), exec2(sim);

  auto t1 = hub.make_transport(1);
  auto t2 = hub.make_transport(2);

  mw::ContainerConfig cfg1;
  cfg1.id = 1;
  cfg1.node_name = "pipe-a";
  mw::ServiceContainer c1(cfg1, *t1, exec1);
  (void)c1.add_service(std::make_unique<PingService>());

  mw::ContainerConfig cfg2;
  cfg2.id = 2;
  cfg2.node_name = "pipe-b";
  mw::ServiceContainer c2(cfg2, *t2, exec2);
  auto client = std::make_unique<PongClient>();
  auto* client_ptr = client.get();
  (void)c2.add_service(std::move(client));

  ASSERT_TRUE(c1.start().is_ok());
  ASSERT_TRUE(c2.start().is_ok());
  sim.run_for(milliseconds(500));

  client_ptr->ping();
  sim.run_for(milliseconds(500));
  EXPECT_EQ(client_ptr->reply, "pong:hi");

  c1.stop();
  c2.stop();
}

}  // namespace
}  // namespace marea
