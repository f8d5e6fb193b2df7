// Name management (paper §3): "services are addressed by name, and the
// Service Container discovers the real location in the network of the
// named service … the Service Container acts as a proxy cache for the
// services it contains."
//
// The directory is each container's local view of who provides what,
// assembled only from ContainerHello manifests (which carry each
// service's state), and invalidated when a peer dies or says Bye. Every
// lookup is a cache hit or miss; stats feed bench C8.
#pragma once

#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "protocol/messages.h"
#include "transport/transport.h"

namespace marea::mw {

// One provider of a named item.
struct ProviderRecord {
  proto::ContainerId container = proto::kInvalidContainer;
  transport::Address address;       // peer container's data endpoint
  std::string service;              // providing service name
  proto::ItemKind kind = proto::ItemKind::kVariable;
  uint32_t schema_hash = 0;
  int64_t period_ns = 0;    // variables: provider's publication period
  int64_t validity_ns = 0;  // variables: provider's validity QoS
  proto::ServiceState state = proto::ServiceState::kRunning;

  bool usable() const {
    return state == proto::ServiceState::kRunning ||
           state == proto::ServiceState::kDegraded;
  }
};

struct DirectoryStats {
  uint64_t hits = 0;
  uint64_t misses = 0;
  uint64_t invalidations = 0;  // records dropped on failure/bye, not
                               // records a newer hello replaced
};

class NameDirectory {
 public:
  // Replaces everything previously known about `container` with the
  // manifest in `hello` (a hello is authoritative for its sender).
  void apply_hello(proto::ContainerId container, transport::Address addr,
                   const proto::ContainerHelloMsg& hello);

  // Drops every record provided by `container` (death or bye);
  // returns the names that lost a provider.
  std::vector<std::string> drop_container(proto::ContainerId container);

  // All usable providers of (kind, name), preference-ordered (stable).
  std::vector<ProviderRecord> providers(proto::ItemKind kind,
                                        const std::string& name) const;
  // First usable provider or nullopt. Counts hit/miss.
  std::optional<ProviderRecord> resolve(proto::ItemKind kind,
                                        const std::string& name);

  // Does `container` provide (kind, name)? (used to route by source id)
  bool provides(proto::ContainerId container, proto::ItemKind kind,
                const std::string& name) const;

  const DirectoryStats& stats() const { return stats_; }
  size_t record_count() const;

 private:
  static std::string key(proto::ItemKind kind, const std::string& name);
  std::vector<std::string> drop_container_quietly(
      proto::ContainerId container);
  void index_key(proto::ContainerId container, const std::string& k);

  // key -> providers (possibly several: redundancy §4.3).
  std::unordered_map<std::string, std::vector<ProviderRecord>> records_;
  // container -> keys it provides, so dropping or re-stating one
  // container (every hello does both) touches only its own records
  // instead of sweeping the whole directory.
  std::unordered_map<proto::ContainerId, std::vector<std::string>>
      container_keys_;
  DirectoryStats stats_;
};

}  // namespace marea::mw
