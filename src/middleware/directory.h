// Name management (paper §3): "services are addressed by name, and the
// Service Container discovers the real location in the network of the
// named service … the Service Container acts as a proxy cache for the
// services it contains."
//
// The directory is each container's local view of who provides what,
// assembled only from ContainerHello manifests (which carry each
// service's state), and invalidated when a peer dies or says Bye. Every
// resolve() is a cache hit or miss; stats feed bench C8. Lookups copy
// nothing: each item kind has a table keyed by the bare name, and records
// are handed out by reference, valid until the next apply_hello or
// drop_container. Callers copy out what they keep.
#pragma once

#include <array>
#include <span>
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
  // returns how many names lost a provider (one record each).
  size_t drop_container(proto::ContainerId container) {
    const size_t affected = erase_container(container);
    stats_.invalidations += affected;
    return affected;
  }

  // Every record of (kind, name), usable or not, in preference order
  // (the order the manifests arrived in). Callers skip !usable() ones.
  std::span<const ProviderRecord> records(proto::ItemKind kind,
                                          const std::string& name) const;
  // How many of those records are usable. Counts nothing.
  size_t usable_count(proto::ItemKind kind, const std::string& name) const;
  // First usable provider or null. Counts hit/miss.
  const ProviderRecord* resolve(proto::ItemKind kind, const std::string& name);

  const DirectoryStats& stats() const { return stats_; }
  size_t record_count() const;

 private:
  size_t erase_container(proto::ContainerId container);

  // Per ItemKind: name -> providers (possibly several: redundancy §4.3).
  using Table = std::unordered_map<std::string, std::vector<ProviderRecord>>;
  std::array<Table, 4> tables_;
  // container -> (kind, name) of each record it provides, so dropping or
  // re-stating one container (every hello does both) touches only its
  // own records instead of sweeping the whole directory.
  std::unordered_map<proto::ContainerId,
                     std::vector<std::pair<proto::ItemKind, std::string>>>
      container_keys_;
  DirectoryStats stats_;
};

}  // namespace marea::mw
