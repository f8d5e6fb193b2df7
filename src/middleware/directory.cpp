#include "middleware/directory.h"

#include <algorithm>

namespace marea::mw {

std::string NameDirectory::key(proto::ItemKind kind, const std::string& name) {
  return std::string(proto::item_kind_name(kind)) + "/" + name;
}

void NameDirectory::apply_hello(proto::ContainerId container,
                                transport::Address addr,
                                const proto::ContainerHelloMsg& hello) {
  // A hello replaces prior knowledge about its sender.
  (void)drop_container_quietly(container);
  for (const auto& svc : hello.services) {
    for (const auto& item : svc.items) {
      ProviderRecord rec;
      rec.container = container;
      rec.address = transport::Address{addr.host, hello.data_port};
      rec.service = svc.name;
      rec.kind = item.kind;
      rec.schema_hash = item.schema_hash;
      rec.period_ns = item.period_ns;
      rec.validity_ns = item.validity_ns;
      rec.state = svc.state;
      std::string k = key(item.kind, item.name);
      records_[k].push_back(rec);
      index_key(container, k);
    }
  }
}

void NameDirectory::index_key(proto::ContainerId container,
                              const std::string& k) {
  auto& keys = container_keys_[container];
  if (std::find(keys.begin(), keys.end(), k) == keys.end()) {
    keys.push_back(k);
  }
}

std::vector<std::string> NameDirectory::drop_container(
    proto::ContainerId container) {
  std::vector<std::string> affected = drop_container_quietly(container);
  // A container holds one record per name, so each name lost one.
  stats_.invalidations += affected.size();
  return affected;
}

std::vector<std::string> NameDirectory::drop_container_quietly(
    proto::ContainerId container) {
  std::vector<std::string> affected;
  auto idx = container_keys_.find(container);
  if (idx == container_keys_.end()) return affected;
  // The per-container key index names exactly the entries to visit —
  // O(own records), not a sweep over every provider in the directory.
  for (const std::string& k : idx->second) {
    auto it = records_.find(k);
    if (it == records_.end()) continue;
    auto& providers = it->second;
    size_t before = providers.size();
    providers.erase(
        std::remove_if(providers.begin(), providers.end(),
                       [&](const ProviderRecord& r) {
                         return r.container == container;
                       }),
        providers.end());
    if (providers.size() != before) affected.push_back(k);
    if (providers.empty()) records_.erase(it);
  }
  container_keys_.erase(idx);
  return affected;
}

std::vector<ProviderRecord> NameDirectory::providers(
    proto::ItemKind kind, const std::string& name) const {
  auto it = records_.find(key(kind, name));
  if (it == records_.end()) return {};
  std::vector<ProviderRecord> usable;
  for (const auto& rec : it->second) {
    if (rec.usable()) usable.push_back(rec);
  }
  return usable;
}

std::optional<ProviderRecord> NameDirectory::resolve(
    proto::ItemKind kind, const std::string& name) {
  auto list = providers(kind, name);
  if (list.empty()) {
    stats_.misses++;
    return std::nullopt;
  }
  stats_.hits++;
  return list.front();
}

bool NameDirectory::provides(proto::ContainerId container,
                             proto::ItemKind kind,
                             const std::string& name) const {
  auto it = records_.find(key(kind, name));
  if (it == records_.end()) return false;
  for (const auto& rec : it->second) {
    if (rec.container == container) return true;
  }
  return false;
}

size_t NameDirectory::record_count() const {
  size_t n = 0;
  for (const auto& [k, v] : records_) n += v.size();
  return n;
}

}  // namespace marea::mw
