#include "middleware/directory.h"

#include <algorithm>

namespace marea::mw {

void NameDirectory::apply_hello(proto::ContainerId container,
                                transport::Address addr,
                                const proto::ContainerHelloMsg& hello) {
  // A hello replaces prior knowledge about its sender.
  (void)erase_container(container);
  auto& keys = container_keys_[container];
  for (const auto& svc : hello.services) {
    for (const auto& item : svc.items) {
      ProviderRecord rec;
      rec.container = container;
      rec.address = transport::Address{addr.host, hello.data_port};
      rec.service = svc.name;
      rec.schema_hash = item.schema_hash;
      rec.period_ns = item.period_ns;
      rec.validity_ns = item.validity_ns;
      rec.state = svc.state;
      tables_[static_cast<size_t>(item.kind)][item.name].push_back(rec);
      std::pair key{item.kind, item.name};
      if (std::find(keys.begin(), keys.end(), key) == keys.end()) {
        keys.push_back(std::move(key));
      }
    }
  }
  if (keys.empty()) container_keys_.erase(container);
}

size_t NameDirectory::erase_container(proto::ContainerId container) {
  auto idx = container_keys_.find(container);
  if (idx == container_keys_.end()) return 0;
  size_t affected = 0;
  // The per-container key index names exactly the entries to visit —
  // O(own records), not a sweep over every provider in the directory.
  for (const auto& [kind, name] : idx->second) {
    Table& table = tables_[static_cast<size_t>(kind)];
    auto it = table.find(name);
    if (it == table.end()) continue;
    if (std::erase_if(it->second, [&](const ProviderRecord& r) {
          return r.container == container;
        }) > 0) {
      affected++;
    }
    if (it->second.empty()) table.erase(it);
  }
  container_keys_.erase(idx);
  return affected;
}

std::span<const ProviderRecord> NameDirectory::records(
    proto::ItemKind kind, const std::string& name) const {
  const Table& table = tables_[static_cast<size_t>(kind)];
  auto it = table.find(name);
  if (it == table.end()) return {};
  return it->second;
}

size_t NameDirectory::usable_count(proto::ItemKind kind,
                                   const std::string& name) const {
  auto list = records(kind, name);
  return static_cast<size_t>(std::count_if(
      list.begin(), list.end(), [](const auto& r) { return r.usable(); }));
}

const ProviderRecord* NameDirectory::resolve(proto::ItemKind kind,
                                             const std::string& name) {
  for (const ProviderRecord& rec : records(kind, name)) {
    if (rec.usable()) {
      stats_.hits++;
      return &rec;
    }
  }
  stats_.misses++;
  return nullptr;
}

size_t NameDirectory::record_count() const {
  size_t n = 0;
  for (const Table& table : tables_) {
    for (const auto& [name, list] : table) n += list.size();
  }
  return n;
}

}  // namespace marea::mw
