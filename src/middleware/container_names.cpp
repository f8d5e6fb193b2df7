// Name management (paper §3): directory cache upkeep, the query/reply
// fallback path for cold lookups, and the periodic rebinding loop that
// re-resolves orphaned subscriptions after provider changes.
#include "middleware/container.h"

namespace marea::mw {

void ServiceContainer::on_name_query(proto::ContainerId from,
                                     transport::Address addr,
                                     const proto::NameQueryMsg& msg) {
  ensure_peer(from, addr);
  // Answer only if one of our local services provides the item.
  const Service* owner = nullptr;
  for_each_table([&](proto::ItemKind kind, auto& table) {
    auto* prov = kind == msg.kind ? provision(table, msg.name) : nullptr;
    if (prov) owner = prov->owner;
  });
  if (!owner) return;
  proto::NameReplyMsg reply;
  reply.query_id = msg.query_id;
  reply.found = true;
  reply.provider = config_.id;
  reply.data_port = config_.data_port;
  reply.service = owner->name();
  send_msg(addr, proto::MsgType::kNameReply, reply);
}

void ServiceContainer::send_name_query(proto::ItemKind kind,
                                       const std::string& name,
                                       TimePoint& last_query) {
  // The debounce bounds BROADCAST RATE ON THE MEDIUM, so it is keyed to
  // the transport's clock, not the executor's. In simulation they are
  // the same virtual clock; on the live stack the executor may sit idle
  // between bursts of posted work (a rebind storm after a gateway
  // restart lands as one dense batch), and only the wall clock pacing
  // the network can meter what actually hits the wire.
  const Clock* net_clock = transport_.clock();
  const TimePoint t = net_clock ? net_clock->now() : now();
  if (t - last_query < config_.resubscribe_interval) return;
  last_query = t;
  proto::NameQueryMsg msg;
  msg.query_id = next_request_id_++;
  msg.kind = kind;
  msg.name = name;
  stats_.name_queries_sent++;
  broadcast_msg(proto::MsgType::kNameQuery, msg);
}

void ServiceContainer::resubscribe_tick() {
  if (!running_) return;
  // Subscriptions a handler emptied while they were being walked.
  auto retire_emptied = [this](auto& table) {
    for (auto it = table.begin(); it != table.end();) {
      auto cur = it++;
      if (cur->second.sub && cur->second.sub->retirable()) {
        retire_subscription(cur);
      }
    }
  };
  retire_emptied(vars_);
  retire_emptied(events_);
  retire_emptied(files_);
  rebind_after_directory_change();
  resub_timer_.arm(executor_, config_.resubscribe_interval,
                   sched::Priority::kBackground,
                   [this] { resubscribe_tick(); });
}

void ServiceContainer::rebind_after_directory_change() {
  auto bind_all = [this](auto& table) {
    for (auto& [name, e] : table) {
      if (e.sub) try_bind(e);
    }
  };
  bind_all(vars_);
  bind_all(events_);
  bind_all(files_);
}

}  // namespace marea::mw
