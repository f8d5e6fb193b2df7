#include "sim/network.h"

#include <algorithm>
#include <cassert>

namespace marea::sim {

namespace {
constexpr Duration kLocalDeliveryLatency = microseconds(5);
}

SimNetwork::SimNetwork(Simulator& sim, Rng rng, LinkParams default_link)
    : sim_(sim), rng_(rng), default_link_(default_link) {}

NodeId SimNetwork::add_node(std::string name) {
  Node n;
  n.name = std::move(name);
  n.egress_bps = default_link_.rate_bps;
  nodes_.push_back(std::move(n));
  const NodeId id = static_cast<NodeId>(nodes_.size() - 1);
  // Interest-scoping indexes (the grid registers a node's owner before
  // replicating it, so the router can already answer for `id`).
  if (!router_ || router_->is_local(id)) local_nodes_.push_back(id);
  if (router_) {
    if (shard_node_counts_.empty()) {
      shard_node_counts_.resize(router_->shard_count(), 0);
    }
    shard_node_counts_[router_->owner_shard(id)]++;
  }
  return id;
}

void SimNetwork::set_node_rate(NodeId id, double bps) {
  nodes_.at(id).egress_bps = bps;
}

const std::string& SimNetwork::node_name(NodeId id) const {
  return nodes_.at(id).name;
}

void SimNetwork::set_link(NodeId a, NodeId b, LinkParams p) {
  links_[{a, b}] = p;
  links_version_++;
}

LinkParams SimNetwork::link(NodeId a, NodeId b) const {
  auto it = links_.find({a, b});
  return it == links_.end() ? default_link_ : it->second;
}

void SimNetwork::set_node_up(NodeId id, bool up) {
  Node& node = nodes_.at(id);
  if (node.up == up) return;
  node.up = up;
  if (trace_) {
    trace_->record(sim_.now(),
                   up ? obs::TraceEvent::kRestart : obs::TraceEvent::kCrash,
                   obs::TraceKind::kNode, id);
  }
  if (!up) {
    // Anything already in flight toward this node captured the previous
    // epoch and is discarded on arrival — a powered-off NIC receives
    // nothing, even packets that left the sender before the failure.
    node.up_epoch++;
    // A dead node also falls out of its multicast groups (the switch
    // stops forwarding); park them for a consistent restore. The node's
    // reverse index names exactly the memberships to pull — O(own
    // groups), not a sweep over every group's member vector. The
    // interest digest is untouched: it counts live + parked members, so
    // non-owner replicas (which never see this node's member list)
    // need no update.
    for (const auto& [group, member] : node.memberships) {
      auto it = groups_.find(group);
      if (it != groups_.end()) {
        auto& members = it->second;
        members.erase(std::remove(members.begin(), members.end(), member),
                      members.end());
        if (members.empty()) groups_.erase(it);
      }
      node.parked_groups.emplace_back(group, member);
    }
    node.memberships.clear();
  } else {
    for (const auto& [group, member] : node.parked_groups) {
      auto& members = groups_[group];
      if (std::find(members.begin(), members.end(), member) ==
          members.end()) {
        members.push_back(member);
        node.memberships.emplace_back(group, member);
      }
    }
    node.parked_groups.clear();
  }
}
bool SimNetwork::node_up(NodeId id) const { return nodes_.at(id).up; }

void SimNetwork::set_link_faults(NodeId a, NodeId b, LinkFaults f) {
  faults_[{a, b}] = FaultState{f, false};
  if (trace_) {
    trace_->record(sim_.now(), obs::TraceEvent::kDegrade,
                   obs::TraceKind::kChaos, a, a, b);
  }
}

void SimNetwork::clear_link_faults(NodeId a, NodeId b) {
  if (faults_.erase({a, b}) > 0 && trace_) {
    trace_->record(sim_.now(), obs::TraceEvent::kRestore,
                   obs::TraceKind::kChaos, a, a, b);
  }
}

void SimNetwork::clear_all_faults() {
  if (!faults_.empty() && trace_) {
    trace_->record(sim_.now(), obs::TraceEvent::kRestore,
                   obs::TraceKind::kChaos, 0, 0, 0);
  }
  faults_.clear();
}

void SimNetwork::set_radio_faults(NodeId a, NodeId b, LinkFaults f) {
  // No per-update trace records: the radio model re-applies every tick
  // and would flood the flight recorder; link quality is published as
  // gauges instead. Assigning only the parameters keeps the GE channel
  // phase across ticks.
  radio_faults_[{a, b}].faults = f;
}

void SimNetwork::clear_radio_faults(NodeId a, NodeId b) {
  radio_faults_.erase({a, b});
}

void SimNetwork::partition(const std::vector<NodeId>& a,
                           const std::vector<NodeId>& b) {
  for (NodeId x : a) {
    for (NodeId y : b) {
      if (x != y) blocked_.insert(ordered_pair(x, y));
    }
  }
  if (trace_) {
    trace_->record(sim_.now(), obs::TraceEvent::kPartition,
                   obs::TraceKind::kChaos, a.empty() ? 0 : a.front(),
                   a.size(), b.size());
  }
}

void SimNetwork::heal() {
  if (!blocked_.empty() && trace_) {
    trace_->record(sim_.now(), obs::TraceEvent::kHeal, obs::TraceKind::kChaos,
                   0);
  }
  blocked_.clear();
}

Status SimNetwork::bind_frames(Endpoint ep, FrameHandler handler) {
  if (ep.node >= nodes_.size()) {
    return invalid_argument_error("bind_frames: unknown node");
  }
  if (!handler) return invalid_argument_error("bind_frames: empty handler");
  if (!bindings_.emplace(ep, std::move(handler)).second) {
    return already_exists_error("bind_frames: endpoint in use");
  }
  return Status::ok();
}

void SimNetwork::unbind(Endpoint ep) { bindings_.erase(ep); }

Status SimNetwork::join_group(GroupId group, Endpoint member) {
  if (router_ && !router_->is_local(member.node)) {
    // Remote-homed member joined via this replica (tests drive this;
    // middleware always joins at the owner): account the digest and
    // ship the delta — the owner applies the member list at the next
    // barrier. No duplicate check is possible here, so such ops must
    // be issued at most once.
    digest_adjust(true, group, router_->owner_shard(member.node));
    router_->post_group_op(true, group, member, sim_.now());
    return Status::ok();
  }
  auto& members = groups_[group];
  if (std::find(members.begin(), members.end(), member) != members.end()) {
    return already_exists_error("join_group: already a member");
  }
  members.push_back(member);
  if (member.node < nodes_.size()) {
    nodes_[member.node].memberships.emplace_back(group, member);
  }
  if (router_) {
    digest_adjust(true, group, router_->self_shard());
    router_->post_group_op(true, group, member, sim_.now());
  }
  return Status::ok();
}

void SimNetwork::leave_group(GroupId group, Endpoint member) {
  if (router_ && !router_->is_local(member.node)) {
    digest_adjust(false, group, router_->owner_shard(member.node));
    router_->post_group_op(false, group, member, sim_.now());
    return;
  }
  // A no-op leave (never a member, live or parked) ships nothing: the
  // replicated digests only ever count real membership changes.
  if (!remove_membership(group, member)) return;
  if (router_) {
    digest_adjust(false, group, router_->self_shard());
    router_->post_group_op(false, group, member, sim_.now());
  }
}

void SimNetwork::apply_group_op(bool join, GroupId group, Endpoint member) {
  if (join) {
    auto& members = groups_[group];
    if (std::find(members.begin(), members.end(), member) == members.end()) {
      members.push_back(member);
      if (member.node < nodes_.size()) {
        nodes_[member.node].memberships.emplace_back(group, member);
      }
      if (router_) digest_adjust(true, group, router_->self_shard());
    }
    return;
  }
  if (remove_membership(group, member) && router_) {
    digest_adjust(false, group, router_->self_shard());
  }
}

void SimNetwork::apply_group_digest(bool join, GroupId group,
                                    uint32_t owner_shard) {
  digest_adjust(join, group, owner_shard);
}

bool SimNetwork::remove_membership(GroupId group, Endpoint member) {
  bool removed = false;
  if (member.node < nodes_.size()) {
    // The membership may be parked while the node is down.
    auto& parked = nodes_[member.node].parked_groups;
    const size_t parked_before = parked.size();
    parked.erase(std::remove(parked.begin(), parked.end(),
                             std::make_pair(group, member)),
                 parked.end());
    removed = parked.size() != parked_before;
    auto& index = nodes_[member.node].memberships;
    index.erase(std::remove(index.begin(), index.end(),
                            std::make_pair(group, member)),
                index.end());
  }
  auto it = groups_.find(group);
  if (it == groups_.end()) return removed;
  auto& members = it->second;
  const size_t before = members.size();
  members.erase(std::remove(members.begin(), members.end(), member),
                members.end());
  if (members.size() != before) removed = true;
  if (members.empty()) groups_.erase(it);
  return removed;
}

void SimNetwork::digest_adjust(bool join, GroupId group, uint32_t shard) {
  auto& counts = group_shards_[group];
  if (counts.size() <= shard) {
    counts.resize(router_ ? router_->shard_count() : shard + 1, 0);
  }
  if (join) {
    counts[shard]++;
  } else if (counts[shard] > 0) {
    counts[shard]--;
  }
}

uint32_t SimNetwork::group_shard_members(GroupId group, uint32_t shard) const {
  auto it = group_shards_.find(group);
  if (it == group_shards_.end() || shard >= it->second.size()) return 0;
  return it->second[shard];
}

std::vector<Endpoint> SimNetwork::group_members(GroupId group) const {
  auto it = groups_.find(group);
  return it == groups_.end() ? std::vector<Endpoint>{} : it->second;
}

Duration SimNetwork::serialization_delay(NodeId node, size_t bytes) const {
  double bps = nodes_[node].egress_bps;
  if (bps <= 0) return kDurationZero;
  return seconds(static_cast<double>(bytes) * 8.0 / bps);
}

Status SimNetwork::check_send(const char* what, Endpoint from, size_t size)
    const {
  if (from.node >= nodes_.size()) {
    return invalid_argument_error(std::string(what) + ": unknown node");
  }
  if (size > mtu_) {
    return invalid_argument_error(std::string(what) +
                                  ": datagram exceeds MTU");
  }
  if (!nodes_[from.node].up) {
    return unavailable_error(std::string(what) + ": node down");
  }
  return Status::ok();
}

SharedFrame SimNetwork::ingress_frame(BytesView data) {
  uint64_t allocs_before = pool_.stats().slab_allocs;
  SharedFrame frame = pool_.copy_in(data);
  total_.payload_allocs += pool_.stats().slab_allocs - allocs_before;
  total_.payload_copies++;
  total_.payload_bytes_copied += data.size();
  return frame;
}

Status SimNetwork::send(Endpoint from, Endpoint to, SharedFrame frame) {
  Status s = check_send("send", from, frame.size());
  if (!s.is_ok()) return s;
  if (to.node >= nodes_.size()) {
    return invalid_argument_error("send: unknown node");
  }

  if (from.node == to.node) {
    local_deliver(from, to, frame);
    return Status::ok();
  }
  const TimePoint on_wire = begin_transmit(from, frame.size());
  if (router_ && !router_->is_local(to.node)) {
    router_->post_remote(
        router_->owner_shard(to.node),
        RemoteXmit{XmitKind::kUnicast, on_wire, from, to, 0}, frame.view());
    return Status::ok();
  }
  wire_deliver(from, to, on_wire, frame);
  return Status::ok();
}

Status SimNetwork::send_multicast(Endpoint from, GroupId group,
                                  SharedFrame frame) {
  Status s = check_send("send_multicast", from, frame.size());
  if (!s.is_ok()) return s;
  // Interest scoping: local members from this replica's own list, remote
  // interest from the per-shard digest — the fan-out never touches a
  // shard without members, and per-publish cost scales with interested
  // parties, not fleet size.
  scratch_dests_.clear();
  if (auto it = groups_.find(group); it != groups_.end()) {
    for (Endpoint member : it->second) {
      if (member != from) scratch_dests_.push_back(member);
    }
  }
  scratch_shards_.clear();
  if (router_) {
    if (auto it = group_shards_.find(group); it != group_shards_.end()) {
      const uint32_t self = router_->self_shard();
      const auto& counts = it->second;
      for (uint32_t shard = 0; shard < counts.size(); ++shard) {
        if (shard != self && counts[shard] > 0) {
          scratch_shards_.push_back(shard);
        }
      }
    }
  }
  if (scratch_dests_.empty() && scratch_shards_.empty()) {
    total_.packets_unroutable++;
    return Status::ok();  // multicast with no listeners is not an error
  }
  const TimePoint on_wire = begin_transmit(from, frame.size());
  for (Endpoint dst : scratch_dests_) {
    if (dst.node == from.node) {
      // Member co-located with the sender: local delivery, sharing the
      // same frame as every wire destination.
      local_deliver(from, dst, frame);
    } else {
      wire_deliver(from, dst, on_wire, frame);
    }
  }
  if (!scratch_dests_.empty()) total_.fanout_shards_touched++;
  for (uint32_t shard : scratch_shards_) {
    router_->post_remote(shard,
                         RemoteXmit{XmitKind::kMulticast, on_wire, from,
                                    Endpoint{}, group},
                         frame.view());
    total_.fanout_shards_touched++;
  }
  return Status::ok();
}

Status SimNetwork::send_broadcast(Endpoint from, uint16_t port,
                                  SharedFrame frame) {
  Status s = check_send("send_broadcast", from, frame.size());
  if (!s.is_ok()) return s;
  // Broadcast's interest set is every node, but the sender still only
  // walks its own shard's node list; one record per populated remote
  // shard carries the fan-out across the boundary.
  scratch_dests_.clear();
  for (NodeId n : local_nodes_) {
    if (n == from.node) continue;
    scratch_dests_.push_back(Endpoint{n, port});
  }
  scratch_shards_.clear();
  if (router_) {
    const uint32_t self = router_->self_shard();
    for (uint32_t shard = 0; shard < shard_node_counts_.size(); ++shard) {
      if (shard != self && shard_node_counts_[shard] > 0) {
        scratch_shards_.push_back(shard);
      }
    }
  }
  if (scratch_dests_.empty() && scratch_shards_.empty()) return Status::ok();
  const TimePoint on_wire = begin_transmit(from, frame.size());
  for (Endpoint dst : scratch_dests_) {
    wire_deliver(from, dst, on_wire, frame);
  }
  if (!scratch_dests_.empty()) total_.fanout_shards_touched++;
  for (uint32_t shard : scratch_shards_) {
    router_->post_remote(
        shard,
        RemoteXmit{XmitKind::kBroadcast, on_wire, from,
                   Endpoint{kInvalidNode, port}, 0},
        frame.view());
    total_.fanout_shards_touched++;
  }
  return Status::ok();
}

TimePoint SimNetwork::begin_transmit(Endpoint from, size_t size) {
  Node& src = nodes_[from.node];
  // Egress serialization: the packet leaves the NIC when the serializer
  // is free; multicast/broadcast pay this once regardless of fan-out.
  const TimePoint start = std::max(sim_.now(), src.egress_free);
  const TimePoint on_wire = start + serialization_delay(from.node, size);
  src.egress_free = on_wire;
  total_.packets_sent++;
  total_.bytes_sent += size;
  src.stats.packets_sent++;
  src.stats.bytes_sent += size;
  return on_wire;
}

void SimNetwork::local_deliver(Endpoint from, Endpoint dst,
                               const SharedFrame& frame) {
  // Same-node delivery: bypasses the wire entirely. The scheduled
  // closure shares the frame — no payload bytes move.
  total_.local_packets++;
  total_.local_bytes += frame.size();
  nodes_[from.node].stats.local_packets++;
  nodes_[from.node].stats.local_bytes += frame.size();
  const uint64_t epoch = nodes_[dst.node].up_epoch;
  sim_.after(kLocalDeliveryLatency, [this, from, dst, epoch, frame]() {
    deliver(from, dst, frame, epoch);
  });
}

void SimNetwork::wire_deliver(Endpoint from, Endpoint dst, TimePoint on_wire,
                              const SharedFrame& frame) {
  // Clean links (no partition, no fault) skip the hash lookups.
  if (!blocked_.empty() && blocked_.count(ordered_pair(from.node, dst.node))) {
    total_.packets_partitioned++;
    nodes_[dst.node].stats.packets_partitioned++;
    trace_drop(from.node, dst.node, kDropPartitioned);
    return;
  }
  const LinkParams lp = link(from.node, dst.node);
  if (rng_.bernoulli(lp.loss)) {
    total_.packets_dropped++;
    nodes_[dst.node].stats.packets_dropped++;
    trace_drop(from.node, dst.node, kDropLoss);
    return;
  }
  // Refcount bump; apply_faults swaps in a mutated pooled copy only
  // when the corruption fault actually fires for this destination.
  SharedFrame pkt = frame;
  Duration extra = kDurationZero;
  int copies = 1;
  if (!apply_faults(from.node, dst.node, pkt, extra, copies)) {
    total_.packets_dropped++;
    nodes_[dst.node].stats.packets_dropped++;
    trace_drop(from.node, dst.node, kDropLoss);
    return;
  }
  Duration prop = lp.latency;
  if (lp.jitter.ns > 0) {
    prop = prop + Duration{static_cast<int64_t>(
                      rng_.next_double() *
                      static_cast<double>(lp.jitter.ns))};
  }
  // Per-link FIFO clamp: the wire is a variable-delay pipe, so a
  // packet never arrives before one sent earlier on the same directed
  // link — even when latency/jitter just dropped (continuous radio
  // updates). The reorder fault's extra delay is added after the
  // clamp; overtaking is exactly what that fault is for. All draws and
  // the clamp run on the cell that owns `dst`, so a directed link has
  // one stochastic home whether or not the sender is remote.
  TimePoint base = on_wire + prop;
  auto& lf = nodes_[dst.node].last_from;
  if (lf.size() <= from.node) lf.resize(nodes_.size());
  TimePoint& last = lf[from.node];
  if (base < last) base = last;
  last = base;
  base = base + extra;
  const uint64_t epoch = nodes_[dst.node].up_epoch;
  for (int c = 0; c < copies; ++c) {
    // Duplicates trail the original slightly so they genuinely reorder
    // against traffic behind them. All scheduled deliveries share pkt;
    // the last one takes it over instead of bumping its refcount.
    TimePoint arrival = base + kLocalDeliveryLatency * c;
    // Arrivals in the past are possible only for drained cross-shard
    // records after a mid-run latency change violated the lookahead
    // contract; clamp deterministically instead of corrupting causality.
    if (arrival < sim_.now()) arrival = sim_.now();
    SharedFrame share = c + 1 < copies ? SharedFrame(pkt) : std::move(pkt);
    sim_.at(arrival, [this, from, dst, epoch, share = std::move(share)]() {
      deliver(from, dst, share, epoch);
    });
  }
}

void SimNetwork::expand_remote(const RemoteXmit& x, BytesView bytes) {
  // One pooled ingress copy per (transmission, this shard); every
  // destination expanded below shares the slab, exactly like
  // sender-side fan-out.
  SharedFrame frame = ingress_frame(bytes);
  switch (x.kind) {
    case XmitKind::kUnicast:
      wire_deliver(x.from, x.to, x.on_wire, frame);
      break;
    case XmitKind::kMulticast: {
      auto it = groups_.find(x.group);
      if (it == groups_.end()) break;  // members left since the digest post
      for (Endpoint member : it->second) {
        if (member.node == x.from.node) continue;  // sender is never local
        wire_deliver(x.from, member, x.on_wire, frame);
      }
      break;
    }
    case XmitKind::kBroadcast:
      for (NodeId n : local_nodes_) {
        if (n == x.from.node) continue;
        wire_deliver(x.from, Endpoint{n, x.to.port}, x.on_wire, frame);
      }
      break;
  }
}

bool SimNetwork::apply_faults(NodeId from, NodeId to, SharedFrame& pkt,
                              Duration& extra_delay, int& copies) {
  if (faults_.empty() && radio_faults_.empty()) return true;
  if (auto it = faults_.find({from, to}); it != faults_.end()) {
    if (!apply_fault_state(it->second, pkt, extra_delay, copies)) return false;
  }
  if (auto it = radio_faults_.find({from, to}); it != radio_faults_.end()) {
    if (!apply_fault_state(it->second, pkt, extra_delay, copies)) return false;
  }
  return true;
}

bool SimNetwork::apply_fault_state(FaultState& st, SharedFrame& pkt,
                                   Duration& extra_delay, int& copies) {
  const LinkFaults& f = st.faults;
  if (f.p_good_bad > 0) {
    // Advance the Gilbert–Elliott channel one step per packet.
    if (st.in_bad_state) {
      if (rng_.bernoulli(f.p_bad_good)) st.in_bad_state = false;
    } else if (rng_.bernoulli(f.p_good_bad)) {
      st.in_bad_state = true;
    }
    if (rng_.bernoulli(st.in_bad_state ? f.loss_bad : f.loss_good)) {
      return false;
    }
  }
  if (f.corrupt > 0 && rng_.bernoulli(f.corrupt) && pkt.size() > 0) {
    // Corruption needs mutable bytes: the one case where a destination
    // stops sharing the sender's slab and pays for a private copy.
    uint64_t allocs_before = pool_.stats().slab_allocs;
    FrameLease lease = pool_.acquire(pkt.size());
    Buffer& data = lease.buffer();
    data.assign(pkt.view().begin(), pkt.view().end());
    data[rng_.uniform(0, data.size() - 1)] ^=
        static_cast<uint8_t>(1u << rng_.uniform(0, 7));
    total_.payload_allocs += pool_.stats().slab_allocs - allocs_before;
    total_.payload_copies++;
    total_.payload_bytes_copied += data.size();
    pkt = std::move(lease).freeze();
    total_.packets_corrupted++;
  }
  if (f.reorder > 0 && rng_.bernoulli(f.reorder)) {
    extra_delay = f.reorder_delay;
    total_.packets_reordered++;
  }
  if (f.duplicate > 0 && rng_.bernoulli(f.duplicate)) {
    copies = 2;
    total_.packets_duplicated++;
  }
  return true;
}

void SimNetwork::deliver(Endpoint from, Endpoint to, const SharedFrame& frame,
                         uint64_t dest_epoch) {
  if (nodes_[to.node].up_epoch != dest_epoch) {
    // The destination went down (and possibly came back) while this packet
    // was in flight: it was lost on the dead NIC.
    total_.packets_stale_dropped++;
    nodes_[to.node].stats.packets_stale_dropped++;
    trace_drop(from.node, to.node, kDropStale);
    return;
  }
  if (!nodes_[to.node].up) {
    total_.packets_unroutable++;
    nodes_[to.node].stats.packets_unroutable++;
    trace_drop(from.node, to.node, kDropUnroutable);
    return;
  }
  auto it = bindings_.find(to);
  if (it == bindings_.end()) {
    total_.packets_unroutable++;
    nodes_[to.node].stats.packets_unroutable++;
    trace_drop(from.node, to.node, kDropUnroutable);
    return;
  }
  total_.packets_delivered++;
  total_.bytes_delivered += frame.size();
  nodes_[to.node].stats.packets_delivered++;
  nodes_[to.node].stats.bytes_delivered += frame.size();
  it->second(from, frame);
}

const TrafficStats& SimNetwork::node_stats(NodeId id) const {
  return nodes_.at(id).stats;
}

void SimNetwork::reset_stats() {
  total_ = TrafficStats{};
  for (auto& n : nodes_) n.stats = TrafficStats{};
}

}  // namespace marea::sim
