// Simulated datagram network: the laptop substitute for the UAV's onboard
// Ethernet/radio segment (see DESIGN.md §2).
//
// Model
//  * Nodes are endpoints of a shared segment; each directed node pair has
//    link parameters (propagation latency, jitter, random loss, rate).
//  * Each node has one egress serializer: packets queue and pay
//    size*8/rate_bps of serialization delay — so bulk transfers genuinely
//    contend with latency-critical traffic, which bench C9 relies on.
//  * Multicast/broadcast pay egress serialization ONCE and fan out at the
//    receivers — the §4.1 bandwidth claim under test in bench C2/C4.
//  * Unicast between ports of the same node is a local delivery: tiny fixed
//    latency, not counted as wire traffic (the §4.4 bypass baseline).
//  * Per-node and global byte/packet accounting, loss injection, node
//    up/down and partitions for failover experiments.
//  * Fault model per directed link (chaos experiments): Gilbert–Elliott
//    bursty loss, duplication, reordering, payload corruption (caught by
//    the frame CRC), plus first-class bidirectional partitions.
//  * Frames only: one bind (bind_frames) and one send per operation, each
//    carrying a pooled, refcounted SharedFrame that every destination
//    shares. Address and FrameRecvHandler are the Transport contract's
//    (util/address.h), so SimTransport binds a handler here unchanged.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "obs/trace.h"
#include "sim/simulator.h"
#include "util/address.h"
#include "util/bytes.h"
#include "util/frame_pool.h"
#include "util/rng.h"
#include "util/status.h"
#include "util/time.h"

namespace marea::sim {

using NodeId = uint32_t;
constexpr NodeId kInvalidNode = UINT32_MAX;

struct LinkParams {
  Duration latency = microseconds(200);  // one-way propagation
  Duration jitter = kDurationZero;       // uniform [0, jitter] added
  double loss = 0.0;                     // independent drop probability
  double rate_bps = 100e6;               // egress rate; 0 = infinite
};

// Degraded-radio fault model for one directed link, layered on top of the
// independent LinkParams.loss. All probabilities are per packet.
struct LinkFaults {
  // Gilbert–Elliott two-state loss: the link flips between a good and a
  // bad (burst) state with the given transition probabilities, and drops
  // with the state's loss rate. p_good_bad == 0 disables the model.
  double p_good_bad = 0.0;
  double p_bad_good = 0.25;
  double loss_good = 0.0;
  double loss_bad = 0.9;
  // An extra copy of the packet is delivered (duplicated ACK/retransmit
  // interactions are a classic ARQ hazard).
  double duplicate = 0.0;
  // The packet is held back by `reorder_delay`, letting later packets
  // overtake it.
  double reorder = 0.0;
  Duration reorder_delay = milliseconds(2);
  // One payload byte is flipped in transit; the frame CRC must catch it.
  double corrupt = 0.0;

  bool any() const {
    return p_good_bad > 0 || duplicate > 0 || reorder > 0 || corrupt > 0;
  }
};

// One cross-shard wire transmission. The sender's shard serializes the
// packet once (egress delay, packets_sent) and posts ONE record per
// destination shard with interested parties; the destination shard
// expands it against its own replicated tables when it drains the
// mailbox — per-destination draws (loss, faults, jitter, FIFO clamp)
// run against the destination cell's RNG, which is also where every
// intra-shard packet on the same directed link draws, so each link has
// exactly one stochastic home regardless of topology.
enum class XmitKind : uint8_t { kUnicast = 0, kMulticast = 1, kBroadcast = 2 };

struct RemoteXmit {
  XmitKind kind = XmitKind::kUnicast;
  TimePoint on_wire;  // sender egress completion (post-serialization)
  Address from;
  Address to;         // unicast: destination; broadcast: port in to.port
  GroupId group = 0;  // multicast: the addressed group
};

// Hook the parallel ShardGrid installs on each shard's network replica
// (see sim/shard.h). When set, sends destined for nodes owned by
// another shard post a RemoteXmit to the grid's mailboxes (payload
// copied once per destination shard), and group membership changes are
// forwarded for delta replication. Null (the default) means unsharded:
// every node is local.
class ShardRouter {
 public:
  virtual ~ShardRouter() = default;
  virtual bool is_local(NodeId node) const = 0;
  virtual uint32_t self_shard() const = 0;
  virtual uint32_t shard_count() const = 0;
  virtual uint32_t owner_shard(NodeId node) const = 0;
  virtual void post_remote(uint32_t dst_shard, const RemoteXmit& x,
                           BytesView bytes) = 0;
  virtual void post_group_op(bool join, GroupId group, Address member,
                             TimePoint time) = 0;
};

struct TrafficStats {
  uint64_t packets_sent = 0;      // handed to the wire (post-queue)
  uint64_t bytes_sent = 0;        // wire bytes (multicast counted once)
  uint64_t packets_delivered = 0; // arrived at a bound receiver
  uint64_t bytes_delivered = 0;
  uint64_t packets_dropped = 0;   // lost in transit
  uint64_t packets_unroutable = 0;  // no receiver bound / node down
  uint64_t local_packets = 0;     // same-node deliveries (no wire)
  uint64_t local_bytes = 0;
  uint64_t packets_partitioned = 0; // blocked by an active partition
  uint64_t packets_duplicated = 0;  // extra copies injected
  uint64_t packets_reordered = 0;   // held back by the reorder fault
  uint64_t packets_corrupted = 0;   // delivered with a flipped byte
  uint64_t packets_stale_dropped = 0;  // in flight when the dest went down
  // Datapath efficiency counters: payload buffer heap allocations and
  // whole-payload copies performed inside the network layer — only the
  // cross-shard expansion copies; frame sends make none (bench_hotpath
  // divides these by samples to get allocs/copies per publish-fanout
  // sample).
  uint64_t payload_allocs = 0;
  uint64_t payload_copies = 0;
  uint64_t payload_bytes_copied = 0;
  // Interest scoping: how many shards (own cell included) each
  // multicast/broadcast actually fanned out to. A multicast to a group
  // whose members all live on one shard bumps this by exactly 1.
  uint64_t fanout_shards_touched = 0;
};

class SimNetwork {
 public:
  SimNetwork(Simulator& sim, Rng rng, LinkParams default_link = {});

  // --- topology -----------------------------------------------------------
  NodeId add_node(std::string name);
  const std::string& node_name(NodeId id) const;
  size_t node_count() const { return nodes_.size(); }

  void set_default_link(LinkParams p) {
    default_link_ = p;
    links_version_++;
  }
  // Directed override a -> b.
  void set_link(NodeId a, NodeId b, LinkParams p);
  // Symmetric convenience.
  void set_link_symmetric(NodeId a, NodeId b, LinkParams p) {
    set_link(a, b, p);
    set_link(b, a, p);
  }
  LinkParams link(NodeId a, NodeId b) const;

  // Egress serialization rate of one node's NIC (default: default_link rate
  // at add_node time).
  void set_node_rate(NodeId id, double bps);

  // A down node neither sends nor receives; packets already in flight
  // toward it when it goes down are dropped (they would hit a dead NIC).
  // Its multicast group memberships are parked and restored on the next
  // set_node_up(true).
  void set_node_up(NodeId id, bool up);
  bool node_up(NodeId id) const;

  // --- fault injection ----------------------------------------------------
  // Directed fault overlay a -> b; replaces any previous faults on the pair.
  void set_link_faults(NodeId a, NodeId b, LinkFaults f);
  void set_link_faults_symmetric(NodeId a, NodeId b, LinkFaults f) {
    set_link_faults(a, b, f);
    set_link_faults(b, a, f);
  }
  // Removes the overlay (GE state included) from a -> b.
  void clear_link_faults(NodeId a, NodeId b);
  void clear_all_faults();

  // Second, independent fault overlay slot driven by the RadioModel's
  // continuous updates (sim/radio.h). Scripted chaos owns the
  // set_link_faults slot; mobility-driven fading owns this one, so the
  // two compose per packet (chaos draws first, then radio) and
  // clear_all_faults() — chaos cleanup — leaves radio fading intact.
  // Re-applying faults with identical parameters preserves the
  // Gilbert–Elliott channel state (the fade keeps its burst phase
  // across radio ticks).
  void set_radio_faults(NodeId a, NodeId b, LinkFaults f);
  void set_radio_faults_symmetric(NodeId a, NodeId b, LinkFaults f) {
    set_radio_faults(a, b, f);
    set_radio_faults(b, a, f);
  }
  void clear_radio_faults(NodeId a, NodeId b);

  // Bidirectional partition: no packet crosses between a member of `a` and
  // a member of `b` until healed. Partitions stack; heal() removes all.
  void partition(const std::vector<NodeId>& a, const std::vector<NodeId>& b);
  void heal();
  bool partitioned(NodeId a, NodeId b) const {
    return blocked_.count(ordered_pair(a, b)) > 0;
  }

  // Maximum datagram payload; larger sends fail with InvalidArgument.
  void set_mtu(size_t mtu) { mtu_ = mtu; }
  size_t mtu() const { return mtu_; }

  // --- binding ------------------------------------------------------------
  // The handler receives the in-flight frame's reference by move.
  Status bind_frames(Address ep, FrameRecvHandler handler);
  void unbind(Address ep);
  Status join_group(GroupId group, Address member);
  void leave_group(GroupId group, Address member);

  // --- sending ------------------------------------------------------------
  // Frames only: a pre-built frame moves through the network with zero
  // payload copies — every destination and every in-flight delivery
  // shares the same slab. A sender that starts from bytes copies them in
  // once itself (frame_pool().copy_in).
  Status send(Address from, Address to, SharedFrame frame);
  // One egress serialization; delivered to every member bound to `group`
  // (including members on the sender's node, delivered locally) except the
  // sending endpoint itself.
  Status send_multicast(Address from, GroupId group, SharedFrame frame);
  // Delivered to `port` on every up node except the sender's.
  Status send_broadcast(Address from, uint16_t port, SharedFrame frame);

  // Shared slab pool for frames crossing this network (senders build
  // frames here; receivers release them back).
  FramePool& frame_pool() { return pool_; }

  // The virtual clock pacing this network (Transport::clock()).
  const Clock& clock() const { return sim_; }

  // --- accounting ---------------------------------------------------------
  const TrafficStats& stats() const { return total_; }
  const TrafficStats& node_stats(NodeId id) const;
  void reset_stats();

  // --- sharding (parallel simulation) -------------------------------------
  // Installed by ShardGrid on each replica BEFORE any node is added;
  // see the ShardRouter comment. With a router set, this replica keeps
  // member lists only for groups' members homed on its own shard, plus
  // a per-group digest of member counts per shard (live + parked) that
  // send_multicast uses to post records only to interested shards.
  void set_shard_router(ShardRouter* router) { router_ = router; }

  // Entry point for transmissions drained from a cross-shard mailbox:
  // copies the payload ONCE into this network's own frame pool, expands
  // the destination set against this replica's tables (unicast target,
  // local group members, or local nodes for broadcast), and runs the
  // per-destination draws/schedule exactly like sender-side fan-out.
  // Arrivals in the past (possible only if the lookahead contract was
  // violated by a mid-run latency change) are clamped deterministically.
  void expand_remote(const RemoteXmit& x, BytesView bytes);

  // Applies a replicated membership change without re-forwarding it to
  // the router (exactly the local effect of join_group/leave_group).
  // In a sharded network, call only on the member's owner replica.
  void apply_group_op(bool join, GroupId group, Address member);
  // Digest-only replication for replicas that do NOT own the member:
  // adjusts the per-shard member count used for interest scoping.
  void apply_group_digest(bool join, GroupId group, uint32_t owner_shard);

  // Digest introspection (tests): members of `group` homed on `shard`
  // according to this replica (live + parked). Unsharded networks keep
  // no digest and always report 0.
  uint32_t group_shard_members(GroupId group, uint32_t shard) const;
  // Member endpoints this replica holds a list for (owner view when
  // sharded, the full group otherwise); empty when unknown.
  std::vector<Address> group_members(GroupId group) const;

  // Bumped by set_link/set_default_link; the grid re-derives its
  // lookahead when any replica's version moves.
  uint64_t links_version() const { return links_version_; }
  // Link-table introspection for the grid's O(overrides) lookahead scan.
  const std::map<std::pair<NodeId, NodeId>, LinkParams>& link_overrides()
      const {
    return links_;
  }
  const LinkParams& default_link_params() const { return default_link_; }

  // --- observability ------------------------------------------------------
  // Optional flight recorder: drops, partitions/heals, fault overlays
  // and node up/down transitions are recorded as trace events. Null
  // (the default) disables recording entirely.
  void set_trace(obs::TraceRing* trace) { trace_ = trace; }
  obs::TraceRing* trace() const { return trace_; }

  // Why a packet was dropped (TraceRecord::b of kNet kDrop records).
  enum DropReason : uint64_t {
    kDropLoss = 1,         // random/burst loss in transit
    kDropPartitioned = 2,  // blocked by an active partition
    kDropStale = 3,        // destination went down while in flight
    kDropUnroutable = 4,   // no receiver bound / node down
  };

 private:
  struct Node {
    std::string name;
    bool up = true;
    double egress_bps = 100e6;
    TimePoint egress_free{0};  // when the serializer becomes idle
    // Bumped every time the node goes down: in-flight packets captured an
    // older epoch and are dropped on arrival.
    uint64_t up_epoch = 0;
    // Reverse index: live (group, endpoint) memberships of this node, so
    // the dead-node park in set_node_up touches exactly this node's
    // groups instead of sweeping every group's member vector.
    std::vector<std::pair<GroupId, Address>> memberships;
    // Group memberships parked while the node is down.
    std::vector<std::pair<GroupId, Address>> parked_groups;
    // Last scheduled wire arrival into this node per sender (indexed by
    // sender NodeId; lazily sized on first delivery). wire_deliver()
    // clamps each packet's base arrival to this so mid-run latency or
    // jitter changes (continuous RadioModel updates) can never reorder
    // in-flight packets on a directed link — a radio channel is a FIFO
    // pipe whose delay varies, not a packet-swapping one. A flat
    // vector, not a hash map: the clamp runs once per delivery and was
    // the hottest lookup in fleet-scale profiles.
    std::vector<TimePoint> last_from;
    // Bound ports (a handful per node, so a scan). Each handler has its
    // own heap cell: binding another port while one runs never moves it.
    std::vector<std::pair<uint16_t, std::unique_ptr<FrameRecvHandler>>>
        ports;
    FrameRecvHandler* handler(uint16_t port) const {
      for (const auto& [p, h] : ports) {
        if (p == port) return h.get();
      }
      return nullptr;
    }
    TrafficStats stats;
  };

  struct FaultState {
    LinkFaults faults;
    bool in_bad_state = false;  // Gilbert–Elliott channel state
  };

  static std::pair<NodeId, NodeId> ordered_pair(NodeId a, NodeId b) {
    return a < b ? std::make_pair(a, b) : std::make_pair(b, a);
  }

  struct NodePairHash {
    size_t operator()(const std::pair<NodeId, NodeId>& p) const {
      uint64_t v = (static_cast<uint64_t>(p.first) << 32) | p.second;
      v *= 0x9E3779B97F4A7C15ull;  // Fibonacci mix: pairs are sequential
      return static_cast<size_t>(v ^ (v >> 29));
    }
  };

  Status check_send(const char* what, Address from, size_t size) const;
  // Copies a cross-shard record's bytes into a pooled frame, counting the
  // copy (and the pool miss, if any) in the payload_* stats.
  SharedFrame ingress_frame(BytesView data);
  // Starts one wire transmission from `from.host`: egress serialization
  // (paid once regardless of fan-out) + sent counters; returns the
  // instant the packet is fully on the wire.
  TimePoint begin_transmit(Address from, size_t size);
  // One destination of a wire transmission: partition check, loss/fault
  // draws, jitter, per-link FIFO clamp, then schedules deliver(). Used
  // by sender-side fan-out (local destinations) and by expand_remote
  // (destinations this shard owns) — identical semantics in both.
  void wire_deliver(Address from, Address dst, TimePoint on_wire,
                    const SharedFrame& frame);
  // Same-node delivery bypassing the wire (fixed tiny latency).
  void local_deliver(Address from, Address dst, const SharedFrame& frame);
  void deliver(Address from, Address to, SharedFrame frame,
               uint64_t dest_epoch);
  // Removes a live or parked membership (member list + reverse index);
  // returns whether anything was removed.
  bool remove_membership(GroupId group, Address member);
  // Per-shard member-count digest bookkeeping (sharded only).
  void digest_adjust(bool join, GroupId group, uint32_t shard);
  Duration serialization_delay(NodeId node, size_t bytes) const;
  // Applies both fault overlays (scripted chaos, then radio) for
  // from -> to; returns false when the packet is lost. Corruption
  // replaces `pkt` with a mutated pooled copy (the only case where a
  // destination stops sharing the sender's slab); may adjust
  // `extra_delay`/`copies`.
  bool apply_faults(NodeId from, NodeId to, SharedFrame& pkt,
                    Duration& extra_delay, int& copies);
  bool apply_fault_state(FaultState& st, SharedFrame& pkt,
                         Duration& extra_delay, int& copies);

  Simulator& sim_;
  Rng rng_;
  LinkParams default_link_;
  size_t mtu_ = 65507;
  std::vector<Node> nodes_;
  std::map<std::pair<NodeId, NodeId>, LinkParams> links_;
  std::unordered_map<std::pair<NodeId, NodeId>, FaultState, NodePairHash>
      faults_;
  std::unordered_map<std::pair<NodeId, NodeId>, FaultState, NodePairHash>
      radio_faults_;
  std::unordered_set<std::pair<NodeId, NodeId>, NodePairHash>
      blocked_;  // unordered node pairs
  // Member lists this replica owns: the whole group unsharded, only
  // members homed on this shard when a router is installed.
  std::unordered_map<GroupId, std::vector<Address>> groups_;
  // Sharded-only interest digest: per group, member count per shard
  // (live + parked). Maintained immediately for local changes, at
  // window barriers (via apply_group_digest) for remote ones.
  std::unordered_map<GroupId, std::vector<uint32_t>> group_shards_;
  // Nodes homed on this replica's shard (all nodes when unsharded):
  // broadcast fan-out and expansion iterate this, never the full table.
  std::vector<NodeId> local_nodes_;
  // Node count per shard (sharded only), so broadcast posts records
  // only to shards that actually host nodes.
  std::vector<uint32_t> shard_node_counts_;
  // Fan-out scratch, reused across sends (send paths never re-enter,
  // so one buffer of each is enough).
  std::vector<Address> scratch_dests_;
  std::vector<uint32_t> scratch_shards_;
  FramePool pool_{/*slab_reserve=*/2048, /*max_free=*/1024};
  TrafficStats total_;
  obs::TraceRing* trace_ = nullptr;
  ShardRouter* router_ = nullptr;
  uint64_t links_version_ = 0;

  void trace_drop(NodeId from, NodeId to, DropReason why) {
    if (trace_) {
      trace_->record(sim_.now(), obs::TraceEvent::kDrop, obs::TraceKind::kNet,
                     to, from, static_cast<uint64_t>(why));
    }
  }
};

}  // namespace marea::sim
