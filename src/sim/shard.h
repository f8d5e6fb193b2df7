// Conservative (lookahead-based) parallel simulation fabric.
//
// A ShardGrid owns K cells, each a private {Observability, Simulator,
// SimNetwork} triple. Node tables are replicated into every cell's
// network (same NodeIds everywhere); each node is OWNED by exactly one
// shard — its bindings, executor and container live there. Virtual time
// advances in windows of length L = the minimum cross-shard link
// latency (the lookahead): within a window every shard runs
// independently, because no packet sent after the window opened can
// arrive before it closes (arrival >= send_time + L >= window_end).
//
// Cross-shard traffic (interest-scoped): the sender's shard serializes
// a transmission once and posts ONE record per destination shard with
// interested parties — the unicast target's owner, the shards a
// multicast group's member-count digest names, or every populated
// shard for broadcast. Records carry {kind, on_wire instant, payload}
// in a per-(src,dst) arena mailbox (payload copied once per shard, not
// per destination). Mailboxes are single-writer during a window (only
// the source shard's thread appends) and are exchanged at the window
// barrier; the destination drains them in deterministic order — source
// shard 0..K-1, FIFO within each — expanding each record against its
// own replicated tables: per-destination draws (loss, Gilbert–Elliott,
// jitter, FIFO clamp) run against the destination cell's RNG, which is
// also where intra-shard packets on the same directed link draw, so
// every link has exactly one stochastic home. Group membership
// replicates as deltas: the owner shard keeps the member list, every
// other shard only a per-group member-count digest (applied locally at
// once, remotely at the next barrier, like IGMP propagation delay).
// The result: a run with N worker threads is bit-identical to N=1 for
// the same shard decomposition — thread count is a throughput knob,
// never a semantics knob.
//
// Topology mutations (links, faults, partitions, node up/down) are NOT
// replicated automatically: apply them to every cell via
// for_each_network(), and only between run calls (at a "pause point").
// Changing cross-shard link latency below the current lookahead
// mid-run is unsupported; deliver_remote clamps such arrivals to the
// drain window deterministically rather than corrupting causality.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "obs/obs.h"
#include "sim/network.h"
#include "sim/simulator.h"
#include "util/rng.h"
#include "util/time.h"

namespace marea::sim {

class ShardGrid {
 public:
  // One shard: private simulator, network replica, and flight recorder.
  // Containers/executors of nodes owned by this shard hang off these.
  struct Cell {
    // obs first: the network and everything built on the cell hold
    // pointers into it, so it must be destroyed last.
    obs::Observability obs;
    Simulator sim;
    SimNetwork net;

    Cell(uint64_t seed, LinkParams default_link)
        : net(sim, Rng(seed), default_link) {
      net.set_trace(&obs.trace);
    }
  };

  ShardGrid(uint32_t shards, uint64_t seed, LinkParams default_link = {});
  ~ShardGrid();
  ShardGrid(const ShardGrid&) = delete;
  ShardGrid& operator=(const ShardGrid&) = delete;

  uint32_t shard_count() const { return static_cast<uint32_t>(cells_.size()); }
  Cell& cell(uint32_t shard) { return *cells_[shard]; }
  const Cell& cell(uint32_t shard) const { return *cells_[shard]; }

  // Adds the node to EVERY cell's network (replicated table, identical
  // NodeId) and records `shard` as its owner.
  NodeId add_node(const std::string& name, uint32_t shard);
  uint32_t shard_of(NodeId node) const { return owner_.at(node); }
  size_t node_count() const { return owner_.size(); }

  template <typename Fn>
  void for_each_network(Fn&& fn) {
    for (auto& c : cells_) fn(c->net);
  }

  // Current window base == every cell simulator's `now` between runs.
  TimePoint now() const { return window_base_; }

  // Advances all shards to `t` in lookahead-bounded windows, running
  // shard windows on up to `threads` worker threads (0 = one per
  // shard). The produced event sequence, traces and metrics are
  // identical for every `threads` value.
  void run_until(TimePoint t, uint32_t threads);
  void run_for(Duration d, uint32_t threads) {
    run_until(window_base_ + d, threads);
  }

  // Minimum cross-shard link latency (clamped to >= 1 µs), recomputed
  // when any cell's link table changes.
  Duration lookahead() const;

  uint64_t events_executed_total() const;

 private:
  // One cross-shard transmission record; the payload lives in the
  // batch's shared arena (offset/len), so a window's worth of traffic
  // between two shards costs two vector growths, not a heap allocation
  // per packet per destination.
  struct XmitRec {
    RemoteXmit x;
    uint32_t offset = 0;
    uint32_t len = 0;
  };
  struct XmitBatch {
    std::vector<XmitRec> recs;
    std::vector<uint8_t> arena;
    bool empty() const { return recs.empty(); }
    void clear() {
      recs.clear();
      arena.clear();
    }
  };
  struct GroupOp {
    TimePoint time;
    uint64_t seq = 0;  // per-origin-shard, monotonic
    uint32_t src_shard = 0;
    bool join = false;
    GroupId group = 0;
    Address member;
  };

  // Per-cell SimNetwork hook: forwards cross-shard transmissions and
  // group ops into the grid's mailboxes.
  struct CellRouter final : ShardRouter {
    ShardGrid* grid = nullptr;
    uint32_t self = 0;

    bool is_local(NodeId node) const override {
      return grid->owner_[node] == self;
    }
    uint32_t self_shard() const override { return self; }
    uint32_t shard_count() const override { return grid->shard_count(); }
    uint32_t owner_shard(NodeId node) const override {
      return grid->owner_[node];
    }
    void post_remote(uint32_t dst_shard, const RemoteXmit& x,
                     BytesView bytes) override;
    void post_group_op(bool join, GroupId group, Address member,
                       TimePoint time) override;
  };

  struct Mailboxes {
    // outbox[dst]: transmissions this shard posted for shard dst during
    // the current window. Single writer (this shard's thread).
    std::vector<XmitBatch> outbox;
    // inbox[src]: transmissions from shard src, sealed at the last
    // barrier.
    std::vector<XmitBatch> inbox;
    // Activity lists so the barrier merge and the drain touch only
    // pairs that actually carried traffic this window.
    std::vector<uint32_t> out_touched;  // dst shards with nonempty outbox
    std::vector<uint32_t> in_srcs;      // src shards, ascending
    std::vector<GroupOp> ops_out;
    std::vector<GroupOp> ops_in;
    uint64_t op_seq = 0;
  };

  // Barrier phase (single-threaded): moves every outbox to the matching
  // inbox and distributes group ops, sorted deterministically.
  void exchange();
  // Window phase (per shard, parallel): drain inboxes, apply replicated
  // group ops, then run the cell simulator to `bound`.
  void run_shard_window(uint32_t shard, TimePoint bound);

  std::vector<std::unique_ptr<Cell>> cells_;
  std::vector<std::unique_ptr<CellRouter>> routers_;
  std::vector<Mailboxes> mail_;
  std::vector<uint32_t> owner_;  // NodeId -> shard
  TimePoint window_base_{0};
  // Lookahead cache, invalidated via the cells' links_version counters.
  mutable Duration lookahead_cache_ = kDurationZero;
  mutable uint64_t lookahead_links_version_ = UINT64_MAX;
};

}  // namespace marea::sim
