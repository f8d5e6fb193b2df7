#include "sim/shard.h"

#include <algorithm>
#include <atomic>
#include <barrier>
#include <cassert>
#include <thread>

namespace marea::sim {

namespace {
// Floor for the window length: a zero-latency cross-shard link would
// otherwise stall virtual time. Deliveries arriving under the floor are
// clamped to the drain window edge (deterministically) by
// SimNetwork::deliver_remote.
constexpr Duration kMinLookahead = microseconds(1);

uint64_t shard_seed(uint64_t seed, uint32_t shard) {
  // Golden-ratio stream split keeps shard RNGs decorrelated while shard 0
  // retains the domain seed unchanged, so a single-shard grid reproduces
  // the historical unsharded seeding bit for bit.
  return seed + shard * 0x9E3779B97F4A7C15ull;
}
}  // namespace

ShardGrid::ShardGrid(uint32_t shards, uint64_t seed, LinkParams default_link) {
  assert(shards >= 1);
  cells_.reserve(shards);
  routers_.reserve(shards);
  mail_.resize(shards);
  for (uint32_t k = 0; k < shards; ++k) {
    cells_.push_back(std::make_unique<Cell>(shard_seed(seed, k), default_link));
    auto router = std::make_unique<CellRouter>();
    router->grid = this;
    router->self = k;
    // A 1-cell grid never has a remote destination; leaving the router
    // unset keeps the unsharded fast path free of virtual calls.
    if (shards > 1) cells_[k]->net.set_shard_router(router.get());
    routers_.push_back(std::move(router));
    mail_[k].outbox.resize(shards);
    mail_[k].inbox.resize(shards);
  }
}

ShardGrid::~ShardGrid() = default;

NodeId ShardGrid::add_node(const std::string& name, uint32_t shard) {
  assert(shard < shard_count());
  // Owner registered first: each replica's add_node consults the router
  // to maintain its local-node list and per-shard node counts.
  const NodeId id = static_cast<NodeId>(owner_.size());
  owner_.push_back(shard);
  for (auto& c : cells_) {
    NodeId got = c->net.add_node(name);
    assert(got == id);
    (void)got;
  }
  return id;
}

void ShardGrid::CellRouter::post_remote(uint32_t dst_shard,
                                        const RemoteXmit& x,
                                        BytesView bytes) {
  XmitBatch& out = grid->mail_[self].outbox[dst_shard];
  if (out.recs.empty()) grid->mail_[self].out_touched.push_back(dst_shard);
  out.recs.push_back(XmitRec{x, static_cast<uint32_t>(out.arena.size()),
                             static_cast<uint32_t>(bytes.size())});
  out.arena.insert(out.arena.end(), bytes.begin(), bytes.end());
}

void ShardGrid::CellRouter::post_group_op(bool join, GroupId group,
                                          Address member, TimePoint time) {
  Mailboxes& m = grid->mail_[self];
  m.ops_out.push_back(GroupOp{time, m.op_seq++, self, join, group, member});
}

Duration ShardGrid::lookahead() const {
  // Cheap cache key: link-table edits bump a per-cell version, and node
  // additions change the cross-shard pair set.
  uint64_t version = owner_.size();
  for (const auto& c : cells_) {
    version = version * 1000003ull + c->net.links_version();
  }
  if (version == lookahead_links_version_) return lookahead_cache_;

  // Topology is replicated, so cell 0's link table answers for all.
  // O(|overrides|), not O(nodes²): the minimum over all cross-shard
  // pairs is min(overridden cross-shard links, default latency) — the
  // default participates whenever at least one cross-shard pair is NOT
  // overridden, which the pair counts decide without enumerating pairs.
  const SimNetwork& net = cells_[0]->net;
  const uint64_t n = owner_.size();
  std::vector<uint64_t> per_shard(shard_count(), 0);
  for (uint32_t s : owner_) per_shard[s]++;
  uint64_t same_pairs = 0;
  for (uint64_t c : per_shard) same_pairs += c * c;
  const uint64_t cross_pairs = n * n - same_pairs;  // ordered pairs
  int64_t min_ns = INT64_MAX;
  uint64_t overridden_cross = 0;
  for (const auto& [pair, lp] : net.link_overrides()) {
    if (pair.first >= n || pair.second >= n) continue;
    if (owner_[pair.first] == owner_[pair.second]) continue;
    overridden_cross++;
    min_ns = std::min(min_ns, lp.latency.ns);
  }
  if (cross_pairs == 0) {
    // No cross-shard pairs yet: any window length is safe.
    min_ns = milliseconds(1).ns;
  } else if (overridden_cross < cross_pairs) {
    min_ns = std::min(min_ns, net.default_link_params().latency.ns);
  }
  lookahead_cache_ = Duration{std::max(min_ns, kMinLookahead.ns)};
  lookahead_links_version_ = version;
  return lookahead_cache_;
}

void ShardGrid::exchange() {
  const uint32_t k = shard_count();
  // Only (src,dst) pairs that carried traffic this window move; the
  // ascending outer src loop makes every dst's in_srcs list ascending,
  // which run_shard_window relies on for deterministic drain order.
  for (uint32_t src = 0; src < k; ++src) {
    for (uint32_t dst : mail_[src].out_touched) {
      auto& out = mail_[src].outbox[dst];
      auto& in = mail_[dst].inbox[src];
      in.clear();  // fully drained last window; reclaim for reuse
      std::swap(in.recs, out.recs);
      std::swap(in.arena, out.arena);
      mail_[dst].in_srcs.push_back(src);
    }
    mail_[src].out_touched.clear();
  }
  // Membership deltas replicate to every shard but the origin (which
  // applied them immediately), sorted by (origin time, origin shard,
  // origin sequence) so every replica converges through the same
  // mutation order.
  bool any_ops = false;
  for (uint32_t src = 0; src < k; ++src) {
    if (mail_[src].ops_out.empty()) continue;
    any_ops = true;
    for (const GroupOp& op : mail_[src].ops_out) {
      for (uint32_t dst = 0; dst < k; ++dst) {
        if (dst != src) mail_[dst].ops_in.push_back(op);
      }
    }
    mail_[src].ops_out.clear();
  }
  if (!any_ops) return;
  for (uint32_t dst = 0; dst < k; ++dst) {
    auto& ops = mail_[dst].ops_in;
    std::sort(ops.begin(), ops.end(), [](const GroupOp& a, const GroupOp& b) {
      if (a.time.ns != b.time.ns) return a.time.ns < b.time.ns;
      if (a.src_shard != b.src_shard) return a.src_shard < b.src_shard;
      return a.seq < b.seq;
    });
  }
}

void ShardGrid::run_shard_window(uint32_t shard, TimePoint bound) {
  Cell& c = *cells_[shard];
  Mailboxes& m = mail_[shard];
  // Replicated membership deltas first: they originate strictly before
  // this window, while drained packets arrive at or after its start.
  // The member's owner shard applies the full member-list change; every
  // other shard only adjusts its interest digest.
  for (const GroupOp& op : m.ops_in) {
    const uint32_t owner = owner_[op.member.host];
    if (owner == shard) {
      c.net.apply_group_op(op.join, op.group, op.member);
    } else {
      c.net.apply_group_digest(op.join, op.group, owner);
    }
  }
  m.ops_in.clear();
  // Drain inboxes in fixed source order (ascending src, FIFO within
  // each): the destination expands each record against its own tables
  // and its simulator assigns local sequence numbers in drain order,
  // which fixes the relative order of same-instant arrivals.
  for (uint32_t src : m.in_srcs) {
    XmitBatch& in = m.inbox[src];
    for (const XmitRec& r : in.recs) {
      c.net.expand_remote(r.x, BytesView(in.arena.data() + r.offset, r.len));
    }
    in.clear();
  }
  m.in_srcs.clear();
  c.sim.run_until(bound);
}

void ShardGrid::run_until(TimePoint target, uint32_t threads) {
  const uint32_t k = shard_count();
  if (k == 1) {
    // Unsharded: no windows, no barriers — the classic single-simulator
    // path, bit-identical to pre-sharding behavior.
    cells_[0]->sim.run_until(target);
    if (window_base_ < target) window_base_ = target;
    return;
  }

  // Window state shared between the coordinator (barrier completion) and
  // the workers. Everything here is written single-threaded inside
  // prepare()/the completion function and read by workers strictly after
  // the barrier, so only the work-claiming counter needs to be atomic.
  struct WindowState {
    TimePoint bound{0};
    TimePoint w_end{0};
    bool done = false;
    std::atomic<uint32_t> next{0};
  } ws;

  auto prepare = [&]() {
    if (!(window_base_ < target)) {
      ws.done = true;
      return;
    }
    const Duration la = lookahead();
    // Overflow-safe min(window_base_ + la, target).
    TimePoint w_end = (target.ns - window_base_.ns <= la.ns)
                          ? target
                          : window_base_ + la;
    ws.w_end = w_end;
    // Events at exactly w_end belong to the NEXT window (they may be
    // affected by packets still sitting in a mailbox); the final window
    // is inclusive so run_until keeps its usual closed-bound semantics.
    ws.bound = (w_end == target) ? target : TimePoint{w_end.ns - 1};
    exchange();
    ws.next.store(0, std::memory_order_relaxed);
  };

  prepare();
  if (ws.done) return;

  const uint32_t t =
      std::min(threads == 0 ? k : std::max<uint32_t>(threads, 1), k);
  if (t == 1) {
    while (!ws.done) {
      for (uint32_t s = 0; s < k; ++s) run_shard_window(s, ws.bound);
      window_base_ = ws.w_end;
      prepare();
    }
    return;
  }

  // One barrier per window; the completion function (single-threaded,
  // runs once all shards finished) commits the window and stages the
  // next one. Shards are claimed dynamically — any thread may run any
  // shard, because a shard's window touches only its own cell and its
  // own outbox row, so the claiming order never affects the result.
  std::barrier sync(t, [&]() noexcept {
    window_base_ = ws.w_end;
    prepare();
  });
  auto worker = [&]() {
    while (!ws.done) {
      for (uint32_t s = ws.next.fetch_add(1, std::memory_order_relaxed);
           s < k; s = ws.next.fetch_add(1, std::memory_order_relaxed)) {
        run_shard_window(s, ws.bound);
      }
      sync.arrive_and_wait();
    }
  };
  std::vector<std::thread> pool;
  pool.reserve(t - 1);
  for (uint32_t i = 0; i + 1 < t; ++i) pool.emplace_back(worker);
  worker();
  for (auto& th : pool) th.join();
}

uint64_t ShardGrid::events_executed_total() const {
  uint64_t total = 0;
  for (const auto& c : cells_) total += c->sim.events_executed();
  return total;
}

}  // namespace marea::sim
