// Pieces shared by the two simulated workloads: reading the domain's
// layer counters through the public registry and stats structs, the
// segment loop that turns --seconds into repeated measured segments, and
// the timed replays of the Encoding and Protocol layers.
#pragma once

#include <array>
#include <functional>
#include <vector>

#include "encoding/codec.h"
#include "harness.h"
#include "middleware/domain.h"

namespace perfbench {

// Every counter a simulated workload reports, summed over the domain.
struct SimCounters {
  uint64_t allocs = 0;
  uint64_t net_bytes_sent = 0;
  uint64_t net_packets_sent = 0;
  uint64_t net_packets_delivered = 0;
  uint64_t net_payload_copies = 0;
  uint64_t sim_events = 0;
  uint64_t fn_heap_fallbacks = 0;
  uint64_t pool_checkouts = 0;
  uint64_t pool_hits = 0;
  uint64_t pool_slab_allocs = 0;
  uint64_t frames_received = 0;
  uint64_t frames_dropped = 0;
  uint64_t name_queries = 0;
  uint64_t payload_bytes = 0;  // encoded payload bytes services asked to move
                               // (file images counted raw)
  uint64_t arq_messages = 0;
  uint64_t arq_frames_sent = 0;
  uint64_t arq_retransmits = 0;
  uint64_t arq_frames_received = 0;
  uint64_t arq_duplicates = 0;
  uint64_t arq_acks = 0;
  uint64_t mftp_chunks_sent = 0;
  uint64_t mftp_duplicate_chunks = 0;
  uint64_t mftp_payload_bytes = 0;
  uint64_t mftp_wire_bytes = 0;
  uint64_t mftp_chunks_received = 0;
  uint64_t mftp_chunks_deduped = 0;
  uint64_t mftp_hash_mismatches = 0;
  uint64_t tasks_run = 0;
  std::array<int64_t, marea::sched::kPriorityCount> wait_ns{};
  std::array<uint64_t, marea::sched::kPriorityCount> wait_count{};
  int64_t max_wait_ns = 0;

  // Heap counter read strictly outside registry collection: `before`
  // reads it last, `after` first, so snapshot-time allocations of the
  // registry never land in a measured window.
  static SimCounters before(marea::mw::SimDomain& d);
  static SimCounters after(marea::mw::SimDomain& d);
  SimCounters operator-(const SimCounters& o) const;

 private:
  static SimCounters read(marea::mw::SimDomain& d);
};

// Runs `segment` (returns ops done) until --seconds of measuring have
// passed and at least `det_segments` ran. `on_det_done` fires right after
// the last deterministic segment: everything a same-seed rerun must
// reproduce exactly is read there. In traced runs every other segment is
// traced, so traced and untraced CPU time come from the same run. CPU per
// op is scaled by the calibration kernel (harness.h) run around each
// segment.
struct SegmentTimes {
  std::vector<double> untraced_cpu_per_op;
  std::vector<double> traced_cpu_per_op;
  uint64_t ops = 0;
  uint64_t traced_ops = 0;
  int64_t traced_wall_ns = 0;
};
SegmentTimes run_segments(const RunOptions& opt, int det_segments,
                          const std::function<uint64_t()>& segment,
                          const std::function<void()>& on_det_done);

// Timed replays on the run's own values: ns per call, measured for about
// `budget_ms` each.
struct ReplayItem {
  marea::enc::Value value;
  marea::enc::TypePtr type;
};
double replay_encode_ns(const std::vector<ReplayItem>& items, int budget_ms);
double replay_decode_ns(const std::vector<ReplayItem>& items, int budget_ms);
double replay_tagged_encode_ns(const std::vector<ReplayItem>& items,
                               int budget_ms);
// FrameBuilder seal + open_frame at the items' encoded payload sizes.
double replay_frame_ns(const std::vector<ReplayItem>& items, int budget_ms);

// Fills the per-layer metrics every simulated workload shares from the
// counter delta `c` over `ops` operations, the span totals of the traced
// segments, and the segment times.
// `file_bytes`: raw bytes of the files published over the same window;
// header bytes count MFTP chunks at their on-wire size instead.
void report_sim_layers(Report& r, const SimCounters& c, uint64_t ops,
                       uint64_t file_bytes, const SegmentTimes& seg,
                       const std::vector<ReplayItem>& replay);

// Starts every container and runs `discovery` of virtual time with no
// application traffic; true when every container then knows every other.
// Discovery costs the same for every seed, so set-up time stays seed-free.
bool start_and_discover(marea::mw::SimDomain& d, marea::Duration discovery);

// Median over `repeats` calls of `setup`, which tears down the previous
// world untimed, then builds a fresh one and returns the wall seconds
// from construction to its first measured op. The caller keeps the last.
// Each figure is scaled by calibration runs around it, like CPU per op:
// the host's speed moved raw set-up medians by 25% between batches.
double median_setup_s(int repeats, const std::function<double()>& setup);

}  // namespace perfbench
