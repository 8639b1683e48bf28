// Measurement collection for simulator runs.
#pragma once

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "sim/cell.h"
#include "util/arena.h"
#include "util/stats.h"
#include "util/time.h"

namespace sorn {

struct FlowRecord {
  Slot inject_slot = 0;
  std::uint64_t cells_total = 0;
  std::uint64_t cells_remaining = 0;
  std::uint64_t bytes = 0;
  // Caller-defined class (e.g. intra/inter-clique, short/bulk) used to
  // split FCT percentiles.
  int flow_class = 0;
  // True when the flow was injected through the network's registered bulk
  // router (SlottedNetwork::set_bulk_router); retransmissions must go back
  // out through that router, not the primary path class.
  bool bulk = false;

  // ---- End-host retransmission state ----
  NodeId src = 0;
  NodeId dst = 0;
  // Highest seq + 1 the source has actually injected. Open-loop flows
  // inject all cells at once, but a windowed transport releases them
  // gradually — the stall detector must only re-admit cells that were
  // sent at least once (an unsent seq is not "missing", and re-admitting
  // it would bypass the congestion window).
  std::uint64_t cells_sent = 0;
  // Per-seq delivery marks: lets the receiver drop duplicate copies when
  // both an original and its retransmission eventually arrive (outage
  // semantics never lose the original).
  std::vector<bool> delivered;
  // Slot of the last first-copy delivery (or the last retransmission
  // re-admission); the stall detector compares against this.
  Slot last_progress_slot = 0;
  // Slot progress stopped before the first stall was detected; time-to-
  // recover for the flow is completion - first_stall_slot.
  Slot first_stall_slot = 0;
  bool stalled = false;
  // Retransmission rounds already spent on this flow (exponential backoff
  // doubles the timeout each round).
  std::uint32_t attempts = 0;
};

class SimMetrics {
 public:
  // A flow the stall detector flagged: its undelivered cell seqs, for the
  // source to re-admit.
  struct StalledFlow {
    FlowId flow = kNoFlow;
    NodeId src = 0;
    NodeId dst = 0;
    int flow_class = 0;
    bool bulk = false;  // re-admit via the bulk router (FlowRecord::bulk)
    std::uint32_t attempt = 0;  // 1 on the first retransmission
    std::vector<std::uint32_t> missing;
  };

  // What one delivery did. first_copy: the cell advanced an open flow
  // (false for anonymous cells and receiver-dedup duplicates) — the
  // network reports it with the deliver event, and a transport acks it.
  // completed: it was the flow's last cell; fct_ps and flow_class
  // describe the finished flow.
  struct Delivery {
    bool first_copy = false;
    bool completed = false;
    Picoseconds fct_ps = 0;
    int flow_class = 0;
  };

  // slot_duration and per-hop propagation convert slot counts to wall time.
  SimMetrics(Picoseconds slot_duration, Picoseconds propagation_per_hop);

  // A cell entered the network at `src` (cells do not store their
  // source). `bulk` marks flows injected through the network's bulk
  // router so their retransmissions can be routed back through it.
  void on_inject(const Cell& cell, NodeId src, std::uint64_t flow_cells,
                 std::uint64_t flow_bytes, int flow_class = 0,
                 bool bulk = false);
  void on_forward() { ++forwarded_cells_; }
  Delivery on_deliver(const Cell& cell, Slot now);
  void on_drop() { ++dropped_cells_; }
  // A cell was ECN-marked at enqueue (VOQ depth at or above the
  // configured threshold).
  void on_ecn_mark() { ++ecn_marked_cells_; }
  void on_slot(std::uint64_t queued_cells);
  // A retransmitted copy entered the source queue: counts as an injected
  // cell (so the injected = delivered + dropped + in-flight invariant
  // holds) and is tallied separately.
  void on_retransmit_cell() {
    ++injected_cells_;
    ++retransmitted_cells_;
  }
  // A cell lost on a gray (lossy) circuit: counted in dropped_cells so
  // the conservation identity holds, and tallied separately from
  // tail drops.
  void on_gray_drop() {
    ++dropped_cells_;
    ++gray_dropped_cells_;
  }

  // Scan open flows for stalls: a flow whose last progress is at least
  // timeout * 2^attempts slots old (and under max_attempts rounds) is
  // flagged, its backoff advanced, and its missing cell seqs returned,
  // sorted by flow id so re-admission order is deterministic. Mutates the
  // flow records (attempts, stall bookkeeping); call once per check
  // interval, between slots.
  //
  // jitter_frac > 0 scales each flow's wait by a stateless per-(flow,
  // round) hash factor in [1 - jitter/2, 1 + jitter/2] (seeded by
  // jitter_seed) so flows stalled by the same outage don't all re-admit
  // on the same slot; 0 keeps the exact unjittered timeline.
  std::vector<StalledFlow> collect_retransmits(Slot now, Slot timeout_slots,
                                               std::uint32_t max_attempts,
                                               double jitter_frac = 0.0,
                                               std::uint64_t jitter_seed = 0);

  std::uint64_t injected_cells() const { return injected_cells_; }
  std::uint64_t delivered_cells() const { return delivered_cells_; }
  std::uint64_t forwarded_cells() const { return forwarded_cells_; }
  std::uint64_t dropped_cells() const { return dropped_cells_; }
  // Subset of dropped_cells lost to gray circuits (vs. tail drops).
  std::uint64_t gray_dropped_cells() const { return gray_dropped_cells_; }
  // Cells that received an ECN mark at enqueue.
  std::uint64_t ecn_marked_cells() const { return ecn_marked_cells_; }
  std::uint64_t slots_run() const { return slots_run_; }
  std::uint64_t completed_flows() const { return completed_flows_; }
  // Flows injected but not yet fully delivered.
  std::uint64_t open_flows() const { return open_flows_.size(); }

  // ---- Retransmission / recovery counters ----
  // Cells re-admitted by the retransmission policy (subset of injected).
  std::uint64_t retransmitted_cells() const { return retransmitted_cells_; }
  // Stall-detector firings (one per flow per backoff round).
  std::uint64_t retransmit_events() const { return retransmit_events_; }
  // Delivered copies discarded by receiver dedup (also counted in
  // delivered_cells — both sides of the invariant see them).
  std::uint64_t duplicate_cells() const { return duplicate_cells_; }
  // Sum over stall detections of slots-since-last-progress.
  std::uint64_t stalled_flow_slots() const { return stalled_flow_slots_; }
  // Flows that stalled at least once and later completed.
  std::uint64_t recovered_flows() const { return recovered_flows_; }
  // Sum over recovered flows of completion - first_stall (slots).
  std::uint64_t recovery_slots_total() const { return recovery_slots_total_; }
  double mean_recovery_slots() const {
    return recovered_flows_ == 0
               ? 0.0
               : static_cast<double>(recovery_slots_total_) /
                     static_cast<double>(recovered_flows_);
  }

  // Average hops each delivered cell took (the bandwidth-tax measure).
  double mean_hops() const;

  // Delivered cells per node per lane per slot — the throughput r of the
  // paper when sources are saturated.
  double delivered_per_slot(NodeId nodes, int lanes) const;

  // Cell latency in wall time: (deliver - inject) slots * slot_duration
  // + hops * propagation.
  const Percentiles& cell_latency_ps() const { return cell_latency_ps_; }
  // Flow completion times (same wall-time convention).
  const Percentiles& fct_ps() const { return fct_ps_; }
  // FCTs of one flow class only (empty Percentiles if the class is unseen).
  const Percentiles& fct_ps_class(int flow_class) const;
  // The classes with at least one completed flow, ascending (deterministic
  // export order).
  std::vector<int> flow_classes() const;
  const RunningStats& queue_occupancy() const { return queue_occupancy_; }

  // ---- Memory estimates (profiler gauges, obs/prof) ----
  // In-flight flow records: the open-flow hash map plus the record
  // structs (excluding the per-seq delivery bitmaps, reported separately).
  std::uint64_t flow_records_bytes() const;
  // Retransmit/stall state: the per-seq delivered bitmaps that receiver
  // dedup and the stall detector maintain per open flow.
  std::uint64_t retransmit_state_bytes() const;
  // Latency/FCT distributions (Percentiles keep every sample).
  std::uint64_t distributions_bytes() const;

  // Zero all counters and distributions but keep the open-flow records:
  // flows in flight across a warmup boundary still complete and count
  // (their FCT spans the reset).
  void reset_counters();

 private:
  Picoseconds slot_duration_;
  Picoseconds propagation_per_hop_;

  std::uint64_t injected_cells_ = 0;
  std::uint64_t delivered_cells_ = 0;
  std::uint64_t forwarded_cells_ = 0;
  std::uint64_t dropped_cells_ = 0;
  std::uint64_t gray_dropped_cells_ = 0;
  std::uint64_t ecn_marked_cells_ = 0;
  std::uint64_t slots_run_ = 0;
  std::uint64_t completed_flows_ = 0;
  std::uint64_t delivered_hops_ = 0;
  std::uint64_t retransmitted_cells_ = 0;
  std::uint64_t retransmit_events_ = 0;
  std::uint64_t duplicate_cells_ = 0;
  std::uint64_t stalled_flow_slots_ = 0;
  std::uint64_t recovered_flows_ = 0;
  std::uint64_t recovery_slots_total_ = 0;

  Percentiles cell_latency_ps_;
  Percentiles fct_ps_;
  std::unordered_map<int, Percentiles> fct_by_class_;
  RunningStats queue_occupancy_;
  // Flow records live in a recycling arena (util/arena.h): a completed
  // flow's record — including its delivered-bitmap capacity — is reused by
  // the next flow, so steady-state flow churn stops allocating. The map
  // only holds arena indices.
  std::unordered_map<FlowId, std::uint32_t> open_flows_;
  SlotArena<FlowRecord> flow_arena_;
};

}  // namespace sorn
