// The slot-synchronous circuit network simulator.
//
// One step() is one time slot: every node, on each of its uplink lanes,
// looks up the peer its circuit connects to in this slot and transmits the
// head cell of the matching VOQ. Delivered cells are recorded; relayed
// cells become available at the next node after a fixed turnaround
// (1 slot + propagation). This is the htsim-style substrate all ORN papers
// evaluate on (see DESIGN.md).
//
// Each rule is coded once. take() decides one node's transmit (failure,
// gray, head, pop) and apply() performs its ordered side effects. A slot
// is two passes on the calling thread: the take pass walks, lane by lane,
// the wake list of the matching the lane applies, and the apply pass
// replays the staged outcomes lane by lane in node order. A wake list
// holds every node with an occupied queue toward the peer a
// matching gives it (and, until its next visit, one whose queue drained),
// so a slot visits only queues whose circuit is up. It is keyed by
// matching, not by time, so a slot re-keys nothing (the schedule's
// carriers() inverse fills it). Every enqueue — injection, relay — goes
// through enqueue_or_drop, and every injected cell is built by
// make_cell. Every event leaves through one observer list
// (sim/observer.h).
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "obs/prof/profiler.h"
#include "routing/failure_view.h"
#include "routing/router.h"
#include "sim/cell.h"
#include "sim/gray_failures.h"
#include "sim/metrics.h"
#include "sim/observer.h"
#include "sim/voq.h"
#include "topo/schedule.h"
#include "util/rng.h"
#include "util/time.h"

namespace sorn {

struct NetworkConfig {
  // Parallel uplinks per node; lane l runs the schedule phase-shifted by
  // lane_phase(period, lanes, l).
  int lanes = 1;
  Picoseconds slot_duration = 100 * 1000;      // 100 ns, Table 1
  Picoseconds propagation_per_hop = 500 * 1000;  // 500 ns, Table 1
  std::uint64_t cell_bytes = 256;
  // Per-(node, next-hop) FIFO depth; 0 = unbounded. Overflowing cells are
  // tail-dropped and counted in SimMetrics::dropped_cells (NIC buffers
  // are finite; loss experiments set this).
  std::uint64_t max_queue_cells = 0;
  // ECN-like marking: a cell enqueued into a VOQ already holding at least
  // this many cells is marked (Cell::ecn) and counted in
  // SimMetrics::ecn_marked_cells; the mark is echoed to an attached
  // transport at delivery. 0 disables. The mark decision observes the
  // same lane-major queue size the capacity check does (queued_ahead).
  std::uint64_t ecn_threshold_cells = 0;
  std::uint64_t seed = 42;
};

class SlottedNetwork {
 public:
  // schedule and router must outlive the network (or be replaced via
  // reconfigure() before destruction of the old ones).
  SlottedNetwork(const CircuitSchedule* schedule, const Router* router,
                 NetworkConfig config);

  NodeId node_count() const { return n_; }
  Slot now() const { return now_; }
  const NetworkConfig& config() const { return config_; }
  const SimMetrics& metrics() const { return metrics_; }
  SimMetrics& metrics() { return metrics_; }
  std::uint64_t cells_in_flight() const { return voqs_.total_queued(); }
  // Deepest single VOQ right now (scans the occupied queues).
  std::uint64_t max_queue_depth() const { return voqs_.max_queue_depth(); }

  // Inject one flow: bytes are split into cells, each routed independently
  // (per-cell spraying) and enqueued at the source now. flow_class labels
  // the flow for split FCT percentiles (SimMetrics::fct_ps_class).
  void inject_flow(FlowId flow, NodeId src, NodeId dst, std::uint64_t bytes,
                   int flow_class = 0);

  // Same, but routed by `router` instead of the network's default — used
  // by designs that route flow classes differently (Opera: short flows on
  // expander paths, bulk on the direct rotation circuit).
  void inject_flow_with(const Router& router, FlowId flow, NodeId src,
                        NodeId dst, std::uint64_t bytes, int flow_class = 0) {
    inject_flow_segment(router, flow, src, dst, bytes, 0,
                        (bytes + config_.cell_bytes - 1) / config_.cell_bytes,
                        flow_class);
  }

  // Inject a contiguous window segment [first_cell, first_cell +
  // cell_count) of a flow whose full size is `bytes` — the closed-loop
  // transport's release path. The flow record is created with the full
  // totals on the first segment (first_cell == 0), which is also when the
  // flow-inject event fires; the flow completes when every cell is
  // delivered, exactly like an atomic injection.
  void inject_flow_segment(const Router& router, FlowId flow, NodeId src,
                           NodeId dst, std::uint64_t bytes,
                           std::uint64_t first_cell, std::uint64_t cell_count,
                           int flow_class = 0);

  // Register the secondary (bulk) router so the network can recognize
  // bulk-class injections and retransmit their stalled cells through the
  // same path class (retransmit_stalled). Callers that split traffic
  // (WorkloadDriver::set_bulk_router) register it before injecting;
  // nullptr disables the split. Borrowed; must outlive the network or be
  // cleared first.
  void set_bulk_router(const Router* bulk) { bulk_router_ = bulk; }
  const Router* bulk_router() const { return bulk_router_; }

  // Inject a single anonymous cell (saturation sources).
  void inject_cell(NodeId src, NodeId dst);

  // Advance one slot.
  void step();
  void run(Slot slots);

  // Engine threads: always 1, since every slot runs on the thread that
  // calls step(). Run reports print it.
  int threads() const { return 1; }

  // Swap in a new schedule/router (the control plane's epoch-synchronous
  // update, paper Sec. 5). In-flight cells keep their old paths; this is
  // safe because every schedule built in this library keeps the full
  // neighbor superset reachable (all pairs recur within a period). A new
  // schedule rebuilds the wake lists from the occupied queues; the
  // schedule already in use (a router-only swap) keeps them, so a
  // schedule must not be changed in place while a network runs it.
  void reconfigure(const CircuitSchedule* schedule, const Router* router);

  // ---- Failure injection (paper Sec. 6, blast radius) ----
  // A failed node neither transmits nor receives; a failed circuit
  // disables one directed virtual edge. Cells whose next hop is failed
  // stay queued (outage semantics) and resume after heal_*. Mutators are
  // idempotent — repeated fail/heal of the same entity is a no-op and
  // emits no duplicate event; the return value reports whether the state
  // actually changed.
  bool fail_node(NodeId node);
  bool heal_node(NodeId node);
  bool fail_circuit(NodeId src, NodeId dst);
  bool heal_circuit(NodeId src, NodeId dst);
  // Heal every failed node and circuit (one heal event per entity);
  // returns the number of entities healed.
  std::uint64_t heal_all();
  bool is_failed(NodeId node) const {
    return failures_.is_node_failed(node);
  }
  bool is_circuit_failed(NodeId src, NodeId dst) const {
    return failures_.is_circuit_failed(src, dst);
  }
  // The live failure state; routers and the control plane borrow this
  // (Router::set_failure_view, ControlPlane::set_failure_view) to route
  // and plan around outages. Valid for the network's lifetime.
  const FailureView& failure_view() const { return failures_; }

  // ---- Gray (partial) circuit failures (sim/gray_failures.h) ----
  // A degraded circuit stays up but loses each cell with probability
  // loss_p (counted in dropped_cells and gray_dropped_cells; recovered by
  // end-host retransmission); a throttled circuit serves only a
  // `capacity` fraction of its slots (head cells stay queued in inactive
  // slots, like a fail-stop outage). Both decisions are stateless seeded
  // hashes that draw nothing from the network's Rng. Mutators are
  // idempotent like fail_*/heal_*.
  bool degrade_circuit(NodeId src, NodeId dst, double loss_p);
  bool throttle_circuit(NodeId src, NodeId dst, double capacity);
  bool restore_circuit(NodeId src, NodeId dst);
  std::uint64_t restore_all_gray();
  const GrayFailureView& gray_view() const { return gray_; }

  // ---- End-host retransmission ----
  // A stalled flow (no delivery progress for timeout_slots * 2^attempts)
  // has its undelivered cells re-admitted at the source, routed by the
  // current router — which, if failure-aware, detours around the outage
  // that stranded the originals. Duplicate copies are discarded at the
  // receiver (Cell::seq), so FCT accounting stays exact. Call between
  // slots; returns cells re-admitted.
  struct RetransmitPolicy {
    Slot timeout_slots = 0;  // 0 disables
    std::uint32_t max_attempts = 8;
    // Fractional backoff jitter: each flow's wait for round k is scaled
    // by a deterministic per-(flow, round) factor in
    // [1 - jitter/2, 1 + jitter/2], desynchronizing the retransmit
    // stampede when many flows stall on the same outage and would
    // otherwise all fire into the source VOQs on the same slot. 0 (the
    // default) reproduces the exact pre-jitter timeline. The factor is a
    // stateless hash seeded from the network seed — no draw from the
    // shared Rng, so the routing stream is unchanged.
    double jitter_frac = 0.0;
  };
  std::uint64_t retransmit_stalled(const RetransmitPolicy& policy);

  // Reset counters but keep queued cells and open-flow records (used to
  // exclude warmup; flows straddling the boundary still complete and are
  // counted, with FCTs measured from their true inject slot). Every
  // observer's on_attach runs again afterwards.
  void reset_metrics();

  // ---- Observers (sim/observer.h) ----
  // Attach a borrowed observer: its on_attach runs now, and from then on
  // it receives every event after the observers attached before it. An
  // observer is attached at most once; it must outlive the attachment.
  // With none attached, each event site costs one empty-list check (see
  // bench_obs_overhead).
  void add_observer(SimObserver* observer);
  // Detach; no-op when `observer` is not attached.
  void remove_observer(SimObserver* observer);

  // ---- Profiling (src/obs/prof) ----
  // Attach a borrowed profiler: step() wraps each engine phase in a
  // scoped timer, and the network registers its byte gauges (VOQ
  // storage, stored matchings, flow records, retransmit state,
  // distributions) with the profiler's MemoryAccountant. Profiling only reads clocks and sizes — sim results
  // stay byte-identical with a profiler attached or not. Pass nullptr to
  // detach; detached sites cost one null check (bench_obs_overhead gates
  // this at <= 2%). The profiler must outlive the attachment.
  void set_profiler(Profiler* profiler);
  Profiler* profiler() const { return profiler_; }

  // The schedule currently driving the network (reconfigure() may have
  // swapped it since construction).
  const CircuitSchedule* schedule() const { return schedule_; }
  // The router currently routing injections (for safe-mode save/restore).
  const Router* router() const { return router_; }

 private:
  // Outcome of one node's transmit, decided by take(). The cell is
  // already advanced (hop incremented, ready_slot set for forwards) unless
  // it was lost to a gray circuit.
  struct StagedEvent {
    Cell cell;
    // The transmitting node (a cell does not store its source).
    NodeId sender = kNoNode;
    // Lost to a gray (lossy) circuit: the pop happened but the cell is
    // discarded instead of delivered/forwarded.
    bool gray_drop = false;
  };
  static_assert(sizeof(StagedEvent) <= 40, "a staged event is a cell + 8");
  // A wake-list entry: a node id (ids fit 16 bits, as in Cell).
  using WakeNode = std::uint16_t;
  // The take pass's state: per lane, its events in ascending node order,
  // and the wake lists.
  struct TakeStage {
    std::vector<std::vector<StagedEvent>> lanes;
    std::uint64_t pops = 0;  // settled into VoqSet::total_ after the slot
    // wake[m]: the nodes holding a queue toward the peer distinct
    // matching m gives them (schedule_->matching(m)). Its first
    // wake_sorted[m] entries are ascending and distinct; wake() appends
    // after them, and the take pass merges the rest in before it walks
    // the list.
    std::vector<std::vector<WakeNode>> wake;
    std::vector<std::uint32_t> wake_sorted;
    std::vector<WakeNode> merge_scratch;
  };
  // popped_ entry of a (node, lane) that popped nothing this slot.
  static constexpr NodeId kNoPop = -1;

  // Node `node`'s transmit toward `peer`: failure and gray checks, then
  // pop the transmittable head and advance it. Touches only `node`'s own
  // queues; the caller settles the pop into VoqSet's total. nullopt when
  // nothing is sent.
  std::optional<StagedEvent> take(NodeId node, NodeId peer);
  // Every ordered side effect of an event taken on `lane`: transmit
  // event, gray drop, delivery (metrics, deliver and flow-complete
  // events) or forward + enqueue. Runs in lane-major node order.
  void apply(StagedEvent& ev, int lane);
  // The take pass: per lane, take() every node on the wake list of the
  // lane's matching, staging events and marking popped_, and drop each
  // entry whose queue is gone. First it unmarks the previous slot, whose
  // staged events name every mark it set.
  void take_pass();
  // Add `node` to the wake list of every matching that carries
  // node -> hop: its queue toward hop now exists.
  void wake(NodeId node, NodeId hop);
  // Size one wake list per distinct matching of the schedule and fill
  // them from the occupied queues: at construction and after a new
  // schedule.
  void rebuild_wake_lists();
  // Pops of the queue (relay, hop) that the take pass has made but the
  // lane-major order has not reached when `sender`'s transmit to `relay`
  // on `lane` is applied: the relay's pop this lane when it sweeps after
  // the sender, and its pops in every later lane.
  std::uint64_t queued_ahead(NodeId relay, NodeId hop, NodeId sender,
                             int lane) const;
  // Enqueue `cell` at `node` with the capacity check and ECN marking
  // evaluated against one queue size: the FIFO's depth, plus
  // queued_ahead() for a cell `sender` forwarded on `sent_lane` this slot
  // (injections pass -1). The queue is looked up once. Tail drops and
  // marks are counted and reported to the observers; a push that creates
  // the queue wakes it.
  void enqueue_or_drop(NodeId node, Cell& cell, int sent_lane = -1,
                       NodeId sender = kNoNode);
  // A fresh cell at `src`, routed by `router` as of `route_slot`.
  Cell make_cell(const Router& router, FlowId flow, std::uint32_t seq,
                 NodeId src, NodeId dst, Slot route_slot);
  // Settle the take pass's pops into VoqSet's total: once per slot, after
  // the apply pass, or for a take pass that threw.
  void settle_staged_pops();
  // Bytes of the take pass's state: staged events, pop marks and wake
  // lists (capacity).
  std::uint64_t sweep_stage_bytes() const;
  // Call `hook` with `args` on every observer, in attach order.
  template <typename... Params, typename... Args>
  void notify(void (SimObserver::*hook)(Params...), const Args&... args) {
    for (SimObserver* observer : observers_) (observer->*hook)(args...);
  }

  const CircuitSchedule* schedule_;
  const Router* router_;
  // Secondary path class for bulk-classified flows; flows injected
  // through it retransmit through it (see retransmit_stalled).
  const Router* bulk_router_ = nullptr;
  NetworkConfig config_;
  NodeId n_;
  // Whole slots a relayed cell waits past the turnaround slot (the
  // propagation delay, rounded up; metrics keep it exact).
  Slot prop_slots_ = 0;
  Slot now_ = 0;
  VoqSet voqs_;
  SimMetrics metrics_;
  Rng rng_;
  FailureView failures_;
  GrayFailureView gray_;
  Profiler* profiler_ = nullptr;
  std::vector<SimObserver*> observers_;  // borrowed, in attach order

  // Slot engine state.
  TakeStage stage_;
  // This slot's distinct-matching index, per lane.
  std::vector<std::uint32_t> lane_matchings_;
  // popped_[node * lanes + lane]: the next hop whose queue `node` popped
  // on `lane` this slot, or kNoPop (read by queued_ahead).
  std::vector<NodeId> popped_;
  std::vector<std::uint32_t> carrier_scratch_;  // wake()'s carriers()
};

}  // namespace sorn
