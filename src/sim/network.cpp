#include "sim/network.h"

#include <algorithm>
#include <optional>

#include "util/assert.h"

namespace sorn {

SlottedNetwork::SlottedNetwork(const CircuitSchedule* schedule,
                               const Router* router, NetworkConfig config)
    : schedule_(schedule),
      router_(router),
      config_(config),
      n_(schedule->node_count()),
      voqs_(n_),
      metrics_(config.slot_duration, config.propagation_per_hop),
      rng_(config.seed),
      failures_(n_),
      gray_(n_) {
  // Gray-failure decisions hash their own derived seed so enabling them
  // never perturbs the main Rng stream (routing, injection).
  gray_.set_seed(config.seed ^ 0x6772617946617573ULL);
  SORN_ASSERT(schedule_ != nullptr && router_ != nullptr,
              "network needs a schedule and a router");
  SORN_ASSERT(config_.lanes >= 1, "need at least one uplink lane");
  SORN_ASSERT(config_.cell_bytes >= 1, "cells must carry at least one byte");
  SORN_ASSERT(config_.slot_duration >= 1, "slots must last at least 1 ps");
  prop_slots_ = (config_.propagation_per_hop + config_.slot_duration - 1) /
                config_.slot_duration;
}

void SlottedNetwork::inject_flow(FlowId flow, NodeId src, NodeId dst,
                                 std::uint64_t bytes, int flow_class) {
  inject_flow_with(*router_, flow, src, dst, bytes, flow_class);
}

Cell SlottedNetwork::make_cell(const Router& router, FlowId flow,
                               std::uint32_t seq, NodeId src, NodeId dst,
                               Slot route_slot) {
  SORN_ASSERT(src != dst, "cell endpoints must differ");
  // Routing draws from rng_; a draw inside the parallel sweep would make
  // the stream depend on thread scheduling (see DESIGN.md).
  SORN_ASSERT(!in_parallel_sweep_, "inject during parallel sweep");
  Cell cell;
  cell.flow = flow;
  cell.seq = seq;
  cell.path = router.route(src, dst, route_slot, rng_);
  cell.inject_slot = now_;
  cell.ready_slot = now_;
  return cell;
}

void SlottedNetwork::inject_flow_segment(const Router& router, FlowId flow,
                                         NodeId src, NodeId dst,
                                         std::uint64_t bytes,
                                         std::uint64_t first_cell,
                                         std::uint64_t cell_count,
                                         int flow_class) {
  const std::uint64_t cells =
      (bytes + config_.cell_bytes - 1) / config_.cell_bytes;
  SORN_ASSERT(first_cell + cell_count <= cells, "segment past end of flow");
  // Remember which path class injected the flow: stalled cells must be
  // retransmitted through the same router (a bulk flow re-routed onto the
  // short-flow path class would jump queues and skew both path classes).
  const bool bulk = bulk_router_ != nullptr && &router == bulk_router_;
  // Flow-level events fire once, with the first segment; the flow record
  // (created by the first on_inject with the full totals) completes when
  // every cell — across all segments — has been delivered.
  if (first_cell == 0) {
    if (telemetry_ != nullptr)
      telemetry_->on_flow_inject(now_, flow, src, dst, bytes, flow_class);
    if (checker_ != nullptr) checker_->on_flow_inject(flow, cells);
  }
  for (std::uint64_t c = 0; c < cell_count; ++c) {
    // Stagger the routing reference slot across the segment's cells: cell
    // c will leave the source no earlier than c/lanes slots from now, and
    // "first available link" load balancing must be evaluated at each
    // cell's own departure opportunity (otherwise a whole flow convoys
    // onto one queue; cf. the paper's footnote on long flows spreading
    // across all intra-clique links).
    Cell cell = make_cell(router, flow,
                          static_cast<std::uint32_t>(first_cell + c), src, dst,
                          now_ + static_cast<Slot>(c) / config_.lanes);
    metrics_.on_inject(cell, cells, bytes, flow_class, bulk);
    enqueue_or_drop(cell);
  }
}

void SlottedNetwork::inject_cell(NodeId src, NodeId dst) {
  Cell cell = make_cell(*router_, kNoFlow, 0, src, dst, now_);
  metrics_.on_inject(cell, 1, config_.cell_bytes);
  enqueue_or_drop(cell);
}

void SlottedNetwork::enqueue_or_drop(Cell& cell,
                                     std::uint64_t queued_ahead) {
  const std::uint64_t cap = config_.max_queue_cells;
  const std::uint64_t mark_at = config_.ecn_threshold_cells;
  if (cap > 0 || mark_at > 0) {
    const std::uint64_t size =
        voqs_.size_of(cell.current(), cell.next_hop()) + queued_ahead;
    if (cap > 0 && size >= cap) {
      metrics_.on_drop();
      if (telemetry_ != nullptr) {
        telemetry_->on_cell_drop(now_, cell.current(), cell.next_hop(),
                                 cell.flow);
      }
      return;
    }
    if (mark_at > 0 && size >= mark_at) {
      cell.ecn = true;
      metrics_.on_ecn_mark();
      if (telemetry_ != nullptr) telemetry_->on_ecn_mark();
    }
  }
  voqs_.push(cell);
}

// take() and apply() are inlined into both sweeps: as calls, once per node
// per lane, they cost 5-12% of slots/s at N = 4096 with 16 lanes and two
// threads (4-vCPU x86 host).
[[gnu::always_inline]] inline std::optional<SlottedNetwork::StagedEvent>
SlottedNetwork::take(NodeId node, NodeId peer) {
  if (failures_.any_failures() && !failures_.usable(node, peer))
    return std::nullopt;
  // Gray decisions are stateless seeded hashes (no shared Rng), so shards
  // can evaluate them; apply() replays the outcome in node order.
  const GrayCircuit* gray = nullptr;
  if (gray_.any()) {
    gray = gray_.find(node, peer);
    // A throttled circuit's inactive slot behaves like a one-slot outage:
    // the head cell stays queued and retries next opportunity.
    if (gray != nullptr && !gray_.slot_active(now_, node, peer, *gray))
      return std::nullopt;
  }
  const Cell* head = voqs_.peek(node, peer, now_);
  if (head == nullptr) return std::nullopt;
  std::optional<StagedEvent> ev(std::in_place, *head);
  voqs_.pop(node, peer);
  ev->gray_drop =
      gray != nullptr && gray_.cell_lost(now_, node, peer, *gray, ev->cell);
  if (!ev->gray_drop) {
    ++ev->cell.hop;
    // Turnaround at a relay: receivable next slot at the earliest, plus
    // the propagation delay in whole slots.
    if (!ev->cell.at_destination())
      ev->cell.ready_slot = now_ + 1 + prop_slots_;
  }
  return ev;
}

[[gnu::always_inline]] inline void SlottedNetwork::apply(
    StagedEvent& ev, std::uint64_t queued_ahead) {
  Cell& cell = ev.cell;
  // A lost cell was not advanced: its hop is still the circuit it left on.
  const int sent = ev.gray_drop ? cell.hop : cell.hop - 1;
  const NodeId node = cell.path.at(sent);
  const NodeId peer = cell.path.at(sent + 1);
  if (checker_ != nullptr) checker_->on_transmit(now_, node, peer);
  if (ev.gray_drop) {
    // Transmitted but lost in flight; the end-host retransmission policy
    // recovers the flow, duplicates are dedupped at the receiver.
    metrics_.on_gray_drop();
    if (telemetry_ != nullptr)
      telemetry_->on_gray_drop(now_, node, peer, cell.flow);
    return;
  }
  if (!cell.at_destination()) {
    metrics_.on_forward();
    enqueue_or_drop(cell, queued_ahead);
    return;
  }
  if (checker_ != nullptr) checker_->on_deliver(now_, cell);
  // The cell arrives at the end of the slot; only first copies that
  // advanced an open flow are echoed to the transport as acks.
  const bool first_copy = metrics_.on_deliver(cell, now_ + 1);
  if (transport_ != nullptr && first_copy) transport_->on_ack(cell, now_ + 1);
}

// One lane's sweep, sharded across the pool. Phase 1 (parallel): each
// shard runs take() over its contiguous node range in order — node i only
// ever pops its own queues, so pops are disjoint across shards — and
// stages the outcomes. Phase 2 (sequential): stages are merged in shard
// order, which is node order, so apply() replays every side effect with
// observable ordering (metrics, trace events, pushes, drops) in exactly
// the sequence the sequential sweep produces.
//
// The one way deferred pushes could diverge from the interleaved
// sequential sweep is the queue size seen by the capacity check and the
// ECN mark: sequentially, node i pushes into its peer's queue *before*
// nodes j > i pop, and a pushed cell is never transmittable in the same
// slot (ready_slot > now), so only queue *sizes* can differ, never heads.
// The merge reconstructs the sequential-order size from the popped_ marks.
void SlottedNetwork::step_lane_parallel(const Matching& m,
                                        PhaseProfiler* prof) {
  std::fill(popped_.begin(), popped_.end(), std::uint8_t{0});
  in_parallel_sweep_ = true;
  try {
    ScopedPhase sweep(prof, ProfPhase::kLaneSweep);
    pool_->run_shards(
        static_cast<int>(shard_plan_.size()), [&, this](int s) {
          const ShardRange range = shard_plan_[static_cast<std::size_t>(s)];
          ShardStage& stage = stages_[static_cast<std::size_t>(s)];
          stage.events.clear();
          stage.pops = 0;
          for (NodeId i = range.begin; i < range.end; ++i) {
            const NodeId peer = m.dst_of(i);
            if (peer == i) continue;
            std::optional<StagedEvent> ev = take(i, peer);
            if (!ev) continue;
            ++stage.pops;
            popped_[static_cast<std::size_t>(i)] = 1;
            stage.events.push_back(std::move(*ev));
          }
        });
  } catch (...) {
    // A throwing shard increments stage.pops before the statement that can
    // throw, so summing the stages restores the VoqSet size invariant even
    // for the partial sweep. The cells staged this sweep are discarded —
    // the network stays usable but this slot under-delivers.
    in_parallel_sweep_ = false;
    std::uint64_t pops = 0;
    for (const ShardStage& stage : stages_) pops += stage.pops;
    voqs_.settle_total(pops);
    throw;
  }
  in_parallel_sweep_ = false;
  std::uint64_t pops = 0;
  // optional<> so the merge scope closes before the settle scope opens
  // without re-nesting the whole replay loop.
  std::optional<ScopedPhase> merge;
  if (prof != nullptr) merge.emplace(prof, ProfPhase::kMergeReplay);
  for (ShardStage& stage : stages_) {
    pops += stage.pops;
    for (StagedEvent& ev : stage.events) {
      // Sequentially, a relay's own pop this lane happens after the push
      // into it when the relay sits later in the sweep; the parallel phase
      // already popped, so count that cell back. (The relay is the only
      // node popping its queue toward the next hop, and the sender the
      // only node pushing into it this lane — the matching is a
      // permutation.)
      const Cell& c = ev.cell;
      const bool ahead = !ev.gray_drop && !c.at_destination() &&
                         c.current() > c.path.at(c.hop - 1) &&
                         popped_[static_cast<std::size_t>(c.current())] &&
                         m.dst_of(c.current()) == c.next_hop();
      apply(ev, ahead ? 1 : 0);
    }
  }
  merge.reset();
  {
    ScopedPhase settle(prof, ProfPhase::kVoqSettle);
    voqs_.settle_total(pops);
  }
}

void SlottedNetwork::step() {
  PhaseProfiler* const prof =
      profiler_ != nullptr ? &profiler_->phases() : nullptr;
  const Slot period = schedule_->period();
  for (int lane = 0; lane < config_.lanes; ++lane) {
    const Slot t = now_ + lane_phase(period, config_.lanes, lane);
    const Matching* m;
    {
      ScopedPhase advance(prof, ProfPhase::kScheduleAdvance);
      m = &schedule_->matching_at(t);
    }
    if (pool_ != nullptr) {
      step_lane_parallel(*m, prof);
      continue;
    }
    // The one-shard case: each outcome is applied as soon as it is taken.
    ScopedPhase sweep(prof, ProfPhase::kLaneSweep);
    std::uint64_t pops = 0;
    for (NodeId i = 0; i < n_; ++i) {
      const NodeId peer = m->dst_of(i);
      if (peer == i) continue;
      std::optional<StagedEvent> ev = take(i, peer);
      if (!ev) continue;
      ++pops;
      apply(*ev, 0);
    }
    voqs_.settle_total(pops);
  }
  metrics_.on_slot(voqs_.total_queued());
  if (checker_ != nullptr) {
    checker_->on_slot_end(now_, metrics_.injected_cells(),
                          metrics_.delivered_cells(),
                          metrics_.dropped_cells(), voqs_.total_queued());
  }
  // Sample before advancing: the row is stamped with the slot it covers.
  // The max-VOQ-depth scan is only paid on sampled slots.
  if (telemetry_ != nullptr && telemetry_->sample_due(now_)) {
    ScopedPhase flush(prof, ProfPhase::kTelemetryFlush);
    telemetry_->sample(now_, metrics_.injected_cells(),
                       metrics_.delivered_cells(), metrics_.dropped_cells(),
                       metrics_.forwarded_cells(), voqs_.total_queued(),
                       voqs_.max_queue_depth(), metrics_.open_flows());
  }
  if (profiler_ != nullptr) {
    // Gauges read sizes only; metrics/RNG are untouched, so the sampled
    // artifacts cannot diverge between profiled and unprofiled runs.
    profiler_->memory().tick(now_);
    prof->end_slot();
  }
  ++now_;
}

void SlottedNetwork::run(Slot slots) {
  for (Slot s = 0; s < slots; ++s) step();
}

void SlottedNetwork::reconfigure(const CircuitSchedule* schedule,
                                 const Router* router) {
  SORN_ASSERT(schedule != nullptr && router != nullptr,
              "cannot reconfigure to a null schedule/router");
  SORN_ASSERT(schedule->node_count() == n_,
              "reconfiguration must preserve the node count");
  schedule_ = schedule;
  router_ = router;
  if (telemetry_ != nullptr) telemetry_->on_reconfigure(now_);
}

void SlottedNetwork::reset_metrics() {
  metrics_.reset_counters();
  if (checker_ != nullptr) checker_->on_counter_reset(voqs_.total_queued());
}

void SlottedNetwork::set_invariant_checker(InvariantChecker* checker) {
  checker_ = checker;
  if (checker_ != nullptr) {
    checker_->on_attach(&failures_, metrics_.injected_cells(),
                        metrics_.delivered_cells(), metrics_.dropped_cells(),
                        voqs_.total_queued());
  }
}

void SlottedNetwork::set_threads(int threads) {
  SORN_ASSERT(threads >= 1, "need at least one engine thread");
  if (threads <= 1) {
    pool_.reset();
    shard_plan_.clear();
    stages_.clear();
    popped_.clear();
    return;
  }
  pool_ = std::make_unique<ThreadPool>(threads);
  shard_plan_ = shard_ranges(n_, threads);
  stages_.assign(shard_plan_.size(), ShardStage{});
  popped_.assign(static_cast<std::size_t>(n_), 0);
  // A pool created while a profiler is attached starts accounting
  // immediately (set_threads after set_profiler and vice versa both work).
  if (profiler_ != nullptr) pool_->enable_profiling(true);
}

void SlottedNetwork::set_profiler(Profiler* profiler) {
  profiler_ = profiler;
  if (pool_ != nullptr) pool_->enable_profiling(profiler != nullptr);
  if (profiler == nullptr) return;
  // Register this network's byte gauges. The lambdas borrow `this`; the
  // attachment must be cleared (set_profiler(nullptr) does not unregister
  // — the profiler simply must not be sampled after the network dies).
  MemoryAccountant& mem = profiler->memory();
  mem.register_provider("voq_cells", [this] { return voqs_.memory_bytes(); });
  mem.register_provider("schedule_matchings",
                        [this] { return schedule_->memory_bytes(); });
  mem.register_provider("flow_records",
                        [this] { return metrics_.flow_records_bytes(); });
  mem.register_provider("retransmit_state", [this] {
    return metrics_.retransmit_state_bytes();
  });
  mem.register_provider("metrics_distributions", [this] {
    return metrics_.distributions_bytes();
  });
}

void SlottedNetwork::snapshot_pool_utilization() {
  if (profiler_ != nullptr && pool_ != nullptr)
    profiler_->set_pool_utilization(pool_->utilization());
}

void SlottedNetwork::set_telemetry(Telemetry* telemetry) {
  telemetry_ = telemetry;
  metrics_.set_tracer(telemetry != nullptr ? &telemetry->tracer() : nullptr);
}

bool SlottedNetwork::fail_node(NodeId node) {
  if (!failures_.fail_node(node)) return false;
  if (telemetry_ != nullptr) telemetry_->on_node_fail(now_, node);
  return true;
}

bool SlottedNetwork::heal_node(NodeId node) {
  if (!failures_.heal_node(node)) return false;
  if (telemetry_ != nullptr) telemetry_->on_node_heal(now_, node);
  return true;
}

bool SlottedNetwork::fail_circuit(NodeId src, NodeId dst) {
  if (!failures_.fail_circuit(src, dst)) return false;
  if (telemetry_ != nullptr) telemetry_->on_circuit_fail(now_, src, dst);
  return true;
}

bool SlottedNetwork::heal_circuit(NodeId src, NodeId dst) {
  if (!failures_.heal_circuit(src, dst)) return false;
  if (telemetry_ != nullptr) telemetry_->on_circuit_heal(now_, src, dst);
  return true;
}

bool SlottedNetwork::degrade_circuit(NodeId src, NodeId dst, double loss_p) {
  if (!gray_.degrade_circuit(src, dst, loss_p)) return false;
  if (telemetry_ != nullptr) {
    const GrayCircuit* g = gray_.find(src, dst);
    telemetry_->on_circuit_degrade(now_, src, dst, loss_p,
                                   g != nullptr ? g->capacity : 1.0);
  }
  return true;
}

bool SlottedNetwork::throttle_circuit(NodeId src, NodeId dst,
                                      double capacity) {
  if (!gray_.throttle_circuit(src, dst, capacity)) return false;
  if (telemetry_ != nullptr) {
    const GrayCircuit* g = gray_.find(src, dst);
    telemetry_->on_circuit_degrade(now_, src, dst,
                                   g != nullptr ? g->loss_p : 0.0, capacity);
  }
  return true;
}

bool SlottedNetwork::restore_circuit(NodeId src, NodeId dst) {
  if (!gray_.restore_circuit(src, dst)) return false;
  if (telemetry_ != nullptr) telemetry_->on_circuit_restore(now_, src, dst);
  return true;
}

std::uint64_t SlottedNetwork::restore_all_gray() {
  std::uint64_t restored = 0;
  for (const auto& [s, d, g] : gray_.degraded_circuits())
    restored += restore_circuit(s, d) ? 1 : 0;
  return restored;
}

std::uint64_t SlottedNetwork::heal_all() {
  std::uint64_t healed = 0;
  for (NodeId i = 0; i < n_; ++i)
    if (failures_.is_node_failed(i)) healed += heal_node(i) ? 1 : 0;
  // Iterate a copy of the failed set (heal_circuit mutates it). The set
  // is sorted by (src, dst), so telemetry fires in the same order the old
  // all-pairs scan produced — without the O(N^2) sweep.
  const std::vector<std::pair<NodeId, NodeId>> failed =
      failures_.failed_circuits();
  for (const auto& [s, d] : failed) healed += heal_circuit(s, d) ? 1 : 0;
  return healed;
}

std::uint64_t SlottedNetwork::retransmit_stalled(
    const RetransmitPolicy& policy) {
  if (policy.timeout_slots <= 0) return 0;
  // Re-admission routes with rng_; a draw inside the parallel sweep would
  // break cross-thread-count determinism (same contract as injection).
  SORN_ASSERT(!in_parallel_sweep_, "retransmit during parallel sweep");
  // Runs between slots; the interval lands in the next slot's breakdown.
  ScopedPhase scope(profiler_ != nullptr ? &profiler_->phases() : nullptr,
                    ProfPhase::kRetransmit);
  const std::vector<SimMetrics::StalledFlow> stalled =
      metrics_.collect_retransmits(now_, policy.timeout_slots,
                                   policy.max_attempts, policy.jitter_frac,
                                   config_.seed ^ 0x62636b6f66664a74ULL);
  std::uint64_t cells = 0;
  for (const SimMetrics::StalledFlow& sf : stalled) {
    // Bulk-classified flows were injected via the bulk router
    // (inject_flow_with) and must be re-admitted through it: the two
    // routers are different path classes (Opera: bulk rides the direct
    // rotation circuit), not interchangeable load-balancers.
    const Router& router =
        sf.bulk && bulk_router_ != nullptr ? *bulk_router_ : *router_;
    for (const std::uint32_t seq : sf.missing) {
      // The copy's inject_slot is now: copy latency; FCT uses the record.
      Cell cell = make_cell(router, sf.flow, seq, sf.src, sf.dst, now_);
      metrics_.on_retransmit_cell();
      ++cells;
      enqueue_or_drop(cell);
    }
    if (telemetry_ != nullptr) {
      telemetry_->on_retransmit(now_, sf.flow, sf.missing.size(),
                                sf.attempt);
    }
  }
  return cells;
}

}  // namespace sorn
