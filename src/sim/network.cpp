#include "sim/network.h"

#include <algorithm>
#include <optional>

#include "util/assert.h"

namespace sorn {
namespace {

// Sort the entries appended to `list` after its first `sorted` (ascending,
// distinct) ones and merge them in, dropping duplicates. Merged backward
// through `scratch`, which holds the appended entries, so nothing
// allocates once the scratch has grown.
template <typename T>
void merge_appended(std::vector<T>& list, std::size_t sorted,
                    std::vector<T>& scratch) {
  scratch.assign(list.begin() + static_cast<std::ptrdiff_t>(sorted),
                 list.end());
  std::sort(scratch.begin(), scratch.end());
  std::size_t i = sorted;
  std::size_t j = scratch.size();
  std::size_t out = list.size();
  while (j > 0) {
    list[--out] = i > 0 && list[i - 1] > scratch[j - 1] ? list[--i]
                                                        : scratch[--j];
  }
  list.erase(std::unique(list.begin(), list.end()), list.end());
}

}  // namespace

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
  SORN_ASSERT(n_ <= Cell::kMaxNodes, "cells store node ids in 16 bits");
  SORN_ASSERT(config_.lanes >= 1, "need at least one uplink lane");
  SORN_ASSERT(config_.cell_bytes >= 1, "cells must carry at least one byte");
  SORN_ASSERT(config_.slot_duration >= 1, "slots must last at least 1 ps");
  prop_slots_ = (config_.propagation_per_hop + config_.slot_duration - 1) /
                config_.slot_duration;
  lane_matchings_.assign(static_cast<std::size_t>(config_.lanes), 0);
  popped_.assign(static_cast<std::size_t>(n_) *
                     static_cast<std::size_t>(config_.lanes),
                 kNoPop);
  stage_.lanes.resize(static_cast<std::size_t>(config_.lanes));
  rebuild_wake_lists();
}

void SlottedNetwork::inject_flow(FlowId flow, NodeId src, NodeId dst,
                                 std::uint64_t bytes, int flow_class) {
  inject_flow_with(*router_, flow, src, dst, bytes, flow_class);
}

Cell SlottedNetwork::make_cell(const Router& router, FlowId flow,
                               std::uint32_t seq, NodeId src, NodeId dst,
                               Slot route_slot) {
  SORN_ASSERT(src != dst, "cell endpoints must differ");
  return Cell(flow, seq, router.route(src, dst, route_slot, rng_), now_);
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
    notify(&SimObserver::on_flow_inject, now_, flow, src, dst, bytes, cells,
           flow_class);
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
    metrics_.on_inject(cell, src, cells, bytes, flow_class, bulk);
    enqueue_or_drop(src, cell);
  }
}

void SlottedNetwork::inject_cell(NodeId src, NodeId dst) {
  Cell cell = make_cell(*router_, kNoFlow, 0, src, dst, now_);
  metrics_.on_inject(cell, src, 1, config_.cell_bytes);
  enqueue_or_drop(src, cell);
}

std::uint64_t SlottedNetwork::queued_ahead(NodeId relay, NodeId hop,
                                           NodeId sender, int lane) const {
  // The lane-major order runs lane l's transmits in node order, and only
  // the relay pops its own queue, so the relay's pops still ahead are: on
  // `lane` when it sweeps after the sender, and on every later lane. Two
  // lanes can match the relay to the same next hop in one slot.
  const NodeId* popped =
      popped_.data() + static_cast<std::size_t>(relay) *
                           static_cast<std::size_t>(config_.lanes);
  std::uint64_t ahead = relay > sender && popped[lane] == hop ? 1 : 0;
  for (int l = lane + 1; l < config_.lanes; ++l)
    ahead += popped[l] == hop ? 1 : 0;
  return ahead;
}

void SlottedNetwork::enqueue_or_drop(NodeId node, Cell& cell, int sent_lane,
                                     NodeId sender) {
  const NodeId hop = cell.next_hop();
  const VoqSet::QueueRef queue = voqs_.find(node, hop);
  const std::uint64_t cap = config_.max_queue_cells;
  const std::uint64_t mark_at = config_.ecn_threshold_cells;
  if (cap > 0 || mark_at > 0) {
    const std::uint64_t size =
        queue.size +
        (sent_lane >= 0 ? queued_ahead(node, hop, sender, sent_lane) : 0);
    if (cap > 0 && size >= cap) {
      metrics_.on_drop();
      notify(&SimObserver::on_tail_drop, now_, node, hop, cell.flow());
      return;
    }
    if (mark_at > 0 && size >= mark_at) {
      cell.mark_ecn();
      metrics_.on_ecn_mark();
      notify(&SimObserver::on_ecn_mark, now_, node, hop, cell.flow());
    }
  }
  // Woken before the push: if the push throws, the list entry only costs
  // a visit.
  if (queue.size == 0) wake(node, hop);
  voqs_.push(node, queue, cell);
}

void SlottedNetwork::wake(NodeId node, NodeId hop) {
  schedule_->carriers(node, hop, &carrier_scratch_);
  // Appended unsorted: the list's next walk merges it in, and drops it if
  // the node is listed already (an entry outlives its drained queue until
  // a visit finds the queue gone).
  for (const std::uint32_t m : carrier_scratch_)
    stage_.wake[m].push_back(static_cast<WakeNode>(node));
}

void SlottedNetwork::rebuild_wake_lists() {
  stage_.wake = std::vector<std::vector<WakeNode>>(schedule_->distinct_count());
  stage_.wake_sorted.assign(schedule_->distinct_count(), 0);
  for (NodeId i = 0; i < n_; ++i)
    voqs_.for_each_queue(i, [this, i](NodeId hop) { wake(i, hop); });
}

// take() and apply() are inlined into the two passes, which call them once
// per visit and once per staged event: as calls, when the take pass
// visited every (node, lane), they cost 5-12% of slots/s at N = 4096 with
// 16 lanes (4-vCPU x86 host).
[[gnu::always_inline]] inline std::optional<SlottedNetwork::StagedEvent>
SlottedNetwork::take(NodeId node, NodeId peer) {
  if (failures_.any_failures() && !failures_.usable(node, peer))
    return std::nullopt;
  // Gray decisions are stateless seeded hashes (no shared Rng), so the
  // take pass can evaluate them; apply() replays the outcome in lane-major
  // order.
  const GrayCircuit* gray = nullptr;
  if (gray_.any()) {
    gray = gray_.find(node, peer);
    // A throttled circuit's inactive slot behaves like a one-slot outage:
    // the head cell stays queued and retries next opportunity.
    if (gray != nullptr && !gray_.slot_active(now_, node, peer, *gray))
      return std::nullopt;
  }
  std::optional<Cell> cell = voqs_.pop_ready(node, peer, now_);
  if (!cell) return std::nullopt;
  StagedEvent ev{*cell, node, false};
  ev.gray_drop =
      gray != nullptr && gray_.cell_lost(now_, node, peer, *gray, ev.cell);
  if (!ev.gray_drop) {
    ev.cell.advance();
    // Turnaround at a relay: receivable next slot at the earliest, plus
    // the propagation delay in whole slots.
    if (!ev.cell.at_destination())
      ev.cell.set_ready_slot(now_ + 1 + prop_slots_);
  }
  return ev;
}

[[gnu::always_inline]] inline void SlottedNetwork::apply(StagedEvent& ev,
                                                         int lane) {
  Cell& cell = ev.cell;
  const NodeId node = ev.sender;
  // A lost cell was not advanced: its hop is still the circuit it left on.
  const NodeId peer = ev.gray_drop ? cell.next_hop() : cell.current();
  notify(&SimObserver::on_transmit, now_, node, peer);
  if (ev.gray_drop) {
    // Transmitted but lost in flight; the end-host retransmission policy
    // recovers the flow, duplicates are dedupped at the receiver.
    metrics_.on_gray_drop();
    notify(&SimObserver::on_gray_drop, now_, node, peer, cell.flow());
    return;
  }
  if (!cell.at_destination()) {
    metrics_.on_forward();
    enqueue_or_drop(peer, cell, lane, node);
    return;
  }
  // The cell arrives at the end of the slot.
  const SimMetrics::Delivery d = metrics_.on_deliver(cell, now_ + 1);
  notify(&SimObserver::on_deliver, now_, cell, d.first_copy);
  if (d.completed) {
    notify(&SimObserver::on_flow_complete, now_ + 1, cell.flow(), d.fct_ps,
           d.flow_class);
  }
}

void SlottedNetwork::take_pass() {
  const auto lanes = static_cast<std::size_t>(config_.lanes);
  for (std::size_t lane = 0; lane < lanes; ++lane) {
    std::vector<StagedEvent>& events = stage_.lanes[lane];
    for (const StagedEvent& ev : events)
      popped_[static_cast<std::size_t>(ev.sender) * lanes + lane] = kNoPop;
    events.clear();
  }
  stage_.pops = 0;
  for (std::size_t lane = 0; lane < lanes; ++lane) {
    const std::uint32_t m = lane_matchings_[lane];
    const Matching& matching = schedule_->matching(m);
    std::vector<WakeNode>& list = stage_.wake[m];
    if (stage_.wake_sorted[m] < list.size())
      merge_appended(list, stage_.wake_sorted[m], stage_.merge_scratch);
    std::vector<StagedEvent>& events = stage_.lanes[lane];
    // Room for every entry up front: the walk below cannot throw, so it
    // always leaves the list whole.
    events.reserve(list.size());
    std::size_t kept = 0;
    for (std::size_t k = 0; k < list.size(); ++k) {
      const NodeId i = list[k];
      const NodeId peer = matching.dst_of(i);
      if (std::optional<StagedEvent> ev = take(i, peer)) {
        ++stage_.pops;
        popped_[static_cast<std::size_t>(i) * lanes + lane] = peer;
        events.push_back(*ev);
      } else if (voqs_.size_of(i, peer) == 0) {
        // The queue is gone: drained on an earlier visit. Dropped at the
        // first visit that finds it so, which a queue refilled between
        // visits never reaches.
        continue;
      }
      list[kept++] = list[k];
    }
    list.resize(kept);
    stage_.wake_sorted[m] = static_cast<std::uint32_t>(kept);
  }
}

// One slot is two passes.
//
// Take pass: walk, lane by lane, the wake list of the lane's matching: its
// nodes in ascending order, each holding a queue toward the peer that
// matching gives it. A node missing from the list has no queue toward its
// peer, so a visit could take nothing.
//
// Apply pass: the staged events are replayed lane by lane, each lane in
// node order. Every side effect — metrics, observer events, pushes,
// drops — lands in the lane-major order DESIGN §5 specifies. Taking every
// lane first pops the same heads that order would: a cell pushed this
// slot has ready_slot > now, so no lane can pop it, and failure and gray
// state cannot change within a slot. Only queue sizes differ, and
// queued_ahead() restores the size the capacity check and the ECN mark
// observe.
void SlottedNetwork::step() {
  PhaseProfiler* const prof =
      profiler_ != nullptr ? &profiler_->phases() : nullptr;
  {
    ScopedPhase advance(prof, ProfPhase::kScheduleAdvance);
    const Slot period = schedule_->period();
    for (int lane = 0; lane < config_.lanes; ++lane) {
      lane_matchings_[static_cast<std::size_t>(lane)] =
          schedule_->matching_index_at(
              now_ + lane_phase(period, config_.lanes, lane));
    }
  }
  try {
    ScopedPhase sweep(prof, ProfPhase::kLaneSweep);
    take_pass();
  } catch (...) {
    // The staged cells are discarded — the network stays usable but this
    // slot under-delivers — and the pops are settled so the VoqSet size
    // invariant holds for the partial pass.
    settle_staged_pops();
    throw;
  }
  {
    ScopedPhase merge(prof, ProfPhase::kMergeReplay);
    for (int lane = 0; lane < config_.lanes; ++lane) {
      for (StagedEvent& ev : stage_.lanes[static_cast<std::size_t>(lane)])
        apply(ev, lane);
    }
  }
  {
    ScopedPhase settle(prof, ProfPhase::kVoqSettle);
    settle_staged_pops();
  }
  metrics_.on_slot(voqs_.total_queued());
  // Before advancing: observers stamp what they record with this slot.
  notify(&SimObserver::on_slot_end, now_, *this);
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
  router_ = router;
  if (schedule != schedule_) {
    schedule_ = schedule;
    rebuild_wake_lists();
  }
  notify(&SimObserver::on_reconfigure, now_);
}

void SlottedNetwork::reset_metrics() {
  metrics_.reset_counters();
  notify(&SimObserver::on_attach, *this);
}

void SlottedNetwork::add_observer(SimObserver* observer) {
  SORN_ASSERT(observer != nullptr, "cannot attach a null observer");
  SORN_ASSERT(std::find(observers_.begin(), observers_.end(), observer) ==
                  observers_.end(),
              "observer attached twice");
  observers_.push_back(observer);
  observer->on_attach(*this);
}

void SlottedNetwork::remove_observer(SimObserver* observer) {
  observers_.erase(std::remove(observers_.begin(), observers_.end(), observer),
                   observers_.end());
}

void SlottedNetwork::settle_staged_pops() { voqs_.settle_total(stage_.pops); }

std::uint64_t SlottedNetwork::sweep_stage_bytes() const {
  std::uint64_t bytes =
      popped_.capacity() * sizeof(NodeId) +
      stage_.lanes.capacity() * sizeof(std::vector<StagedEvent>) +
      stage_.wake.capacity() * sizeof(std::vector<WakeNode>) +
      stage_.wake_sorted.capacity() * sizeof(std::uint32_t) +
      stage_.merge_scratch.capacity() * sizeof(WakeNode);
  for (const std::vector<StagedEvent>& events : stage_.lanes)
    bytes += events.capacity() * sizeof(StagedEvent);
  for (const std::vector<WakeNode>& list : stage_.wake)
    bytes += list.capacity() * sizeof(WakeNode);
  return bytes;
}

void SlottedNetwork::set_profiler(Profiler* profiler) {
  profiler_ = profiler;
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
  mem.register_provider("sweep_stage", [this] { return sweep_stage_bytes(); });
}

bool SlottedNetwork::fail_node(NodeId node) {
  if (!failures_.fail_node(node)) return false;
  notify(&SimObserver::on_node_fail, now_, node);
  return true;
}

bool SlottedNetwork::heal_node(NodeId node) {
  if (!failures_.heal_node(node)) return false;
  notify(&SimObserver::on_node_heal, now_, node);
  return true;
}

bool SlottedNetwork::fail_circuit(NodeId src, NodeId dst) {
  if (!failures_.fail_circuit(src, dst)) return false;
  notify(&SimObserver::on_circuit_fail, now_, src, dst);
  return true;
}

bool SlottedNetwork::heal_circuit(NodeId src, NodeId dst) {
  if (!failures_.heal_circuit(src, dst)) return false;
  notify(&SimObserver::on_circuit_heal, now_, src, dst);
  return true;
}

bool SlottedNetwork::degrade_circuit(NodeId src, NodeId dst, double loss_p) {
  if (!gray_.degrade_circuit(src, dst, loss_p)) return false;
  const GrayCircuit* g = gray_.find(src, dst);
  notify(&SimObserver::on_circuit_degrade, now_, src, dst, loss_p,
         g != nullptr ? g->capacity : 1.0);
  return true;
}

bool SlottedNetwork::throttle_circuit(NodeId src, NodeId dst,
                                      double capacity) {
  if (!gray_.throttle_circuit(src, dst, capacity)) return false;
  const GrayCircuit* g = gray_.find(src, dst);
  notify(&SimObserver::on_circuit_degrade, now_, src, dst,
         g != nullptr ? g->loss_p : 0.0, capacity);
  return true;
}

bool SlottedNetwork::restore_circuit(NodeId src, NodeId dst) {
  if (!gray_.restore_circuit(src, dst)) return false;
  notify(&SimObserver::on_circuit_restore, now_, src, dst);
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
  // is sorted by (src, dst), so heal events fire in the same order the old
  // all-pairs scan produced — without the O(N^2) sweep.
  const std::vector<std::pair<NodeId, NodeId>> failed =
      failures_.failed_circuits();
  for (const auto& [s, d] : failed) healed += heal_circuit(s, d) ? 1 : 0;
  return healed;
}

std::uint64_t SlottedNetwork::retransmit_stalled(
    const RetransmitPolicy& policy) {
  if (policy.timeout_slots <= 0) return 0;
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
      enqueue_or_drop(sf.src, cell);
    }
    notify(&SimObserver::on_retransmit, now_, sf.flow, sf.missing.size(),
           sf.attempt);
  }
  return cells;
}

}  // namespace sorn
