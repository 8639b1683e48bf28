#include "sim/invariants.h"

#include <cstdio>

#include "sim/network.h"

namespace sorn {

void InvariantChecker::on_attach(const SlottedNetwork& network) {
  failures_ = &network.failure_view();
  const SimMetrics& m = network.metrics();
  baseline_ = static_cast<std::int64_t>(m.delivered_cells() +
                                        m.dropped_cells() +
                                        network.cells_in_flight()) -
              static_cast<std::int64_t>(m.injected_cells());
}

void InvariantChecker::on_flow_inject(Slot /*slot*/, FlowId flow,
                                      NodeId /*src*/, NodeId /*dst*/,
                                      std::uint64_t /*bytes*/,
                                      std::uint64_t cells,
                                      int /*flow_class*/) {
  auto [it, inserted] = flows_.try_emplace(flow);
  if (!inserted) return;  // re-injection of an open flow id; keep the first
  it->second.total = cells;
  it->second.delivered.assign(static_cast<std::size_t>(cells), false);
}

void InvariantChecker::on_transmit(Slot slot, NodeId src, NodeId dst) {
  ++transmits_checked_;
  if (failures_ == nullptr || !failures_->any_failures()) return;
  if (failures_->is_node_failed(src))
    violate(slot, "cell transmitted from failed node " + std::to_string(src));
  if (failures_->is_node_failed(dst))
    violate(slot, "cell transmitted into failed node " + std::to_string(dst));
  if (failures_->is_circuit_failed(src, dst))
    violate(slot, "cell transmitted across failed circuit " +
                      std::to_string(src) + "->" + std::to_string(dst));
}

void InvariantChecker::on_deliver(Slot slot, const Cell& cell,
                                  bool /*first_copy*/) {
  ++delivers_checked_;
  if (cell.flow() == kNoFlow) return;
  const auto it = flows_.find(cell.flow());
  // Unknown flow: either injected before the checker attached, or a late
  // retransmitted copy of a flow that already completed — both legal.
  if (it == flows_.end()) return;
  FlowTrack& track = it->second;
  if (cell.seq() >= track.total) {
    violate(slot, "flow " + std::to_string(cell.flow()) + " delivered seq " +
                      std::to_string(cell.seq()) + " beyond its " +
                      std::to_string(track.total) + " cells");
    return;
  }
  if (track.delivered[cell.seq()]) return;  // duplicate copy; receiver dedups
  track.delivered[cell.seq()] = true;
  if (++track.distinct >= track.total) flows_.erase(it);
}

void InvariantChecker::on_slot_end(Slot slot, const SlottedNetwork& network) {
  ++slots_checked_;
  const SimMetrics& m = network.metrics();
  const std::uint64_t injected = m.injected_cells();
  const std::uint64_t delivered = m.delivered_cells();
  const std::uint64_t dropped = m.dropped_cells();
  const std::uint64_t in_flight = network.cells_in_flight();
  const std::int64_t lhs = static_cast<std::int64_t>(injected) + baseline_;
  const std::int64_t rhs =
      static_cast<std::int64_t>(delivered + dropped + in_flight);
  if (lhs != rhs) {
    char buf[192];
    std::snprintf(buf, sizeof(buf),
                  "cell conservation broken: injected %llu + baseline %lld "
                  "!= delivered %llu + dropped %llu + in-flight %llu",
                  static_cast<unsigned long long>(injected),
                  static_cast<long long>(baseline_),
                  static_cast<unsigned long long>(delivered),
                  static_cast<unsigned long long>(dropped),
                  static_cast<unsigned long long>(in_flight));
    violate(slot, buf);
  }
}

void InvariantChecker::violate(Slot slot, const std::string& what) {
  ++violation_count_;
  if (violations_.size() < kMaxRecorded)
    violations_.push_back("slot " + std::to_string(slot) + ": " + what);
}

}  // namespace sorn
