// Runtime invariant checking for the slotted simulator.
//
// An InvariantChecker is a SimObserver (SlottedNetwork::add_observer).
// From the event stream it re-derives three classes of invariants every
// slot and records violations instead of trusting the network's own
// bookkeeping:
//
//   conservation — injected = delivered + dropped + in-flight, checked
//     at every slot end against an attach-time baseline (reset_metrics()
//     re-sends attach, so attaching mid-run or resetting the counters
//     re-anchors, not breaks, the identity). Retransmitted copies count
//     on the injected side and duplicate deliveries on the delivered
//     side, so the identity is exact, not approximate.
//
//   no forwarding through failed elements — every transmitted cell's
//     (src, dst) hop is checked against the live FailureView; a cell
//     moving across a failed node or circuit means the lane sweep and
//     the fault layer disagree about the network state.
//
//   receiver seq sanity — per open flow, delivered seqs must be in
//     [0, cells_total) and the count of *distinct* delivered seqs can
//     never exceed cells_total (duplicates are expected under
//     retransmission; phantom or out-of-range cells are not). Tracking
//     is independent of SimMetrics, so a dedup bug there is caught here.
//
// Like every observer, the checker only reads, so results are
// byte-identical with it attached or not.
#pragma once

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "routing/failure_view.h"
#include "sim/observer.h"

namespace sorn {

class InvariantChecker final : public SimObserver {
 public:
  // ---- SimObserver ----
  // Captures the conservation baseline from the network's current
  // counters and borrows its FailureView.
  void on_attach(const SlottedNetwork& network) override;
  void on_flow_inject(Slot slot, FlowId flow, NodeId src, NodeId dst,
                      std::uint64_t bytes, std::uint64_t cells,
                      int flow_class) override;
  void on_transmit(Slot slot, NodeId src, NodeId dst) override;
  void on_deliver(Slot slot, const Cell& cell, bool first_copy) override;
  void on_slot_end(Slot slot, const SlottedNetwork& network) override;

  // ---- Results ----
  bool ok() const { return violation_count_ == 0; }
  std::uint64_t violation_count() const { return violation_count_; }
  std::uint64_t slots_checked() const { return slots_checked_; }
  std::uint64_t transmits_checked() const { return transmits_checked_; }
  std::uint64_t delivers_checked() const { return delivers_checked_; }
  // The first kMaxRecorded violation messages, each naming the slot and
  // the broken invariant.
  const std::vector<std::string>& violations() const { return violations_; }

  static constexpr std::size_t kMaxRecorded = 32;

 private:
  struct FlowTrack {
    std::uint64_t total = 0;
    std::uint64_t distinct = 0;
    std::vector<bool> delivered;
  };

  void violate(Slot slot, const std::string& what);

  const FailureView* failures_ = nullptr;
  // delivered + dropped + in_flight - injected at attach/reset time; the
  // conservation identity holds relative to this anchor.
  std::int64_t baseline_ = 0;
  std::uint64_t violation_count_ = 0;
  std::uint64_t slots_checked_ = 0;
  std::uint64_t transmits_checked_ = 0;
  std::uint64_t delivers_checked_ = 0;
  std::vector<std::string> violations_;
  std::unordered_map<FlowId, FlowTrack> flows_;
};

}  // namespace sorn
