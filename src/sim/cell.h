// The unit of transmission: a fixed-size cell.
//
// Like Sirius and Shoal, the fabric transports fixed-size cells — one cell
// per uplink per time slot. A cell carries its source-selected path
// (source routing), the index of the node currently holding it, and the
// timestamps needed for latency accounting.
//
// Queued cells are most of the simulator's memory, and every pop, staged
// event and push copies one, so a cell packs into 32 bytes: the flow id,
// seq and both slots as 32-bit fields, the up to seven path nodes after
// the source as 16-bit ids, and one byte holding the hop index, the hop
// count and the ECN mark. The source is not stored: whoever handles a
// cell at its source (injection, the transmit that takes it from there)
// already knows it. Every limit the layout imposes is asserted where a
// value enters; nothing is truncated.
#pragma once

#include <array>
#include <cstdint>

#include "routing/path.h"
#include "util/assert.h"
#include "util/time.h"
#include "util/types.h"

namespace sorn {

using FlowId = std::uint64_t;
constexpr FlowId kNoFlow = ~FlowId{0};

class Cell {
 public:
  // Node ids are stored in 16 bits, so a network has at most 65536 nodes
  // (ScenarioConfig::validate and SlottedNetwork check this).
  static constexpr NodeId kMaxNodes = NodeId{1} << 16;
  // The largest flow id a cell stores; the all-ones 32-bit value is kNoFlow.
  static constexpr FlowId kMaxFlow = 0xfffffffe;
  // The latest slot a cell can be stamped with.
  static constexpr Slot kMaxSlot = 0xffffffff;

  // Cell `seq` of `flow` (kNoFlow for an anonymous cell), entering the
  // queue at path.src() on slot `now` and transmittable from then on.
  Cell(FlowId flow, std::uint32_t seq, const Path& path, Slot now)
      : flow_(checked_flow(flow)),
        seq_(seq),
        inject_slot_(checked_slot(now)),
        ready_slot_(inject_slot_),
        state_(static_cast<std::uint8_t>(path.hop_count() << kCountShift)) {
    for (int i = 1; i < path.size(); ++i) {
      SORN_ASSERT(path.at(i) >= 0 && path.at(i) < kMaxNodes,
                  "node id does not fit a cell");
      nodes_[static_cast<std::size_t>(i - 1)] =
          static_cast<std::uint16_t>(path.at(i));
    }
  }

  FlowId flow() const { return flow_ == kNoFlow32 ? kNoFlow : flow_; }
  // Position of this cell within its flow (0-based). Lets the receiver
  // deduplicate retransmitted copies; always 0 for anonymous cells.
  std::uint32_t seq() const { return seq_; }
  // Slot at which the cell entered the source queue.
  Slot inject_slot() const { return inject_slot_; }
  // Earliest slot at which the cell may be transmitted from the current
  // node (models propagation + forwarding turnaround after each hop).
  Slot ready_slot() const { return ready_slot_; }
  void set_ready_slot(Slot slot) { ready_slot_ = checked_slot(slot); }

  // Index into the full path (the source is 0) of the node currently
  // buffering the cell.
  int hop() const { return state_ & kHopMask; }
  int hop_count() const { return (state_ >> kCountShift) & kHopMask; }
  bool at_destination() const { return hop() == hop_count(); }
  // The node holding the cell once it has left its source (hop() >= 1).
  NodeId current() const { return node(hop()); }
  NodeId next_hop() const { return node(hop() + 1); }
  NodeId dst() const { return node(hop_count()); }
  // Move the cell one hop along its path; it must not be at its
  // destination (the hop index sits in the low bits of state_).
  void advance() { ++state_; }

  // ECN-like congestion mark: set when the cell is enqueued into a VOQ
  // already holding at least NetworkConfig::ecn_threshold_cells cells.
  // Carried to the receiver and echoed to the transport at delivery.
  bool ecn() const { return (state_ & kEcnBit) != 0; }
  void mark_ecn() { state_ |= kEcnBit; }

 private:
  static constexpr std::uint32_t kNoFlow32 = ~std::uint32_t{0};
  // state_: hop index in bits 0-2, hop count in bits 3-5, ECN in bit 6.
  static constexpr int kHopMask = 0x7;
  static constexpr int kCountShift = 3;
  static constexpr std::uint8_t kEcnBit = 1 << 6;
  static_assert(Path::kMaxNodes - 1 <= kHopMask,
                "hop index and count must fit three bits");

  // Path node i, for 1 <= i <= hop_count(); the source is not stored.
  NodeId node(int i) const {
    return nodes_[static_cast<std::size_t>(i - 1)];
  }
  static std::uint32_t checked_flow(FlowId flow) {
    SORN_ASSERT(flow == kNoFlow || flow <= kMaxFlow,
                "flow id does not fit a cell");
    return static_cast<std::uint32_t>(flow);
  }
  static std::uint32_t checked_slot(Slot slot) {
    SORN_ASSERT(slot >= 0 && slot <= kMaxSlot, "slot does not fit a cell");
    return static_cast<std::uint32_t>(slot);
  }

  std::uint32_t flow_;
  std::uint32_t seq_;
  std::uint32_t inject_slot_;
  std::uint32_t ready_slot_;
  // Entries past hop_count() stay 0.
  std::array<std::uint16_t, Path::kMaxNodes - 1> nodes_{};
  std::uint8_t state_;
};
static_assert(sizeof(Cell) <= 32, "Cell grew past 32 bytes");

}  // namespace sorn
