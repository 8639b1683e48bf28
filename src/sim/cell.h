// The unit of transmission: a fixed-size cell.
//
// Like Sirius and Shoal, the fabric transports fixed-size cells — one cell
// per uplink per time slot. A cell carries its full source-selected path
// (source routing), the index of the node currently holding it, and the
// timestamps needed for latency accounting.
#pragma once

#include <cstdint>

#include "routing/path.h"
#include "util/time.h"

namespace sorn {

using FlowId = std::uint64_t;
constexpr FlowId kNoFlow = ~FlowId{0};

// Fields are ordered by alignment (8-byte, then the 4-byte-aligned path
// and counters, then the flag) so no padding sits between them: every VOQ
// slot, pop and staged event copies one 72-byte cell.
struct Cell {
  FlowId flow = kNoFlow;
  // Slot at which the cell entered the source queue.
  Slot inject_slot = 0;
  // Earliest slot at which the cell may be transmitted from the current
  // node (models propagation + forwarding turnaround after each hop).
  Slot ready_slot = 0;
  Path path;
  // Position of this cell within its flow (0-based). Lets the receiver
  // deduplicate retransmitted copies; always 0 for anonymous cells.
  std::uint32_t seq = 0;
  // Index into path of the node currently buffering the cell.
  std::int32_t hop = 0;
  // ECN-like congestion mark: set when the cell is enqueued into a VOQ
  // already holding at least NetworkConfig::ecn_threshold_cells cells.
  // Carried to the receiver and echoed to the transport at delivery.
  bool ecn = false;

  NodeId current() const { return path.at(hop); }
  NodeId next_hop() const { return path.at(hop + 1); }
  bool at_destination() const { return hop == path.size() - 1; }
};
static_assert(sizeof(Cell) <= 72, "Cell grew past its padding-free size");

}  // namespace sorn
