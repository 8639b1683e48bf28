// The sim-facing transport interface.
//
// The closed-loop end-host transport (src/transport) sits *above* the
// simulator: it holds per-flow congestion windows and releases cells into
// the network as acknowledgements open the window. The simulator must not
// depend on that library, so it sees a Transport through this interface:
//
//   - WorkloadDriver borrows a Transport*, registers arrivals via
//     open_flow() and calls pump() once per slot (after that slot's
//     arrivals, before step()) to release windowed cells.
//   - For each run_until the driver also attaches the transport to the
//     network as a SimObserver, so it hears every delivery; a first copy
//     (on_deliver's first_copy) is its ack. Observers run in the apply
//     pass's order — the §6 determinism contract (DESIGN.md "One-thread
//     slot engine").
//
// TransportStats is the plain snapshot the exporters consume
// (obs/export.h) without linking the transport library either.
#pragma once

#include <cstdint>

#include "sim/observer.h"
#include "util/stats.h"

namespace sorn {

class Router;

// Exporter-facing snapshot of a transport's lifetime counters.
struct TransportStats {
  std::uint64_t flows_opened = 0;
  std::uint64_t flows_completed = 0;
  // Cells released into the network by pump() (first transmissions only;
  // network-level retransmissions are counted by SimMetrics).
  std::uint64_t cells_sent = 0;
  // First-copy deliveries of the transport's flows (acks).
  std::uint64_t acked_cells = 0;
  // Subset of acked cells that carried an ECN mark.
  std::uint64_t ecn_acked_cells = 0;
  // Congestion-window size in cells, sampled once per flow per congestion
  // round (window update), so it summarizes how hard senders were braked.
  RunningStats cwnd_cells;
};

class Transport : public SimObserver {
 public:
  // Register a flow; its cells are released by subsequent pump() calls.
  // bulk_router selects the bulk path class (nullptr = the network's
  // primary router, resolved at each pump so reconfigures are honored).
  virtual void open_flow(SlottedNetwork& network, const Router* bulk_router,
                         FlowId flow, NodeId src, NodeId dst,
                         std::uint64_t bytes, int flow_class) = 0;

  // Release every flow's available window into the network (ascending
  // flow id). Call between slots; returns the
  // number of cells injected. An implementation may visit only the flows
  // whose window can have opened since the last pump — those opened or
  // acked since, if a pump leaves each flow it releases blocked and only
  // an ack moves a window — as long as it injects what visiting every
  // flow in ascending id would: the same segments in the same order, so
  // the router draws the same random numbers.
  virtual std::uint64_t pump(SlottedNetwork& network) = 0;

  // True while any registered flow still has unsent or unacked cells —
  // the drain phase waits on this like it waits on open flows.
  virtual bool has_backlog() const = 0;
};

}  // namespace sorn
