// One event path out of the slot engine.
//
// A SimObserver receives every event SlottedNetwork emits: flow inject
// and completion, each transmit and delivery, tail drops, gray drops and
// ECN marks, retransmit rounds, reconfigures, the six fault transitions
// and the end of every slot. Every hook is a no-op by default; a consumer
// overrides the ones it needs. Telemetry (counters, trace, time series),
// InvariantChecker (conservation, failed elements, receiver seqs) and the
// closed-loop Transport (acks) are the consumers in this library.
//
// The network keeps one list (SlottedNetwork::add_observer) and calls each
// hook on every attached observer in attach order, always on the thread
// that calls step() or the mutator that raised the event. The take pass
// stages its transmit outcomes and the apply pass replays them in
// lane-major node order, so an observer sees that order and needs no
// synchronization. A hook must not attach or detach observers.
#pragma once

#include <cstdint>

#include "sim/cell.h"
#include "util/time.h"
#include "util/types.h"

namespace sorn {

class SlottedNetwork;

class SimObserver {
 public:
  SimObserver() = default;
  // The network holds observers by address; a copy would not be attached.
  SimObserver(const SimObserver&) = delete;
  SimObserver& operator=(const SimObserver&) = delete;
  virtual ~SimObserver() = default;

  // add_observer calls this once, and reset_metrics() calls it again after
  // zeroing the counters, so state anchored to the network's counters
  // (the invariant checker's conservation baseline) re-anchors.
  virtual void on_attach(const SlottedNetwork& /*network*/) {}

  // ---- Flows ----
  // A flow's first segment entered the network: `bytes` and `cells` are
  // the whole flow's size.
  virtual void on_flow_inject(Slot /*slot*/, FlowId /*flow*/, NodeId /*src*/,
                              NodeId /*dst*/, std::uint64_t /*bytes*/,
                              std::uint64_t /*cells*/, int /*flow_class*/) {}
  // The flow's last undelivered cell arrived. `slot` is the arrival slot
  // (the transmit slot + 1), the slot FCTs are measured to.
  virtual void on_flow_complete(Slot /*slot*/, FlowId /*flow*/,
                                Picoseconds /*fct_ps*/, int /*flow_class*/) {
  }

  // ---- Cells ----
  // A cell was popped for transmission across src -> dst.
  virtual void on_transmit(Slot /*slot*/, NodeId /*src*/, NodeId /*dst*/) {}
  // `cell` reached its destination at the end of `slot`. first_copy: it
  // advanced an open flow (false for anonymous cells and for duplicates
  // the receiver discards).
  virtual void on_deliver(Slot /*slot*/, const Cell& /*cell*/,
                          bool /*first_copy*/) {}
  // A cell bound for at -> next_hop met a full queue and was dropped.
  virtual void on_tail_drop(Slot /*slot*/, NodeId /*at*/, NodeId /*next_hop*/,
                            FlowId /*flow*/) {}
  // A cell was lost in flight on a gray (lossy) circuit at -> next_hop.
  virtual void on_gray_drop(Slot /*slot*/, NodeId /*at*/, NodeId /*next_hop*/,
                            FlowId /*flow*/) {}
  // A cell joining the queue at -> next_hop was ECN-marked.
  virtual void on_ecn_mark(Slot /*slot*/, NodeId /*at*/, NodeId /*next_hop*/,
                           FlowId /*flow*/) {}
  // The stall detector re-admitted `cells` undelivered cells of `flow` on
  // backoff round `attempt` (1-based).
  virtual void on_retransmit(Slot /*slot*/, FlowId /*flow*/,
                             std::uint64_t /*cells*/,
                             std::uint32_t /*attempt*/) {}

  // ---- Network state ----
  // A schedule/router swap became visible to the data plane.
  virtual void on_reconfigure(Slot /*slot*/) {}
  virtual void on_node_fail(Slot /*slot*/, NodeId /*node*/) {}
  virtual void on_node_heal(Slot /*slot*/, NodeId /*node*/) {}
  virtual void on_circuit_fail(Slot /*slot*/, NodeId /*src*/, NodeId /*dst*/) {
  }
  virtual void on_circuit_heal(Slot /*slot*/, NodeId /*src*/, NodeId /*dst*/) {
  }
  // A circuit entered (or changed) a gray state: lossy at `loss_p`, and/or
  // serving only a `capacity` fraction of its slots.
  virtual void on_circuit_degrade(Slot /*slot*/, NodeId /*src*/,
                                  NodeId /*dst*/, double /*loss_p*/,
                                  double /*capacity*/) {}
  virtual void on_circuit_restore(Slot /*slot*/, NodeId /*src*/,
                                  NodeId /*dst*/) {}

  // The end of `slot`: the apply pass and the VOQ settle are done, so the
  // network's counters and queues are final for the slot. Observers read
  // what they need from `network` directly.
  virtual void on_slot_end(Slot /*slot*/, const SlottedNetwork& /*network*/) {}
};

}  // namespace sorn
