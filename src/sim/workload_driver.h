// Workload driver: the one loop that advances a workload's slots. Each
// slot runs one body (slot hook, retransmission check, that slot's
// injections, transport pump, step()) under one of two plans: run_until
// injects an arrival stream's flows (Poisson, incast waves, collective
// phases, …) up to a horizon, then drains, collecting FCTs; measure pumps
// a closed-loop source (sim/saturation.h) through a warmup, resets the
// metrics and runs the measured slots. Arrivals inject all their cells at
// once by default; attach a Transport (set_transport) to run them closed
// loop, opening windowed flows that release cells as acks come back.
#pragma once

#include <cstdint>
#include <functional>

#include "sim/network.h"
#include "sim/transport_hook.h"
#include "traffic/arrivals.h"

namespace sorn {

class ClosedLoopSource;

class WorkloadDriver {
 public:
  // Maps an arrival to a flow class for split FCT percentiles.
  using Classifier = std::function<int(const FlowArrival&)>;
  // Called once per slot, before that slot's injections and before
  // step(). Fault injectors hook in here (FaultInjector::tick), keeping
  // all fault RNG between slots.
  using SlotHook = std::function<void(SlottedNetwork&, Slot)>;

  // The source must outlive the driver. A driver built on arrivals runs
  // run_until; one built on a closed-loop source runs measure.
  explicit WorkloadDriver(ArrivalStream* arrivals,
                          Classifier classifier = nullptr);
  explicit WorkloadDriver(ClosedLoopSource* source);

  // End-host retransmission: when policy.timeout_slots > 0, the driver
  // calls SlottedNetwork::retransmit_stalled(policy) every check_every
  // slots (0 = timeout_slots / 4, at least 1). The check keeps running
  // through the drain phase, and the drain also waits on open flows — a
  // flow whose every queued cell was tail-dropped has nothing in flight
  // but is still completable by retransmission.
  void set_retransmit(SlottedNetwork::RetransmitPolicy policy,
                      Slot check_every = 0);
  void set_slot_hook(SlotHook hook) { slot_hook_ = std::move(hook); }

  // Attach a closed-loop transport (borrowed; must outlive the driver).
  // Arrivals are registered via Transport::open_flow instead of injected
  // directly, and the transport is pumped once per slot — after that
  // slot's arrivals, before step(). Each
  // run_until attaches it to the network as an observer for the run, so
  // deliveries are acked; the caller must not attach it as well. The
  // drain phase also waits on the transport's backlog: a windowed flow can
  // be fully un-injected yet still pending.
  void set_transport(Transport* transport) { transport_ = transport; }

  // Truncate every arrival to at most `cap` bytes before classification
  // and injection (bounded-drain demos); 0 disables.
  void set_flow_size_cap(std::uint64_t cap) { size_cap_ = cap; }

  // Opera-style short/bulk split: flows strictly larger than
  // `cutoff_bytes` (after the size cap) are injected through `bulk`
  // instead of the network's primary router. bulk must outlive the
  // driver; nullptr disables.
  void set_bulk_router(const Router* bulk, std::uint64_t cutoff_bytes) {
    bulk_router_ = bulk;
    bulk_cutoff_ = cutoff_bytes;
  }

  // Run the network until `horizon`; flows whose arrival time falls in a
  // slot are injected at that slot's start. Optionally keep running
  // (without new arrivals) until in-flight cells drain or `drain_slots`
  // elapse.
  void run_until(SlottedNetwork& network, Picoseconds horizon,
                 Slot drain_slots = 0);

  // Run `warmup_slots`, reset_metrics(), then `measure_slots`; returns
  // delivered cells per node per lane per measured slot (the throughput r).
  double measure(SlottedNetwork& network, Slot warmup_slots,
                 Slot measure_slots);

  std::uint64_t flows_injected() const { return flows_injected_; }

 private:
  // The per-slot body; `inject` is false in the drain phase.
  void run_slot(SlottedNetwork& network, bool inject);
  // Inject every flow that arrives before the end of this slot.
  void inject_arrivals(SlottedNetwork& network);

  ArrivalStream* arrivals_ = nullptr;
  ClosedLoopSource* source_ = nullptr;
  Classifier classifier_;
  SlotHook slot_hook_;
  Transport* transport_ = nullptr;
  SlottedNetwork::RetransmitPolicy retransmit_{};
  Slot retransmit_every_ = 0;
  std::uint64_t size_cap_ = 0;
  const Router* bulk_router_ = nullptr;
  std::uint64_t bulk_cutoff_ = 0;
  Picoseconds horizon_ = 0;
  FlowArrival pending_{};
  bool has_pending_ = false;
  std::uint64_t flows_injected_ = 0;
  FlowId next_flow_id_ = 1;
};

}  // namespace sorn
