#include "sim/workload_driver.h"

#include <algorithm>

#include "util/assert.h"

namespace sorn {

namespace {

// Keeps an observer attached to a network for one scope, on every exit
// path; a null observer attaches nothing.
struct ScopedObserver {
  ScopedObserver(SlottedNetwork& n, SimObserver* o) : network(n), observer(o) {
    if (observer != nullptr) network.add_observer(observer);
  }
  ~ScopedObserver() { network.remove_observer(observer); }
  SlottedNetwork& network;
  SimObserver* observer;
};

}  // namespace

WorkloadDriver::WorkloadDriver(ArrivalStream* arrivals, Classifier classifier)
    : arrivals_(arrivals), classifier_(std::move(classifier)) {
  SORN_ASSERT(arrivals_ != nullptr, "driver needs an arrival stream");
}

void WorkloadDriver::set_retransmit(RetransmitOptions options) {
  SORN_ASSERT(options.timeout_slots >= 0, "timeout must be nonnegative");
  retransmit_ = options;
  retransmit_every_ = options.check_every > 0
                          ? options.check_every
                          : std::max<Slot>(1, options.timeout_slots / 4);
}

void WorkloadDriver::before_step(SlottedNetwork& network) {
  const Slot now = network.now();
  if (slot_hook_) slot_hook_(network, now);
  if (retransmit_.timeout_slots > 0 && now % retransmit_every_ == 0) {
    SlottedNetwork::RetransmitPolicy policy;
    policy.timeout_slots = retransmit_.timeout_slots;
    policy.max_attempts = retransmit_.max_attempts;
    policy.jitter_frac = retransmit_.jitter_frac;
    network.retransmit_stalled(policy);
  }
}

void WorkloadDriver::run_until(SlottedNetwork& network, Picoseconds horizon,
                               Slot drain_slots) {
  // Register the bulk router so bulk-class injections are flagged and
  // retransmit_stalled re-routes them through the same path class.
  network.set_bulk_router(bulk_router_);
  // The transport hears its acks only while the driver runs it.
  const ScopedObserver acks(network, transport_);
  const Picoseconds slot_ps = network.config().slot_duration;
  while (network.now() * slot_ps < horizon) {
    const Picoseconds slot_start = network.now() * slot_ps;
    before_step(network);
    // Inject every flow that arrives before the end of this slot.
    for (;;) {
      if (!has_pending_) {
        pending_ = arrivals_->next();
        has_pending_ = true;
      }
      if (pending_.time > slot_start + slot_ps || pending_.time > horizon)
        break;
      FlowArrival arrival = pending_;
      // The cap truncates before classification and before injection, so
      // the classifier, the trace `flow` event, and the flow record all
      // observe the same (capped) size.
      if (size_cap_ > 0)
        arrival.bytes = std::min(arrival.bytes, size_cap_);
      const int cls = classifier_ ? classifier_(arrival) : 0;
      const bool bulk =
          bulk_router_ != nullptr && arrival.bytes > bulk_cutoff_;
      if (transport_ != nullptr) {
        transport_->open_flow(network, bulk ? bulk_router_ : nullptr,
                              next_flow_id_++, arrival.src, arrival.dst,
                              arrival.bytes, cls);
      } else if (bulk) {
        network.inject_flow_with(*bulk_router_, next_flow_id_++, arrival.src,
                                 arrival.dst, arrival.bytes, cls);
      } else {
        network.inject_flow(next_flow_id_++, arrival.src, arrival.dst,
                            arrival.bytes, cls);
      }
      ++flows_injected_;
      has_pending_ = false;
    }
    if (transport_ != nullptr) transport_->pump(network);
    network.step();
  }
  const bool wait_on_flows = retransmit_.timeout_slots > 0;
  for (Slot s = 0; s < drain_slots; ++s) {
    if (network.cells_in_flight() == 0 &&
        !(wait_on_flows && network.metrics().open_flows() > 0) &&
        !(transport_ != nullptr && transport_->has_backlog())) {
      break;
    }
    before_step(network);
    if (transport_ != nullptr) transport_->pump(network);
    network.step();
  }
}

}  // namespace sorn
