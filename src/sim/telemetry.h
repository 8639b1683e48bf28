// Telemetry: the observer that bundles the standard event counters, the
// event tracer and the optional per-slot time-series sampler.
//
// Attach it like any SimObserver (SlottedNetwork::add_observer). Each
// event hook bumps its counter and forwards to the tracer, so a Telemetry
// with no trace sink still yields counts; the slot-end hook records a
// time-series row on sampled slots, reading the network's counters and
// queues directly. Detached, it costs nothing: the network's event sites
// only walk an empty observer list (bench_obs_overhead).
//
// Telemetry is not thread-safe and does not need to be: the slot engine
// calls every observer hook on the thread that calls step(), in the
// lane-major order, which is what keeps traces and time series
// byte-identical (sim/observer.h).
#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <utility>

#include "obs/timeseries.h"
#include "obs/trace.h"
#include "sim/observer.h"

namespace sorn {

struct TelemetryOptions {
  // 0 disables time-series sampling; k >= 1 records every k-th slot.
  Slot sample_every = 0;
};

// The standard event counters, exported as the metrics JSON's "registry"
// block under "sim.<field>" (Telemetry::named_counters).
struct TelemetryCounters {
  std::uint64_t cells_dropped = 0;  // tail drops + gray drops
  std::uint64_t ecn_marks = 0;
  std::uint64_t failures = 0;  // node and circuit fails, circuit degrades
  std::uint64_t flows_injected = 0;
  std::uint64_t gray_drops = 0;
  std::uint64_t reconfigures = 0;
  std::uint64_t retransmits = 0;  // stall-detector firings
};

class Telemetry final : public SimObserver {
 public:
  explicit Telemetry(TelemetryOptions options = {});

  const TelemetryCounters& counters() const { return counters_; }
  // The counters under their exported names, in name order.
  std::array<std::pair<const char*, std::uint64_t>, 7> named_counters() const;

  Tracer& tracer() { return tracer_; }
  const Tracer& tracer() const { return tracer_; }
  void set_trace_sink(TraceSink* sink) { tracer_.set_sink(sink); }

  TimeSeriesSampler* timeseries() {
    return sampler_ ? &*sampler_ : nullptr;
  }
  const TimeSeriesSampler* timeseries() const {
    return sampler_ ? &*sampler_ : nullptr;
  }

  // ---- SimObserver ----
  void on_flow_inject(Slot slot, FlowId flow, NodeId src, NodeId dst,
                      std::uint64_t bytes, std::uint64_t /*cells*/,
                      int flow_class) override {
    ++counters_.flows_injected;
    tracer_.flow_inject(slot, flow, src, dst, bytes, flow_class);
  }
  void on_flow_complete(Slot slot, FlowId flow, Picoseconds fct_ps,
                        int flow_class) override {
    tracer_.flow_complete(slot, flow, fct_ps, flow_class);
  }
  void on_tail_drop(Slot slot, NodeId at, NodeId next_hop,
                    FlowId flow) override {
    ++counters_.cells_dropped;
    tracer_.cell_drop(slot, at, next_hop, flow);
  }
  void on_gray_drop(Slot slot, NodeId at, NodeId next_hop,
                    FlowId flow) override {
    ++counters_.cells_dropped;
    ++counters_.gray_drops;
    tracer_.gray_drop(slot, at, next_hop, flow);
  }
  // Counter only: marking is per cell and would swamp the event trace.
  void on_ecn_mark(Slot /*slot*/, NodeId /*at*/, NodeId /*next_hop*/,
                   FlowId /*flow*/) override {
    ++counters_.ecn_marks;
  }
  void on_retransmit(Slot slot, FlowId flow, std::uint64_t cells,
                     std::uint32_t attempt) override {
    ++counters_.retransmits;
    tracer_.retransmit(slot, flow, cells, attempt);
  }
  void on_reconfigure(Slot slot) override {
    ++counters_.reconfigures;
    tracer_.reconfigure(slot);
  }
  void on_node_fail(Slot slot, NodeId node) override {
    ++counters_.failures;
    tracer_.node_fail(slot, node);
  }
  void on_node_heal(Slot slot, NodeId node) override {
    tracer_.node_heal(slot, node);
  }
  void on_circuit_fail(Slot slot, NodeId src, NodeId dst) override {
    ++counters_.failures;
    tracer_.circuit_fail(slot, src, dst);
  }
  void on_circuit_heal(Slot slot, NodeId src, NodeId dst) override {
    tracer_.circuit_heal(slot, src, dst);
  }
  void on_circuit_degrade(Slot slot, NodeId src, NodeId dst, double loss_p,
                          double capacity) override {
    ++counters_.failures;
    tracer_.circuit_degrade(slot, src, dst, loss_p, capacity);
  }
  void on_circuit_restore(Slot slot, NodeId src, NodeId dst) override {
    tracer_.circuit_restore(slot, src, dst);
  }
  // Records a time-series row when `slot` is due; the max-VOQ-depth scan
  // is only paid then.
  void on_slot_end(Slot slot, const SlottedNetwork& network) override;

 private:
  TelemetryCounters counters_;
  Tracer tracer_;
  std::optional<TimeSeriesSampler> sampler_;
};

}  // namespace sorn
