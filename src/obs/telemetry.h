// Telemetry facade: one object bundling the counter registry, the event
// tracer and the optional per-slot time-series sampler.
//
// A SlottedNetwork holds a borrowed Telemetry* (set_telemetry); every
// instrumentation site in the simulator is guarded by one null check, so
// the un-instrumented configuration costs a single predictable branch
// (bench_obs_overhead measures this at well under the 2% budget). The
// hook methods below both bump the standard counters and forward to the
// tracer, so attaching a Telemetry with no sink still yields counts.
//
// Threading contract: Telemetry is not thread-safe and does not need to
// be. The slot engine never calls hooks from worker threads — shards
// stage their results in per-shard buffers, and the coordinating thread
// invokes every hook during the apply pass, replaying events in the same
// lane-major order at any thread count. That is what keeps traces and
// time series byte-identical across thread counts (see
// src/sim/network.cpp, SlottedNetwork::step).
#pragma once

#include <memory>
#include <optional>

#include "obs/registry.h"
#include "obs/timeseries.h"
#include "obs/trace.h"

namespace sorn {

struct TelemetryOptions {
  // 0 disables time-series sampling; k >= 1 records every k-th slot.
  Slot sample_every = 0;
};

class Telemetry {
 public:
  explicit Telemetry(TelemetryOptions options = {});

  CounterRegistry& registry() { return registry_; }
  const CounterRegistry& registry() const { return registry_; }

  Tracer& tracer() { return tracer_; }
  const Tracer& tracer() const { return tracer_; }
  void set_trace_sink(TraceSink* sink) { tracer_.set_sink(sink); }

  TimeSeriesSampler* timeseries() {
    return sampler_ ? &*sampler_ : nullptr;
  }
  const TimeSeriesSampler* timeseries() const {
    return sampler_ ? &*sampler_ : nullptr;
  }

  // ---- Hooks called by the simulator ----
  // True when this slot should be sampled; the caller only then gathers
  // the (possibly expensive) gauges and calls sample().
  bool sample_due(Slot slot) const {
    return sampler_ && sampler_->due(slot);
  }
  void sample(Slot slot, std::uint64_t injected_total,
              std::uint64_t delivered_total, std::uint64_t dropped_total,
              std::uint64_t forwarded_total, std::uint64_t queued_cells,
              std::uint64_t max_voq_depth, std::uint64_t open_flows) {
    sampler_->record(slot, injected_total, delivered_total, dropped_total,
                     forwarded_total, queued_cells, max_voq_depth, open_flows);
  }

  void on_flow_inject(Slot slot, std::uint64_t flow, NodeId src, NodeId dst,
                      std::uint64_t bytes, int flow_class) {
    c_flows_injected_->inc();
    tracer_.flow_inject(slot, flow, src, dst, bytes, flow_class);
  }
  void on_cell_drop(Slot slot, NodeId at, NodeId next_hop,
                    std::uint64_t flow) {
    c_cells_dropped_->inc();
    tracer_.cell_drop(slot, at, next_hop, flow);
  }
  void on_reconfigure(Slot slot) {
    c_reconfigures_->inc();
    tracer_.reconfigure(slot);
  }
  void on_node_fail(Slot slot, NodeId node) {
    c_failures_->inc();
    tracer_.node_fail(slot, node);
  }
  void on_node_heal(Slot slot, NodeId node) { tracer_.node_heal(slot, node); }
  void on_circuit_fail(Slot slot, NodeId src, NodeId dst) {
    c_failures_->inc();
    tracer_.circuit_fail(slot, src, dst);
  }
  void on_circuit_heal(Slot slot, NodeId src, NodeId dst) {
    tracer_.circuit_heal(slot, src, dst);
  }
  // A circuit entered (or changed) a gray-degraded state: lossy at
  // `loss_p`, and/or serving only a `capacity` fraction of its slots.
  void on_circuit_degrade(Slot slot, NodeId src, NodeId dst, double loss_p,
                          double capacity) {
    c_failures_->inc();
    tracer_.circuit_degrade(slot, src, dst, loss_p, capacity);
  }
  void on_circuit_restore(Slot slot, NodeId src, NodeId dst) {
    tracer_.circuit_restore(slot, src, dst);
  }
  // A cell was lost on a gray (lossy) circuit mid-flight.
  void on_gray_drop(Slot slot, NodeId at, NodeId next_hop,
                    std::uint64_t flow) {
    c_cells_dropped_->inc();
    c_gray_drops_->inc();
    tracer_.gray_drop(slot, at, next_hop, flow);
  }
  // One stall-detector firing: `cells` undelivered cells of `flow` were
  // re-admitted on backoff round `attempt`.
  void on_retransmit(Slot slot, std::uint64_t flow, std::uint64_t cells,
                     std::uint32_t attempt) {
    c_retransmits_->inc();
    tracer_.retransmit(slot, flow, cells, attempt);
  }
  // A cell was ECN-marked at enqueue. Counter only — marking is per-cell
  // and would swamp the event trace.
  void on_ecn_mark() { c_ecn_marks_->inc(); }

 private:
  CounterRegistry registry_;
  Tracer tracer_;
  std::optional<TimeSeriesSampler> sampler_;
  // Standard counters, resolved once so hooks are a single add.
  Counter* c_flows_injected_;
  Counter* c_cells_dropped_;
  Counter* c_reconfigures_;
  Counter* c_failures_;
  Counter* c_retransmits_;
  Counter* c_gray_drops_;
  Counter* c_ecn_marks_;
};

}  // namespace sorn
