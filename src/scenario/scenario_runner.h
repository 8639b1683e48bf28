// ScenarioRunner: owns the full lifecycle of one scenario — build the
// design through the registry, wire the simulator (failure view,
// telemetry sinks, fault injector, retransmission), generate traffic, run
// the configured workload, and flush the artifacts — so every tool, bench
// and example drives an experiment through one code path.
//
// Construction is separate from running: benches that need the raw
// simulator (adaptation experiments stepping it by hand) call create()
// and use network()/design() directly without run().
#pragma once

#include <cstdint>
#include <memory>
#include <string>

#include "scenario/design.h"
#include "scenario/scenario_config.h"
#include "sim/invariants.h"
#include "sim/network.h"
#include "sim/workload_driver.h"
#include "traffic/demand_model.h"
#include "util/assert.h"

namespace sorn {

class ControlFaultModel;
class ControlPlane;
class DctcpTransport;
class FaultInjector;
class FileTraceSink;
class SafeModeGuard;
class Telemetry;

class ScenarioRunner {
 public:
  // Validate the config, build the design and wire the simulator, traffic,
  // telemetry and faults. On failure returns null and sets *error.
  static std::unique_ptr<ScenarioRunner> create(const ScenarioConfig& config,
                                                std::string* error);
  ~ScenarioRunner();

  const ScenarioConfig& config() const { return config_; }
  const BuiltDesign& design() const { return design_; }
  SlottedNetwork& network() { return *network_; }
  const SlottedNetwork& network() const { return *network_; }
  // The scenario's demand, in whichever backend config.traffic_backend
  // selected (an override matrix keeps its own backend). Only valid after
  // create() — there is no placeholder matrix.
  const DemandModel& traffic() const {
    SORN_ASSERT(traffic_ != nullptr, "traffic accessed before create()");
    return *traffic_;
  }
  // The clique structure traffic was generated over (the design's, or a
  // contiguous fallback for designs without one).
  const CliqueAssignment& traffic_cliques() const { return traffic_cliques_; }
  // Non-null only when the config enables faults.
  const FaultInjector* injector() const {
    return faults_enabled_ ? injector_.get() : nullptr;
  }
  // Non-null only when a telemetry sink is configured.
  Telemetry* telemetry() {
    return telemetry_attached_ ? telemetry_.get() : nullptr;
  }
  // Non-null only when the config enables profiling (profile flag or a
  // profile_json path).
  Profiler* profiler() { return profiler_.get(); }
  // Non-null only when epoch_slots > 0 enables the control loop.
  const ControlPlane* control() const { return control_.get(); }
  // Non-null only when the config describes control-plane faults.
  const ControlFaultModel* control_faults() const {
    return control_faults_.get();
  }
  // Non-null only when the control loop runs with faults (the guard is
  // what keeps the data plane defined during outages).
  const SafeModeGuard* safe_mode() const { return safe_mode_.get(); }
  // Non-null only when check_invariants is set.
  const InvariantChecker* invariant_checker() const {
    return checker_.get();
  }
  // Non-null only when config.transport == "dctcp" wires the closed-loop
  // transport (window/ack counters live here, not in SimMetrics).
  const DctcpTransport* transport() const { return transport_.get(); }

  // Runs at the start of every slot of every workload (a closed-loop
  // one's warmup and measured slots alike), before the fault injector's
  // tick. Set before run().
  void set_slot_hook(WorkloadDriver::SlotHook hook) {
    user_hook_ = std::move(hook);
  }

  // Run the configured workload and write the configured artifacts.
  // Returns false (and sets *error) when an artifact cannot be written;
  // the simulation itself has no failure mode. One-shot.
  bool run(std::string* error);

  // ---- results (valid after run()) ----
  const SimMetrics& metrics() const { return network_->metrics(); }
  // Closed-loop delivered throughput r (saturation workloads; 0 for
  // arrival-driven ones).
  double saturation_r() const { return saturation_r_; }
  std::uint64_t flows_injected() const { return flows_injected_; }

  // Artifact bodies, regenerable on demand (run() writes these to the
  // configured paths).
  std::string metrics_json() const;
  std::string timeseries_csv() const;
  // The profile.json body; empty when profiling is off. Wall-clock data —
  // unlike the two artifacts above it is NOT byte-deterministic.
  std::string profile_json() const;

 private:
  ScenarioRunner() = default;

  void run_workload();

  ScenarioConfig config_;
  BuiltDesign design_;
  std::unique_ptr<SlottedNetwork> network_;
  std::unique_ptr<DemandModel> traffic_;  // set by create(), never null after
  CliqueAssignment traffic_cliques_;
  std::unique_ptr<Telemetry> telemetry_;
  std::unique_ptr<Profiler> profiler_;
  std::unique_ptr<FileTraceSink> trace_sink_;
  std::unique_ptr<FaultInjector> injector_;
  std::unique_ptr<ControlPlane> control_;
  std::unique_ptr<ControlFaultModel> control_faults_;
  std::unique_ptr<SafeModeGuard> safe_mode_;
  std::unique_ptr<InvariantChecker> checker_;
  std::unique_ptr<DctcpTransport> transport_;
  WorkloadDriver::SlotHook user_hook_;
  bool telemetry_attached_ = false;
  bool faults_enabled_ = false;
  bool ran_ = false;
  double saturation_r_ = 0.0;
  std::uint64_t flows_injected_ = 0;
};

}  // namespace sorn
