// The logically centralized control plane (paper Sec. 5).
//
// Periodically: ingest the epoch's observed traffic, update the estimate,
// and — when the macro pattern changed enough, or unconditionally on the
// first observation — re-plan the clique structure and oversubscription
// and stage a schedule swap. Deliberately slow-moving: it reacts to
// macro-scale structure, never to individual flows.
#pragma once

#include "control/control_faults.h"
#include "control/estimator.h"
#include "control/optimizer.h"
#include "control/reconfig.h"
#include "obs/prof/profiler.h"

namespace sorn {

class ControlPlane {
 public:
  struct Options {
    SornOptimizer::Options optimizer;
    ReconfigManager::Options reconfig;
    double estimator_alpha = 0.3;
    // Re-plan when macro_change() exceeds this (relative L1 of the
    // clique-level aggregate). 0 re-plans every epoch.
    double replan_threshold = 0.25;
    // Also re-plan when the estimate's locality under the current plan's
    // cliques has fallen this far below what the plan assumed — the plan
    // is stale even if epoch-to-epoch aggregates look steady again.
    double locality_degradation = 0.15;
  };

  // Borrowed failure state (usually &network.failure_view()). Two effects:
  // on_epoch re-plans whenever the failure set changed since the last plan
  // (traced with reason "failure"), and failed nodes are masked out of the
  // demand the optimizer clusters — a dead node stops attracting clique
  // slots at the next epoch instead of owning them forever. The view is
  // also forwarded to the reconfiguration manager so every generation's
  // router routes around the live failure set.
  void set_failure_view(const FailureView* view) {
    failures_ = view;
    reconfig_.set_failure_view(view);
  }

  ControlPlane(NodeId nodes, Options options);

  // Feed one epoch of observed traffic; stages a swap if warranted.
  // Returns true when a re-plan was triggered.
  bool on_epoch(const DemandModel& observed, Slot now);

  // Forward to the reconfiguration manager every slot. With a profiler
  // attached the interval is recorded as the control_tick phase (epoch
  // re-plans run inside on_epoch and land in the same phase — both are
  // control-plane work amortized over the slot cadence). While the fault
  // model reports the controller down, staged swaps are held: the network
  // keeps serving the last committed generation.
  bool tick(SlottedNetwork& network, Slot now) {
    ScopedPhase scope(profiler_ != nullptr ? &profiler_->phases() : nullptr,
                      ProfPhase::kControlTick);
    if (faults_ != nullptr && !faults_->controller_up()) return false;
    return reconfig_.tick(network, now);
  }

  // Borrowed control-plane fault model (control/control_faults.h). While
  // it reports the controller down, on_epoch drops the observation
  // (counted via note_suppressed_epoch) and tick holds staged swaps; when
  // up, observations pass through its staleness/noise filter. Also
  // installs the model's extra replan-apply delay into the reconfiguration
  // manager. nullptr detaches (and clears the extra delay).
  void set_fault_model(ControlFaultModel* faults) {
    faults_ = faults;
    reconfig_.set_extra_delay(faults != nullptr ? faults->extra_replan_delay()
                                                : 0);
  }

  const TrafficEstimator& estimator() const { return estimator_; }
  const ReconfigManager& reconfig() const { return reconfig_; }
  const SornPlan& last_plan() const { return last_plan_; }
  std::uint64_t replans() const { return replans_; }

  // Borrowed tracer for replan decisions (with trigger reason) and the
  // reconfiguration manager's staged/applied events; nullptr disables.
  void set_tracer(Tracer* tracer) {
    tracer_ = tracer;
    reconfig_.set_tracer(tracer);
  }

  // Borrowed profiler: tick() and on_epoch() time themselves under the
  // control_tick phase, and the control_state gauge counts the estimator's
  // matrices plus the reconfiguration manager's previous and pending
  // generations. nullptr detaches (one null check per tick); as with the
  // network's gauges, the profiler must not be sampled after this dies.
  void set_profiler(Profiler* profiler);

 private:
  Options options_;
  TrafficEstimator estimator_;
  SornOptimizer optimizer_;
  ReconfigManager reconfig_;
  SornPlan last_plan_;
  bool has_plan_ = false;
  std::uint64_t replans_ = 0;
  Tracer* tracer_ = nullptr;
  Profiler* profiler_ = nullptr;
  const FailureView* failures_ = nullptr;
  ControlFaultModel* faults_ = nullptr;
  // FailureView::version() at the time of the last plan; a mismatch at
  // the next epoch triggers a failure re-plan.
  std::uint64_t planned_failure_version_ = 0;
};

}  // namespace sorn
