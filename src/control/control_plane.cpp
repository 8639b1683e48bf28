#include "control/control_plane.h"

#include <memory>

namespace sorn {

ControlPlane::ControlPlane(NodeId nodes, Options options)
    : options_(options),
      estimator_(nodes, options.estimator_alpha),
      optimizer_(options.optimizer),
      reconfig_(options.reconfig) {}

void ControlPlane::set_profiler(Profiler* profiler) {
  profiler_ = profiler;
  if (profiler == nullptr) return;
  profiler->memory().register_provider("control_state", [this] {
    return static_cast<std::uint64_t>(estimator_.memory_bytes()) +
           reconfig_.standby_memory_bytes();
  });
}

bool ControlPlane::on_epoch(const DemandModel& observed, Slot now) {
  ScopedPhase scope(profiler_ != nullptr ? &profiler_->phases() : nullptr,
                    ProfPhase::kControlTick);
  // A down controller loses the epoch's measurement entirely — it is not
  // queued for later. When up, the observation passes through the fault
  // model's staleness/noise filter first.
  if (faults_ != nullptr) {
    if (!faults_->controller_up()) {
      faults_->note_suppressed_epoch();
      return false;
    }
    estimator_.observe(faults_->filter(observed));
  } else {
    estimator_.observe(observed);
  }
  const bool first = !has_plan_;
  const double macro_change = estimator_.macro_change().value_or(0.0);
  const bool drifted = macro_change > options_.replan_threshold;
  const double locality_estimate =
      has_plan_ ? estimator_.locality(last_plan_.cliques) : 0.0;
  const bool degraded =
      has_plan_ && locality_estimate <
                       last_plan_.locality_x - options_.locality_degradation;
  // The failure set changed since the plan was made (nodes/circuits failed
  // or healed): the current clique structure routes around it suboptimally
  // — or wastes slots on a dead node — so re-plan even if traffic is
  // steady.
  const bool failure_changed =
      failures_ != nullptr && failures_->version() != planned_failure_version_;
  if (!first && !drifted && !degraded && !failure_changed) return false;

  // After a detected shift the smoothed history describes a dead pattern;
  // restart the estimate from the freshest observation.
  if (drifted || degraded) estimator_.reset_to_latest();

  // Mask failed nodes out of the demand before clustering: a dead node
  // carries no traffic, so letting its stale rows/columns steer the
  // clusterer would keep granting it clique slots.
  const DemandModel* demand = &estimator_.estimate();
  std::unique_ptr<SparseDemand> masked;
  if (failures_ != nullptr && failures_->failed_node_count() > 0) {
    // Rebuild the estimate without the failed nodes' rows/columns. The
    // dense predecessor zeroed them in a full copy; dropping the entries
    // is the same thing (exact zeros are no-ops in every optimizer fold).
    SparseDemand::Builder builder(demand->node_count());
    demand->for_each_nonzero([&](NodeId i, NodeId j, double d) {
      if (!failures_->is_node_failed(i) && !failures_->is_node_failed(j))
        builder.set(i, j, d);
    });
    masked = builder.build(false);
    demand = masked.get();
  }

  SornPlan plan = optimizer_.plan(*demand);
  estimator_.set_reference_grouping(plan.cliques);
  last_plan_ = plan;
  has_plan_ = true;
  if (failures_ != nullptr) planned_failure_version_ = failures_->version();
  ++replans_;
  if (tracer_ != nullptr) {
    tracer_->replan(now,
                    drifted      ? "threshold"
                    : degraded   ? "locality_degradation"
                    : first      ? "first_observation"
                                 : "failure",
                    macro_change, locality_estimate, plan.locality_x,
                    plan.cliques.clique_count(), plan.q.value(), replans_);
  }
  reconfig_.request_swap(std::move(plan), now);
  return true;
}

}  // namespace sorn
