#include "control/reconfig.h"

#include "util/assert.h"

namespace sorn {

SornFabric build_sorn_fabric(CliqueAssignment cliques, Rational q,
                             const std::vector<double>& inter_weights,
                             LbMode lb_mode,
                             const ScheduleBuilder::WeightedOptions& weighted) {
  SornFabric fabric;
  fabric.cliques = std::make_unique<CliqueAssignment>(std::move(cliques));
  fabric.schedule = std::make_unique<CircuitSchedule>(
      ScheduleBuilder::sorn_weighted(*fabric.cliques, q, inter_weights,
                                     weighted));
  fabric.router = std::make_unique<SornRouter>(
      fabric.schedule.get(), fabric.cliques.get(), lb_mode);
  return fabric;
}

ReconfigManager::ReconfigManager(Options options) : options_(options) {}

void ReconfigManager::set_failure_view(const FailureView* view) {
  failures_ = view;
  if (current_.router != nullptr) current_.router->set_failure_view(view);
  if (previous_.router != nullptr) previous_.router->set_failure_view(view);
  if (pending_ != nullptr && pending_->router != nullptr)
    pending_->router->set_failure_view(view);
}

std::uint64_t ReconfigManager::standby_memory_bytes() const {
  return previous_.memory_bytes() +
         (pending_ != nullptr ? pending_->memory_bytes() : 0);
}

void ReconfigManager::request_swap(SornPlan plan, Slot now) {
  pending_ = std::make_unique<SornFabric>(build_sorn_fabric(
      std::move(plan.cliques), plan.q, plan.inter_weights, options_.lb_mode));
  pending_->router->set_failure_view(failures_);
  swap_due_ = now + options_.update_delay_slots + extra_delay_;
  if (tracer_ != nullptr) {
    tracer_->reconfig_staged(now, swap_due_,
                             pending_->cliques->clique_count(),
                             plan.q.value(), !plan.inter_weights.empty());
  }
}

bool ReconfigManager::tick(SlottedNetwork& network, Slot now) {
  if (pending_ == nullptr || now < swap_due_) return false;
  previous_ = std::move(current_);
  current_ = std::move(*pending_);
  pending_.reset();
  if (options_.track_nic_rollout) {
    const UpdateCoordinator coordinator;
    if (nics_.empty()) {
      nics_ = coordinator.bootstrap(*current_.schedule);
      last_rollout_ = UpdateCoordinator::Report{};
      last_rollout_->nodes = nics_.size();
    } else {
      last_rollout_ = coordinator.roll_out(nics_, *current_.schedule);
    }
  }
  network.reconfigure(current_.schedule.get(), current_.router.get());
  ++swaps_applied_;
  if (tracer_ != nullptr) tracer_->reconfig_applied(now, swaps_applied_);
  return true;
}

}  // namespace sorn
