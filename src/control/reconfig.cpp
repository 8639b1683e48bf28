#include "control/reconfig.h"

#include "util/assert.h"

namespace sorn {

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
  auto gen = std::make_unique<Generation>();
  gen->cliques = std::make_unique<CliqueAssignment>(std::move(plan.cliques));
  gen->schedule = std::make_unique<CircuitSchedule>(
      plan.inter_weights.empty()
          ? ScheduleBuilder::sorn(*gen->cliques, plan.q, options_.max_period)
          : ScheduleBuilder::sorn_weighted(*gen->cliques, plan.q,
                                           plan.inter_weights,
                                           options_.weighted,
                                           options_.max_period));
  gen->router = std::make_unique<SornRouter>(gen->schedule.get(),
                                             gen->cliques.get(),
                                             options_.lb_mode);
  gen->router->set_failure_view(failures_);
  pending_ = std::move(gen);
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
    const UpdateCoordinator coordinator(options_.nic);
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
