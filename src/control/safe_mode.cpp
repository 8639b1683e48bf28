#include "control/safe_mode.h"

namespace sorn {

SafeModeGuard::SafeModeGuard(NodeId nodes, SafeModePolicy policy)
    : policy_(policy),
      fallback_schedule_(ScheduleBuilder::round_robin(nodes)),
      fallback_router_(&fallback_schedule_, LbMode::kFirstAvailable) {}

void SafeModeGuard::on_controller_state(SlottedNetwork& net,
                                        bool controller_up, Slot now) {
  if (active_) ++safe_slots_;
  if (!controller_up && !active_) {
    active_ = true;
    ++activations_;
    if (policy_ == SafeModePolicy::kVlb) {
      saved_schedule_ = net.schedule();
      saved_router_ = net.router();
      fallback_router_.set_failure_view(&net.failure_view());
      net.reconfigure(&fallback_schedule_, &fallback_router_);
    }
    if (tracer_ != nullptr) {
      tracer_->safe_mode_enter(now,
                               policy_ == SafeModePolicy::kVlb ? "vlb"
                                                               : "hold");
    }
  } else if (controller_up && active_) {
    active_ = false;
    if (policy_ == SafeModePolicy::kVlb) {
      net.reconfigure(saved_schedule_, saved_router_);
      saved_schedule_ = nullptr;
      saved_router_ = nullptr;
    }
    if (tracer_ != nullptr) tracer_->safe_mode_exit(now);
  }
}

}  // namespace sorn
