#include "control/control_faults.h"

#include <algorithm>
#include <cmath>

#include "util/assert.h"

namespace sorn {

ControlFaultModel::ControlFaultModel(ControlFaultOptions options)
    : options_(std::move(options)),
      outage_rng_(options_.seed ^ 0x6374726c4f757467ULL),
      noise_rng_(options_.seed ^ 0x6374726c4e6f6973ULL) {
  SORN_ASSERT(options_.mtbf_slots >= 0.0, "controller MTBF must be >= 0");
  SORN_ASSERT(options_.mtbf_slots <= 0.0 || options_.mttr_slots > 0.0,
              "controller MTBF without MTTR: nothing would ever recover");
  SORN_ASSERT(options_.estimate_noise >= 0.0 && options_.estimate_noise <= 1.0,
              "estimate_noise must be in [0, 1]");
  SORN_ASSERT(options_.replan_apply_delay >= 0,
              "replan_apply_delay must be >= 0");
  for (const auto& window : options_.outages) {
    SORN_ASSERT(window.first >= 0 && window.second > window.first,
                "outage windows must be non-empty [start, end) slot ranges");
  }
}

bool ControlFaultModel::scripted_down(Slot now) const {
  for (const auto& window : options_.outages) {
    if (now >= window.first && now < window.second) return true;
  }
  return false;
}

bool ControlFaultModel::tick(Slot now) {
  // Stochastic state machine: exponential holding times in each state,
  // drawn when the state is entered (memoryless, so drawing lazily on the
  // first tick is equivalent).
  if (options_.mtbf_slots > 0.0) {
    if (next_transition_ == kNone) {
      next_transition_ =
          now + std::max<Slot>(1, static_cast<Slot>(std::ceil(
                                      outage_rng_.next_exponential(
                                          options_.mtbf_slots))));
    }
    while (next_transition_ != kNone && now >= next_transition_) {
      stochastic_up_ = !stochastic_up_;
      const double mean =
          stochastic_up_ ? options_.mtbf_slots : options_.mttr_slots;
      next_transition_ +=
          std::max<Slot>(1, static_cast<Slot>(
                                std::ceil(outage_rng_.next_exponential(mean))));
    }
  }

  const bool was_up = up_;
  up_ = stochastic_up_ && !scripted_down(now);
  if (!up_) ++outage_slots_;
  if (up_ == was_up) return false;
  if (!up_) {
    ++outages_started_;
    if (tracer_ != nullptr) tracer_->controller_down(now);
  } else {
    if (tracer_ != nullptr) tracer_->controller_up(now);
  }
  return true;
}

const DemandModel& ControlFaultModel::filter(const DemandModel& observed) {
  const bool stale = options_.estimate_stale_epochs > 0;
  const bool noisy = options_.estimate_noise > 0.0;
  if (!stale && !noisy) return observed;

  const DemandModel* source = &observed;
  if (stale) {
    history_.push_back(observed.clone());
    while (history_.size() >
           static_cast<std::size_t>(options_.estimate_stale_epochs) + 1) {
      history_.pop_front();
    }
    source = history_.front().get();
  }
  if (!noisy) return *source;

  // Seeded multiplicative noise as a sparse overlay of the source, copied
  // straight from its row-major visit. The historical dense loop skipped
  // rate <= 0 cells without drawing, so one draw per visited nonzero
  // consumes the noise RNG identically on every backend. The overlay is
  // written into the last one's arrays.
  const double noise = options_.estimate_noise;
  Rng& rng = noise_rng_;
  degraded_ = SparseDemand::from_model(
      *source, /*normalize=*/false,
      [noise, &rng](NodeId, NodeId, double rate) {
        return rate * (1.0 + noise * (2.0 * rng.next_double() - 1.0));
      },
      std::move(degraded_));
  return *degraded_;
}

std::size_t ControlFaultModel::history_bytes() const {
  std::size_t bytes = 0;
  for (const auto& entry : history_) bytes += entry->memory_bytes();
  return bytes;
}

}  // namespace sorn
