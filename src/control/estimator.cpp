#include "control/estimator.h"

#include <cmath>
#include <memory>
#include <utility>
#include <vector>

#include "util/assert.h"

namespace sorn {

TrafficEstimator::TrafficEstimator(NodeId nodes, double alpha)
    : nodes_(nodes),
      alpha_(alpha),
      smoothed_(std::make_unique<SparseDemand>(nodes)),
      latest_(std::make_unique<SparseDemand>(nodes)) {
  SORN_ASSERT(alpha > 0.0 && alpha <= 1.0, "EWMA weight must be in (0,1]");
}

void TrafficEstimator::observe(const DemandModel& epoch) {
  SORN_ASSERT(epoch.node_count() == nodes_, "observation size mismatch");
  // Normalize the observation so magnitudes are comparable across epochs,
  // in the arrays of the observation it replaces.
  auto obs =
      SparseDemand::from_model(epoch, /*normalize=*/true, std::move(latest_));
  const double keep = observations_ == 0 ? 0.0 : 1.0 - alpha_;
  const double add = observations_ == 0 ? 1.0 : alpha_;

  // The dense per-cell EWMA keep * s + add * o over the union of the two
  // supports, in the arrays of the estimate the blend before replaced.
  auto next = SparseDemand::blend(keep, *smoothed_, add, *obs,
                                  std::move(spare_));
  spare_ = std::move(smoothed_);
  smoothed_ = std::move(next);
  latest_ = std::move(obs);
  ++observations_;

  if (reference_.has_value()) {
    const std::vector<double> agg = latest_->aggregate(*reference_);
    if (!last_aggregate_.empty()) {
      double diff = 0.0;
      double total = 0.0;
      for (std::size_t k = 0; k < agg.size(); ++k) {
        diff += std::abs(agg[k] - last_aggregate_[k]);
        total += agg[k];
      }
      macro_change_ = total > 0.0 ? diff / total : 0.0;
    }
    last_aggregate_ = agg;
  }
}

void TrafficEstimator::reset_to_latest() {
  SORN_ASSERT(observations_ > 0, "nothing observed yet");
  smoothed_ = SparseDemand::from_model(*latest_, /*normalize=*/false,
                                       std::move(smoothed_));
}

double TrafficEstimator::locality(const CliqueAssignment& cliques) const {
  return smoothed_->locality_ratio(cliques);
}

void TrafficEstimator::set_reference_grouping(
    const CliqueAssignment& cliques) {
  SORN_ASSERT(cliques.node_count() == nodes_, "grouping size mismatch");
  reference_ = cliques;
  last_aggregate_.clear();
  macro_change_.reset();
}

}  // namespace sorn
