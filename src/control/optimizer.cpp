#include "control/optimizer.h"

#include <algorithm>

#include "analysis/models.h"
#include "util/assert.h"

namespace sorn {

Rational optimal_q(double locality_x, std::int64_t max_q_denominator) {
  return Rational::approximate(
      std::max(1.0, analysis::sorn_optimal_q(locality_x)), max_q_denominator);
}

SornOptimizer::SornOptimizer(Options options) : options_(std::move(options)) {}

SornPlan SornOptimizer::plan_for_nc(const DemandModel& estimate,
                                    CliqueId nc) const {
  return plan_for_nc(estimate, CliqueClusterer::Affinity(estimate), nc);
}

SornPlan SornOptimizer::plan_for_nc(const DemandModel& estimate,
                                    const CliqueClusterer::Affinity& affinity,
                                    CliqueId nc) const {
  const NodeId n = estimate.node_count();
  SORN_ASSERT(nc >= 1 && n % nc == 0, "invalid clique count for this N");
  SornPlan p;
  p.cliques = clusterer_.cluster(affinity, nc);
  p.locality_x = estimate.locality_ratio(p.cliques);
  if (options_.weighted_inter && nc >= 2 && n / nc >= 2)
    p.inter_weights = estimate.aggregate(p.cliques);
  p.q = optimal_q(p.locality_x, options_.max_q_denominator);
  p.predicted_throughput =
      analysis::sorn_throughput_at_q(p.locality_x, p.q.value());
  if (nc >= 2 && n / nc >= 2) {
    p.predicted_delta_m_intra =
        analysis::sorn_delta_m_intra(n, nc, p.q.value());
    p.predicted_delta_m_inter =
        analysis::sorn_delta_m_inter_table(n, nc, p.q.value());
  } else if (nc == 1) {
    p.predicted_delta_m_intra = static_cast<double>(n - 1);
    p.predicted_delta_m_inter = 0.0;
  } else {  // singleton cliques: flat inter round robin
    p.predicted_delta_m_intra = 0.0;
    p.predicted_delta_m_inter = static_cast<double>(n - 1);
  }
  p.predicted_mean_delta_m =
      p.locality_x * p.predicted_delta_m_intra +
      (1.0 - p.locality_x) * p.predicted_delta_m_inter;
  return p;
}

SornPlan SornOptimizer::plan(const DemandModel& estimate) const {
  const NodeId n = estimate.node_count();
  const CliqueClusterer::Affinity affinity(estimate);
  SornPlan best;
  double best_score = -1e300;
  bool found = false;
  for (const CliqueId nc : options_.candidate_nc) {
    if (nc < 1 || nc > n || n % nc != 0) continue;
    SornPlan p = plan_for_nc(estimate, affinity, nc);
    const double score =
        p.predicted_throughput -
        options_.latency_weight * p.predicted_mean_delta_m /
            static_cast<double>(n);
    if (!found || score > best_score) {
      best = std::move(p);
      best_score = score;
      found = true;
    }
  }
  SORN_ASSERT(found, "no valid clique count among the candidates");
  return best;
}

}  // namespace sorn
