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
  const NodeId n = estimate.node_count();
  SORN_ASSERT(nc >= 1 && n % nc == 0, "invalid clique count for this N");
  CliqueAssignment cliques =
      clusterer_.cluster(CliqueClusterer::Affinity(estimate), nc);
  const double x = estimate.locality_ratio(cliques);
  return plan_from(estimate, std::move(cliques), x);
}

SornPlan SornOptimizer::plan_from(const DemandModel& estimate,
                                  CliqueAssignment cliques, double x) const {
  const NodeId n = estimate.node_count();
  const CliqueId nc = cliques.clique_count();
  SornPlan p;
  p.cliques = std::move(cliques);
  p.locality_x = x;
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
  // Cluster every candidate first (from one shared affinity), then read
  // their locality ratios from one pass over the estimate.
  const CliqueClusterer::Affinity affinity(estimate);
  std::vector<CliqueAssignment> candidates;
  for (const CliqueId nc : options_.candidate_nc) {
    if (nc < 1 || nc > n || n % nc != 0) continue;
    candidates.push_back(clusterer_.cluster(affinity, nc));
  }
  SORN_ASSERT(!candidates.empty(),
              "no valid clique count among the candidates");
  std::vector<const CliqueAssignment*> views;
  for (const CliqueAssignment& c : candidates) views.push_back(&c);
  const std::vector<double> ratios = estimate.locality_ratios(views);
  SornPlan best;
  double best_score = -1e300;
  for (std::size_t k = 0; k < candidates.size(); ++k) {
    SornPlan p = plan_from(estimate, std::move(candidates[k]), ratios[k]);
    const double score =
        p.predicted_throughput -
        options_.latency_weight * p.predicted_mean_delta_m /
            static_cast<double>(n);
    if (k == 0 || score > best_score) {
      best = std::move(p);
      best_score = score;
    }
  }
  return best;
}

}  // namespace sorn
