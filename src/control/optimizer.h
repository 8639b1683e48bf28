// Choosing the SORN macro-configuration from a demand estimate.
//
// For each candidate clique count Nc the optimizer clusters the estimate
// (from one symmetric affinity built per plan), reads off the locality x
// (every candidate's from one pass over the estimate),
// sets q = q*(x) = 2/(1-x) (rationalized so the schedule period stays
// bounded), and predicts throughput and intrinsic latency from the closed
// forms. The plan with the best score wins; the score trades predicted
// throughput against mean intrinsic latency the way the paper's Table 1
// discussion does.
#pragma once

#include <vector>

#include "control/clustering.h"
#include "topo/schedule_builder.h"
#include "traffic/demand_model.h"

namespace sorn {

struct SornPlan {
  CliqueAssignment cliques;
  Rational q;
  // Non-empty: clique-level demand aggregate to encode into the inter
  // slots via ScheduleBuilder::sorn_weighted. Empty: uniform inter
  // round-robin.
  std::vector<double> inter_weights;
  double locality_x = 0.0;
  double predicted_throughput = 0.0;
  double predicted_delta_m_intra = 0.0;
  double predicted_delta_m_inter = 0.0;
  // Locality-weighted mean of the intra/inter intrinsic latencies.
  double predicted_mean_delta_m = 0.0;
};

// q* = 2/(1-x) (analysis::sorn_optimal_q) as the rational a schedule
// realizes: the nearest one with a denominator of at most
// max_q_denominator, and at least 1. The optimizer's plans, the sorn
// design and the tools that print q all take q* from here.
Rational optimal_q(double locality_x, std::int64_t max_q_denominator);

class SornOptimizer {
 public:
  struct Options {
    // Candidate clique counts (must divide the node count; invalid
    // candidates are skipped).
    std::vector<CliqueId> candidate_nc = {4, 8, 16, 32, 64};
    // Cap on the rationalized q's denominator (bounds schedule period).
    std::int64_t max_q_denominator = 12;
    // Score = predicted_throughput - latency_weight * mean_delta_m / N.
    double latency_weight = 0.5;
    // Encode the measured clique-level aggregate into the inter slots
    // (weighted schedules) instead of assuming uniform aggregate demand.
    bool weighted_inter = false;
  };

  SornOptimizer() : SornOptimizer(Options()) {}
  explicit SornOptimizer(Options options);

  // Best plan for the given demand estimate.
  SornPlan plan(const DemandModel& estimate) const;

  // Plan for one fixed Nc (used by ablations and by callers that pin the
  // clique structure).
  SornPlan plan_for_nc(const DemandModel& estimate, CliqueId nc) const;

 private:
  // The plan for a clustered assignment whose locality ratio is x.
  SornPlan plan_from(const DemandModel& estimate, CliqueAssignment cliques,
                     double x) const;

  Options options_;
  CliqueClusterer clusterer_;
};

}  // namespace sorn
