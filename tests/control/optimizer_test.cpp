#include "control/optimizer.h"

#include <gtest/gtest.h>

#include "analysis/models.h"
#include "traffic/patterns.h"

namespace sorn {
namespace {

TEST(OptimizerTest, PlanForNcDerivesOptimalQ) {
  const auto cliques = CliqueAssignment::contiguous(32, 4);
  const TrafficMatrix tm = patterns::locality_mix(cliques, 0.5);
  const SornOptimizer optimizer;
  const SornPlan plan = optimizer.plan_for_nc(tm, 4);
  EXPECT_NEAR(plan.locality_x, 0.5, 1e-6);
  EXPECT_NEAR(plan.q.value(), 4.0, 0.05);  // q* = 2/(1-0.5)
  EXPECT_NEAR(plan.predicted_throughput, 0.4, 0.005);
}

TEST(OptimizerTest, PredictionsMatchClosedForms) {
  const auto cliques = CliqueAssignment::contiguous(64, 8);
  const TrafficMatrix tm = patterns::locality_mix(cliques, 0.56);
  const SornOptimizer optimizer;
  const SornPlan plan = optimizer.plan_for_nc(tm, 8);
  const double q = plan.q.value();
  EXPECT_DOUBLE_EQ(plan.predicted_delta_m_intra,
                   analysis::sorn_delta_m_intra(64, 8, q));
  EXPECT_DOUBLE_EQ(plan.predicted_delta_m_inter,
                   analysis::sorn_delta_m_inter_table(64, 8, q));
  EXPECT_NEAR(plan.predicted_mean_delta_m,
              0.56 * plan.predicted_delta_m_intra +
                  0.44 * plan.predicted_delta_m_inter,
              1e-9);
}

TEST(OptimizerTest, PlanPicksCliqueStructureMatchingTraffic) {
  // Traffic local under 8 cliques of 4; the optimizer should find a plan
  // whose locality is much higher than a mismatched grouping would give.
  const auto truth = CliqueAssignment::contiguous(32, 8);
  const TrafficMatrix tm = patterns::locality_mix(truth, 0.75);
  SornOptimizer::Options opts;
  opts.candidate_nc = {2, 4, 8, 16};
  const SornOptimizer optimizer(opts);
  const SornPlan plan = optimizer.plan(tm);
  EXPECT_GT(plan.locality_x, 0.5);
  EXPECT_GT(plan.predicted_throughput, 1.0 / 3.0);
}

TEST(OptimizerTest, QRespectsDenominatorCap) {
  const auto cliques = CliqueAssignment::contiguous(32, 4);
  const TrafficMatrix tm = patterns::locality_mix(cliques, 0.56);
  SornOptimizer::Options opts;
  opts.max_q_denominator = 3;
  const SornOptimizer optimizer(opts);
  const SornPlan plan = optimizer.plan_for_nc(tm, 4);
  EXPECT_LE(plan.q.den, 3);
  EXPECT_GE(plan.q.value(), 1.0);
}

TEST(OptimizerTest, QIsCapped) {
  const auto cliques = CliqueAssignment::contiguous(16, 4);
  const TrafficMatrix tm = patterns::locality_mix(cliques, 1.0);  // q* -> inf
  const SornOptimizer optimizer;
  const SornPlan plan = optimizer.plan_for_nc(tm, 4);
  EXPECT_DOUBLE_EQ(plan.q.value(), analysis::kMaxSornQ);
}

TEST(OptimizerTest, SkipsInvalidCandidates) {
  const TrafficMatrix tm = patterns::uniform(30);  // not divisible by 4/8/16
  SornOptimizer::Options opts;
  opts.candidate_nc = {4, 5, 8, 16};  // only 5 divides 30
  const SornOptimizer optimizer(opts);
  const SornPlan plan = optimizer.plan(tm);
  EXPECT_EQ(plan.cliques.clique_count(), 5);
}

TEST(OptimizerTest, AbortsWhenNoCandidateFits) {
  const TrafficMatrix tm = patterns::uniform(7);
  SornOptimizer::Options opts;
  opts.candidate_nc = {2, 4};
  const SornOptimizer optimizer(opts);
  EXPECT_DEATH(optimizer.plan(tm), "no valid clique count");
}

}  // namespace
}  // namespace sorn
