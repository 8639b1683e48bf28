// Weighted plans end-to-end: optimizer emits inter_weights, the reconfig
// manager builds a weighted schedule, and gravity traffic benefits.
#include <gtest/gtest.h>

#include "analysis/models.h"
#include "control/reconfig.h"
#include "sim/saturation.h"
#include "traffic/patterns.h"

namespace sorn {
namespace {

TEST(WeightedPlanTest, OptimizerEmitsWeightsWhenEnabled) {
  const auto cliques = CliqueAssignment::contiguous(32, 4);
  const TrafficMatrix tm = patterns::gravity(cliques, {3.0, 1.0, 1.0, 1.0});
  SornOptimizer::Options opts;
  opts.weighted_inter = true;
  const SornOptimizer optimizer(opts);
  const SornPlan plan = optimizer.plan_for_nc(tm, 4);
  ASSERT_EQ(plan.inter_weights.size(), 16u);
  // Aggregate reflects the gravity skew: pairs touching clique 0 carry
  // more demand. Clique labels may permute, so just check the aggregate
  // is non-uniform.
  double lo = 1e300;
  double hi = 0.0;
  for (CliqueId a = 0; a < 4; ++a) {
    for (CliqueId b = 0; b < 4; ++b) {
      if (a == b) continue;
      const double w = plan.inter_weights[static_cast<std::size_t>(a) * 4 +
                                          static_cast<std::size_t>(b)];
      lo = std::min(lo, w);
      hi = std::max(hi, w);
    }
  }
  EXPECT_GT(hi, lo * 1.5);
}

TEST(WeightedPlanTest, OptimizerOmitsWeightsByDefault) {
  const auto cliques = CliqueAssignment::contiguous(32, 4);
  const TrafficMatrix tm = patterns::gravity(cliques, {3.0, 1.0, 1.0, 1.0});
  const SornOptimizer optimizer;
  EXPECT_TRUE(optimizer.plan_for_nc(tm, 4).inter_weights.empty());
}

TEST(WeightedPlanTest, ReconfigBuildsWeightedSchedule) {
  const auto cliques = CliqueAssignment::contiguous(32, 4);
  const TrafficMatrix tm = patterns::gravity(cliques, {4.0, 1.0, 1.0, 1.0});
  SornOptimizer::Options oopts;
  oopts.weighted_inter = true;
  const SornOptimizer optimizer(oopts);
  SornPlan plan = optimizer.plan_for_nc(tm, 4);

  // Bootstrap on the flat SORN (singleton cliques).
  const SornFabric flat = build_sorn_fabric(
      CliqueAssignment::contiguous(32, 32), optimal_q(0.5, 12));
  NetworkConfig ncfg;
  ncfg.propagation_per_hop = 0;
  SlottedNetwork net(flat.schedule.get(), flat.router.get(), ncfg);

  ReconfigManager mgr;
  mgr.request_swap(std::move(plan), net.now());
  EXPECT_TRUE(mgr.tick(net, net.now()));
  ASSERT_NE(mgr.schedule(), nullptr);
  // The swapped-in schedule has both slot kinds and remains routable.
  EXPECT_GT(mgr.schedule()->kind_fraction(SlotKind::kIntra), 0.0);
  EXPECT_GT(mgr.schedule()->kind_fraction(SlotKind::kInter), 0.0);
  net.inject_cell(0, 31);
  net.run(2000);
  EXPECT_EQ(net.metrics().delivered_cells(), 1u);
}

TEST(WeightedPlanTest, WeightedBeatsUniformOnSkewedPairTraffic) {
  // Clique-ring: balanced node loads, skewed pair structure — the regime
  // where inter-slot reweighting helps (a hot-*clique* gravity pattern
  // would bottleneck on node bandwidth instead).
  const auto cliques = CliqueAssignment::contiguous(32, 4);
  const TrafficMatrix tm = patterns::clique_ring(cliques, 0.4, 0.9);
  const double x = tm.locality_ratio(cliques);
  const Rational q = Rational::approximate(analysis::sorn_optimal_q(x), 6);

  const SornFabric uniform_net = build_sorn_fabric(cliques, q);
  ScheduleBuilder::WeightedOptions options;
  options.demand_alpha = 0.8;
  const SornFabric weighted_net = build_sorn_fabric(
      cliques, q, tm.aggregate(cliques), LbMode::kRandom, options);

  auto measure = [&](const SornFabric& net) {
    NetworkConfig ncfg;
    ncfg.propagation_per_hop = 0;
    SlottedNetwork sim(net.schedule.get(), net.router.get(), ncfg);
    SaturationSource source(&tm, SaturationConfig{});
    return source.measure(sim, 5000, 6000);
  };
  const double r_uniform = measure(uniform_net);
  const double r_weighted = measure(weighted_net);
  EXPECT_GT(r_weighted, r_uniform * 1.05)
      << "uniform=" << r_uniform << " weighted=" << r_weighted;
}

}  // namespace
}  // namespace sorn
