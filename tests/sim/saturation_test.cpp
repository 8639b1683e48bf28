#include "sim/saturation.h"

#include <gtest/gtest.h>

#include "analysis/models.h"
#include "routing/sorn_routing.h"
#include "routing/vlb.h"
#include "topo/schedule_builder.h"
#include "traffic/patterns.h"

namespace sorn {
namespace {

class DirectRouter : public Router {
 public:
  Path route(NodeId src, NodeId dst, Slot, Rng&) const override {
    return Path::of({src, dst});
  }
  int max_hops() const override { return 1; }
};

NetworkConfig sim_config() {
  NetworkConfig c;
  c.lanes = 1;
  c.propagation_per_hop = 0;
  return c;
}

TEST(SaturationTest, DirectRoutingOnUniformApproachesFullCapacity) {
  const CircuitSchedule s = ScheduleBuilder::round_robin(16);
  const DirectRouter router;
  SlottedNetwork net(&s, &router, sim_config());
  const TrafficMatrix tm = patterns::uniform(16);
  SaturationSource source(&tm, SaturationConfig{});
  const double r = source.measure(net, 2000, 4000);
  EXPECT_GT(r, 0.9);
  EXPECT_LE(r, 1.0 + 1e-9);
}

TEST(SaturationTest, VlbOnUniformApproachesOneHalf) {
  // The classic ORN result: 2-hop VLB has worst-case throughput 1/2
  // (paper Sec. 2).
  const CircuitSchedule s = ScheduleBuilder::round_robin(16);
  const VlbRouter router(&s, LbMode::kRandom);
  SlottedNetwork net(&s, &router, sim_config());
  const TrafficMatrix tm = patterns::uniform(16);
  SaturationSource source(&tm, SaturationConfig{});
  const double r = source.measure(net, 3000, 6000);
  EXPECT_NEAR(r, 0.5, 0.05);
}

TEST(SaturationTest, SornAtOptimalQMatchesTheory) {
  // x = 0.5 -> q* = 4, r = 1/(3 - 0.5) = 0.4.
  const auto cliques = CliqueAssignment::contiguous(32, 4);
  const CircuitSchedule s = ScheduleBuilder::sorn(cliques, Rational{4, 1});
  const SornRouter router(&s, &cliques, LbMode::kRandom);
  SlottedNetwork net(&s, &router, sim_config());
  const TrafficMatrix tm = patterns::locality_mix(cliques, 0.5);
  SaturationSource source(&tm, SaturationConfig{});
  const double r = source.measure(net, 4000, 8000);
  EXPECT_NEAR(r, analysis::sorn_throughput(0.5), 0.05);
}

TEST(SaturationTest, SornBeatsVlbUnderLocality) {
  // The headline claim: with locality, SORN exceeds the fully-oblivious
  // 50% VLB bound... at high x it approaches 1/2 while using a shorter
  // cycle; at x = 0.8 it should clearly beat the 2D ORN's 25% and sit
  // near 1/(3-0.8) = 0.4545.
  const auto cliques = CliqueAssignment::contiguous(32, 4);
  const double x = 0.8;
  const double q_star = analysis::sorn_optimal_q(x);  // 10
  const CircuitSchedule s = ScheduleBuilder::sorn(
      cliques, Rational::approximate(q_star, 12));
  const SornRouter router(&s, &cliques, LbMode::kRandom);
  SlottedNetwork net(&s, &router, sim_config());
  const TrafficMatrix tm = patterns::locality_mix(cliques, x);
  SaturationSource source(&tm, SaturationConfig{});
  const double r = source.measure(net, 4000, 8000);
  EXPECT_NEAR(r, analysis::sorn_throughput(x), 0.05);
  EXPECT_GT(r, 0.25);
}

// Each sending node offers 2 x lanes cells a slot, so r, delivered per
// node per lane per slot, holds at any lane count. Two cells a node at
// every lane count capped r at 2/lanes: 0.125 at 16 lanes.
TEST(SaturationTest, InjectionKeepsUpWithTheLanes) {
  const auto cliques = CliqueAssignment::contiguous(64, 8);
  const CircuitSchedule s = ScheduleBuilder::sorn(cliques, Rational{9, 2});
  const SornRouter router(&s, &cliques, LbMode::kRandom);
  const TrafficMatrix tm = patterns::locality_mix(cliques, 0.56);
  auto r_at = [&](int lanes) {
    NetworkConfig c = sim_config();
    c.lanes = lanes;
    SlottedNetwork net(&s, &router, c);
    SaturationSource source(&tm, SaturationConfig{});
    return source.measure(net, 2000, 4000);
  };
  EXPECT_NEAR(r_at(16), r_at(1), 0.05);
}

TEST(SaturationTest, PumpRespectsInFlightCap) {
  const CircuitSchedule s = ScheduleBuilder::round_robin(8);
  const VlbRouter router(&s, LbMode::kRandom);
  SlottedNetwork net(&s, &router, sim_config());
  const TrafficMatrix tm = patterns::uniform(8);
  SaturationConfig cfg;
  cfg.max_in_flight_per_node = 10;
  SaturationSource source(&tm, cfg);
  for (int i = 0; i < 500; ++i) {
    source.pump(net);
    net.step();
  }
  // Cap is per pump-call admission: at most cap + one pump's worth.
  EXPECT_LE(net.cells_in_flight(),
            (10 + 2) * 8u);
}

}  // namespace
}  // namespace sorn
