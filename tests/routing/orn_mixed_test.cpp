// Mixed-radix optimal ORN ([35]: all N, not just perfect powers), and its
// equal-radix case, the h-dimensional optimal ORN of [4] (design orn-hd).
#include "routing/orn_mixed_routing.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "scenario/design.h"
#include "scenario/scenario_config.h"
#include "sim/network.h"
#include "sim/saturation.h"
#include "topo/schedule_builder.h"
#include "traffic/patterns.h"

namespace sorn {
namespace {

// The h-dimensional ORN router over n = r^h nodes: h radices of r (the
// constructor asserts that they multiply to n).
OrnMixedRouter hd_router(NodeId n, int h) {
  const auto r = static_cast<NodeId>(std::llround(std::pow(n, 1.0 / h)));
  return OrnMixedRouter(n, std::vector<NodeId>(static_cast<std::size_t>(h), r));
}

// Count differing digits between consecutive path nodes: every hop of an
// h-D ORN path changes exactly one digit.
int digits_changed(const OrnMixedRouter& router, NodeId a, NodeId b) {
  int changed = 0;
  for (int d = 0; d < router.dims(); ++d)
    if (router.digit(a, d) != router.digit(b, d)) ++changed;
  return changed;
}

TEST(OrnMixedScheduleTest, PeriodIsSumOfRadixCycles) {
  // 24 = 4 * 3 * 2: period (4-1) + (3-1) + (2-1) = 6.
  const CircuitSchedule s = ScheduleBuilder::orn_mixed(24, {4, 3, 2});
  EXPECT_EQ(s.period(), 6);
  for (Slot t = 0; t < s.period(); ++t)
    EXPECT_TRUE(s.matching_at(t).is_perfect());
}

// The orn-hd design is orn-mixed with h equal radices: the same schedule,
// and the same path for the same routing draw.
TEST(OrnMixedScheduleTest, EqualRadicesMatchOrnHd) {
  for (const int h : {2, 3}) {
    ScenarioConfig hd;
    hd.nodes = 64;
    hd.orn_dims = h;
    ScenarioConfig mixed = hd;
    mixed.radices.assign(static_cast<std::size_t>(h), h == 2 ? 8 : 4);
    BuiltDesign a;
    BuiltDesign b;
    std::string error;
    ASSERT_TRUE(DesignRegistry::instance().build("orn-hd", hd, &a, &error))
        << error;
    ASSERT_TRUE(
        DesignRegistry::instance().build("orn-mixed", mixed, &b, &error))
        << error;
    ASSERT_EQ(a.schedule->period(), b.schedule->period());
    for (Slot t = 0; t < a.schedule->period(); ++t)
      for (NodeId i = 0; i < 64; ++i)
        EXPECT_EQ(a.schedule->dst_of(i, t), b.schedule->dst_of(i, t));
    EXPECT_EQ(a.router->max_hops(), 2 * h);
    EXPECT_DOUBLE_EQ(a.predicted_throughput, b.predicted_throughput);
    Rng rng_a(3);
    Rng rng_b(3);
    for (NodeId dst = 1; dst < 64; ++dst) {
      const Path pa = a.router->route(0, dst, 0, rng_a);
      const Path pb = b.router->route(0, dst, 0, rng_b);
      ASSERT_EQ(pa.size(), pb.size());
      for (int k = 0; k < pa.size(); ++k) EXPECT_EQ(pa.at(k), pb.at(k));
    }
  }
}

TEST(OrnMixedScheduleTest, RejectsBadRadices) {
  EXPECT_DEATH(ScheduleBuilder::orn_mixed(24, {4, 3}), "multiply to n");
  EXPECT_DEATH(ScheduleBuilder::orn_mixed(24, {24, 1}), "at least 2");
}

TEST(OrnMixedRouterTest, DigitHelpers) {
  const OrnMixedRouter router(24, {4, 3, 2});
  // node 17 = 1 + 4*(1 + 3*1) -> digits (1, 1, 1)... check: 1 + 4 + 12 = 17.
  EXPECT_EQ(router.digit(17, 0), 1);
  EXPECT_EQ(router.digit(17, 1), 1);
  EXPECT_EQ(router.digit(17, 2), 1);
  EXPECT_EQ(router.with_digit(17, 0, 3), 19);
  EXPECT_EQ(router.with_digit(17, 2, 0), 5);
}

TEST(OrnMixedRouterTest, EveryHopChangesOneDigitAndExistsInSchedule) {
  const CircuitSchedule s = ScheduleBuilder::orn_mixed(24, {4, 3, 2});
  const OrnMixedRouter router(24, {4, 3, 2});
  Rng rng(5);
  for (int trial = 0; trial < 300; ++trial) {
    const auto src = static_cast<NodeId>(rng.next_below(24));
    auto dst = static_cast<NodeId>(rng.next_below(24));
    if (dst == src) dst = (dst + 1) % 24;
    const Path p = router.route(src, dst, 0, rng);
    EXPECT_EQ(p.src(), src);
    EXPECT_EQ(p.dst(), dst);
    EXPECT_LE(p.hop_count(), 6);
    for (int k = 0; k + 1 < p.size(); ++k) {
      int changed = 0;
      for (int d = 0; d < 3; ++d)
        if (router.digit(p.at(k), d) != router.digit(p.at(k + 1), d))
          ++changed;
      EXPECT_EQ(changed, 1);
      EXPECT_GE(s.next_slot_connecting(p.at(k), p.at(k + 1), 0), 0);
    }
  }
}

TEST(OrnMixedRouterTest, ThroughputNearOneOverTwoH) {
  // 2 dimensions -> worst-case throughput 1/4, also for uneven radices.
  const CircuitSchedule s = ScheduleBuilder::orn_mixed(24, {6, 4});
  const OrnMixedRouter router(24, {6, 4});
  NetworkConfig cfg;
  cfg.propagation_per_hop = 0;
  SlottedNetwork net(&s, &router, cfg);
  const TrafficMatrix tm = patterns::uniform(24);
  SaturationSource source(&tm, SaturationConfig{});
  const double r = source.measure(net, 4000, 8000);
  EXPECT_NEAR(r, 0.25, 0.05);
}

TEST(OrnHdRoutingTest, DigitHelpers) {
  const OrnMixedRouter router = hd_router(64, 2);  // r = 8
  EXPECT_EQ(router.radix(0), 8);
  EXPECT_EQ(router.radix(1), 8);
  EXPECT_EQ(router.digit(013, 0), 3);
  EXPECT_EQ(router.digit(013, 1), 1);
  EXPECT_EQ(router.with_digit(013, 0, 7), 017);
  EXPECT_EQ(router.with_digit(013, 1, 0), 3);
}

TEST(OrnHdRoutingTest, EveryHopChangesOneDigit) {
  const OrnMixedRouter router = hd_router(64, 2);
  Rng rng(1);
  for (int trial = 0; trial < 300; ++trial) {
    const auto src = static_cast<NodeId>(rng.next_below(64));
    auto dst = static_cast<NodeId>(rng.next_below(64));
    if (dst == src) dst = (dst + 1) % 64;
    const Path p = router.route(src, dst, 0, rng);
    EXPECT_EQ(p.src(), src);
    EXPECT_EQ(p.dst(), dst);
    EXPECT_LE(p.hop_count(), router.max_hops());
    for (int k = 0; k + 1 < p.size(); ++k)
      EXPECT_EQ(digits_changed(router, p.at(k), p.at(k + 1)), 1);
  }
}

class OrnHdSweep : public ::testing::TestWithParam<std::pair<NodeId, int>> {};

TEST_P(OrnHdSweep, PathsValidAcrossDimensions) {
  const auto [n, h] = GetParam();
  const OrnMixedRouter router = hd_router(n, h);
  Rng rng(7);
  for (int trial = 0; trial < 200; ++trial) {
    const auto src = static_cast<NodeId>(rng.next_below(
        static_cast<std::uint64_t>(n)));
    auto dst = static_cast<NodeId>(rng.next_below(
        static_cast<std::uint64_t>(n)));
    if (dst == src) dst = (dst + 1) % n;
    const Path p = router.route(src, dst, 0, rng);
    EXPECT_EQ(p.dst(), dst);
    EXPECT_LE(p.hop_count(), 2 * h);
    for (int k = 0; k + 1 < p.size(); ++k)
      EXPECT_EQ(digits_changed(router, p.at(k), p.at(k + 1)), 1);
  }
}

INSTANTIATE_TEST_SUITE_P(Dims, OrnHdSweep,
                         ::testing::Values(std::pair<NodeId, int>{16, 1},
                                           std::pair<NodeId, int>{16, 2},
                                           std::pair<NodeId, int>{64, 2},
                                           std::pair<NodeId, int>{64, 3},
                                           std::pair<NodeId, int>{256, 2}));

TEST(OrnHdRoutingTest, MaxHopsAttainable) {
  // For some src/dst pair with all digits differing and an intermediate
  // with all digits differing from both, the path reaches 2h hops.
  const OrnMixedRouter router = hd_router(16, 2);
  Rng rng(11);
  int longest = 0;
  for (int trial = 0; trial < 500; ++trial) {
    const Path p = router.route(0, 15, 0, rng);  // digits (0,0) -> (3,3)
    longest = std::max(longest, p.hop_count());
  }
  EXPECT_EQ(longest, 4);
}

}  // namespace
}  // namespace sorn
