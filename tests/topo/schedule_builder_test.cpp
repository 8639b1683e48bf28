#include "topo/schedule_builder.h"

#include <gtest/gtest.h>

#include <numeric>
#include <set>

#include "topo/logical_topology.h"

namespace sorn {
namespace {

TEST(RationalTest, ApproximatesSimpleFractions) {
  const Rational half = Rational::approximate(0.5, 10);
  EXPECT_EQ(half.num, 1);
  EXPECT_EQ(half.den, 2);
  const Rational three = Rational::approximate(3.0, 10);
  EXPECT_EQ(three.num, 3);
  EXPECT_EQ(three.den, 1);
}

TEST(RationalTest, ApproximatesPaperOptimalQ) {
  // q* = 2/(1-0.56) = 50/11 = 4.5454...
  const Rational q = Rational::approximate(2.0 / 0.44, 11);
  EXPECT_EQ(q.num, 50);
  EXPECT_EQ(q.den, 11);
}

TEST(RationalTest, RespectsDenominatorCap) {
  const Rational q = Rational::approximate(2.0 / 0.44, 4);
  EXPECT_LE(q.den, 4);
  EXPECT_NEAR(q.value(), 4.5454, 0.3);
}

// The h-dimensional ORN is the mixed-radix schedule with h equal radices.
TEST(OrnHdTest, TwoDimensionalScheduleShape) {
  const CircuitSchedule s = ScheduleBuilder::orn_mixed(16, {4, 4});
  EXPECT_EQ(s.period(), 2 * 3);
  for (Slot t = 0; t < s.period(); ++t)
    EXPECT_TRUE(s.matching_at(t).is_perfect());
  // Dimension-0 slots change the low digit only.
  EXPECT_EQ(s.dst_of(0, 0), 1);
  EXPECT_EQ(s.dst_of(3, 0), 0);  // wraps within the digit
  // Dimension-1 slots change the high digit only.
  EXPECT_EQ(s.dst_of(0, 3), 4);
}

TEST(OrnHdTest, RejectsNonPowerNodeCounts) {
  EXPECT_DEATH(ScheduleBuilder::orn_mixed(15, {4, 4}), "multiply to n");
}

TEST(OrnHdTest, OneDimensionEqualsRoundRobin) {
  const CircuitSchedule a = ScheduleBuilder::orn_mixed(8, {8});
  const CircuitSchedule b = ScheduleBuilder::round_robin(8);
  ASSERT_EQ(a.period(), b.period());
  for (Slot t = 0; t < a.period(); ++t)
    for (NodeId i = 0; i < 8; ++i) EXPECT_EQ(a.dst_of(i, t), b.dst_of(i, t));
}

TEST(SornBuilderTest, SingleCliqueIsFlatRoundRobin) {
  const auto cliques = CliqueAssignment::contiguous(6, 1);
  const CircuitSchedule s = ScheduleBuilder::sorn(cliques, Rational{1, 1});
  EXPECT_EQ(s.period(), 5);
  EXPECT_DOUBLE_EQ(s.kind_fraction(SlotKind::kIntra), 1.0);
}

TEST(SornBuilderTest, SingletonCliquesAreFlatInterRoundRobin) {
  const auto cliques = CliqueAssignment::flat(6);
  const CircuitSchedule s = ScheduleBuilder::sorn(cliques, Rational{1, 1});
  EXPECT_EQ(s.period(), 5);
  EXPECT_DOUBLE_EQ(s.kind_fraction(SlotKind::kInter), 1.0);
  // Full connectivity: every pair appears.
  const LogicalTopology topo(s);
  for (NodeId i = 0; i < 6; ++i) EXPECT_EQ(topo.degree(i), 5);
}

TEST(SornBuilderTest, RejectsPeriodBlowup) {
  const auto cliques = CliqueAssignment::contiguous(64, 8);
  EXPECT_DEATH(ScheduleBuilder::sorn(cliques, Rational{6007, 1301}, 1 << 10),
               "period too large");
}

TEST(SornBuilderTest, RationalQRealizedExactly) {
  const auto cliques = CliqueAssignment::contiguous(16, 4);
  const CircuitSchedule s = ScheduleBuilder::sorn(cliques, Rational{50, 11});
  const double intra = s.kind_fraction(SlotKind::kIntra);
  const double inter = s.kind_fraction(SlotKind::kInter);
  EXPECT_NEAR(intra / inter, 50.0 / 11.0, 1e-9);
}

// ---- Parameterized property sweep over (N, Nc, q) ----

struct SornCase {
  NodeId n;
  CliqueId nc;
  Rational q;
};

class SornScheduleProperties : public ::testing::TestWithParam<SornCase> {};

TEST_P(SornScheduleProperties, EverySlotIsPerfectMatching) {
  const auto& c = GetParam();
  const auto cliques = CliqueAssignment::contiguous(c.n, c.nc);
  const CircuitSchedule s = ScheduleBuilder::sorn(cliques, c.q);
  for (Slot t = 0; t < s.period(); ++t)
    EXPECT_TRUE(s.matching_at(t).is_perfect()) << "slot " << t;
}

TEST_P(SornScheduleProperties, SlotSharesMatchQ) {
  const auto& c = GetParam();
  const auto cliques = CliqueAssignment::contiguous(c.n, c.nc);
  const CircuitSchedule s = ScheduleBuilder::sorn(cliques, c.q);
  const double intra = s.kind_fraction(SlotKind::kIntra);
  const double inter = s.kind_fraction(SlotKind::kInter);
  EXPECT_NEAR(intra / inter, c.q.value(), 1e-9);
}

TEST_P(SornScheduleProperties, KindsMatchCliqueStructure) {
  const auto& c = GetParam();
  const auto cliques = CliqueAssignment::contiguous(c.n, c.nc);
  const CircuitSchedule s = ScheduleBuilder::sorn(cliques, c.q);
  std::vector<CliqueId> map(static_cast<std::size_t>(c.n));
  for (NodeId i = 0; i < c.n; ++i)
    map[static_cast<std::size_t>(i)] = cliques.clique_of(i);
  EXPECT_TRUE(s.kinds_consistent(map));
}

TEST_P(SornScheduleProperties, FullNeighborSupersetWithinPeriod) {
  // Paper Sec. 5: the abstraction maintains a fixed superset of neighbors.
  // Our schedules connect every ordered pair at least once per period.
  const auto& c = GetParam();
  const auto cliques = CliqueAssignment::contiguous(c.n, c.nc);
  const CircuitSchedule s = ScheduleBuilder::sorn(cliques, c.q);
  const LogicalTopology topo(s);
  for (NodeId i = 0; i < c.n; ++i)
    EXPECT_EQ(topo.degree(i), c.n - 1) << "node " << i;
}

TEST_P(SornScheduleProperties, IntraBandwidthUniformWithinClique) {
  const auto& c = GetParam();
  const auto cliques = CliqueAssignment::contiguous(c.n, c.nc);
  const CircuitSchedule s = ScheduleBuilder::sorn(cliques, c.q);
  const LogicalTopology topo(s);
  // All intra-clique virtual edges of node 0 carry equal bandwidth
  // (uniform density inside cliques, paper Sec. 4).
  const NodeId size = c.n / c.nc;
  const double expected =
      s.kind_fraction(SlotKind::kIntra) / static_cast<double>(size - 1);
  for (NodeId j = 1; j < size; ++j)
    EXPECT_NEAR(topo.edge_fraction(0, j), expected, 1e-9) << "edge 0->" << j;
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, SornScheduleProperties,
    ::testing::Values(SornCase{8, 2, {3, 1}},      // Fig. 2d
                      SornCase{8, 4, {1, 1}},      // Fig. 2e-like
                      SornCase{16, 4, {2, 1}},
                      SornCase{16, 2, {5, 1}},
                      SornCase{32, 4, {50, 11}},   // paper's q*
                      SornCase{24, 3, {7, 2}},
                      SornCase{64, 8, {9, 2}},
                      SornCase{128, 8, {50, 11}}),  // Fig. 2f scale
    [](const ::testing::TestParamInfo<SornCase>& info) {
      return "N" + std::to_string(info.param.n) + "_Nc" +
             std::to_string(info.param.nc) + "_q" +
             std::to_string(info.param.q.num) + "over" +
             std::to_string(info.param.q.den);
    });

}  // namespace
}  // namespace sorn
