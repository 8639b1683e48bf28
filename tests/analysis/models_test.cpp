// Verifies the closed-form models reproduce the paper's Table 1 and the
// Fig. 2(f) theory curve. Expected values are transcribed from the paper;
// see EXPERIMENTS.md for the two rounding-level deviations.
#include "analysis/models.h"

#include <gtest/gtest.h>

namespace sorn {
namespace analysis {
namespace {

TEST(ModelsTest, OptimalQAtPaperLocality) {
  EXPECT_NEAR(sorn_optimal_q(0.56), 2.0 / 0.44, 1e-12);
  EXPECT_NEAR(sorn_optimal_q(0.0), 2.0, 1e-12);
  // x = 1 diverges and is clamped, as is everything past x = 0.96875.
  EXPECT_DOUBLE_EQ(sorn_optimal_q(1.0), kMaxSornQ);
  EXPECT_DOUBLE_EQ(sorn_optimal_q(0.99), kMaxSornQ);
  EXPECT_NEAR(sorn_optimal_q(0.96), 50.0, 1e-9);
}

TEST(ModelsTest, ThroughputFormulaEndpoints) {
  // Fig. 2(f): r ranges from 1/3 (no locality) to 1/2 (full locality).
  EXPECT_NEAR(sorn_throughput(0.0), 1.0 / 3.0, 1e-12);
  EXPECT_NEAR(sorn_throughput(1.0), 1.0 / 2.0, 1e-12);
  EXPECT_NEAR(sorn_throughput(0.56), 0.4098, 5e-5);
}

TEST(ModelsTest, ThroughputAtQIsMaximizedAtQStar) {
  for (double x : {0.0, 0.2, 0.56, 0.8}) {
    const double q_star = sorn_optimal_q(x);
    const double best = sorn_throughput_at_q(x, q_star);
    EXPECT_NEAR(best, sorn_throughput(x), 1e-12) << "x=" << x;
    for (double q : {1.0, 2.0, 3.0, 8.0, 20.0}) {
      EXPECT_LE(sorn_throughput_at_q(x, q), best + 1e-12)
          << "x=" << x << " q=" << q;
    }
  }
}

TEST(ModelsTest, ThroughputAtFullLocalityIgnoresInterBound) {
  EXPECT_NEAR(sorn_throughput_at_q(1.0, 4.0), 4.0 / 10.0, 1e-12);
}

TEST(ModelsTest, MeanHopsIsInverseThroughput) {
  for (double x : {0.0, 0.3, 0.56, 1.0})
    EXPECT_NEAR(sorn_mean_hops(x) * sorn_throughput(x), 1.0, 1e-12);
}

// ---- Table 1 deltas ----

TEST(ModelsTest, Table1DeltaM) {
  const double q = sorn_optimal_q(0.56);
  EXPECT_DOUBLE_EQ(orn1d_delta_m(4096), 4095.0);
  EXPECT_DOUBLE_EQ(orn_hd_delta_m(4096, 2), 252.0);
  EXPECT_DOUBLE_EQ(sorn_delta_m_intra(4096, 64, q), 77.0);
  EXPECT_DOUBLE_EQ(sorn_delta_m_inter_table(4096, 64, q), 364.0);
  EXPECT_DOUBLE_EQ(sorn_delta_m_intra(4096, 32, q), 155.0);
  EXPECT_DOUBLE_EQ(sorn_delta_m_inter_table(4096, 32, q), 296.0);
}

TEST(ModelsTest, TextFormulaDiffersFromTable) {
  // The body text's inter-clique formula gives different values than the
  // table; we keep both (see DESIGN.md Sec. 4).
  const double q = sorn_optimal_q(0.56);
  const double text = sorn_delta_m_inter_text(4096, 64, q);
  EXPECT_NEAR(text, 426.2, 0.5);
  EXPECT_GT(text, sorn_delta_m_inter_table(4096, 64, q));
}

TEST(ModelsTest, Table1Latencies) {
  const DeploymentParams p;
  // Sirius: 4095/16 * 100 ns + 2 * 500 ns = 26.59 us.
  EXPECT_NEAR(min_latency_us(4095, 16, 100, 2, 500), 26.59, 0.005);
  // 2D ORN: 252/16 * 100 ns + 4 * 500 ns = 3.575 us (paper prints 3.57).
  EXPECT_NEAR(min_latency_us(252, 16, 100, 4, 500), 3.575, 0.001);
  // SORN Nc=64 intra: 77/16 * 100 + 2 * 500 = 1.481 us.
  EXPECT_NEAR(min_latency_us(77, 16, 100, 2, 500), 1.481, 0.001);
  // SORN Nc=64 inter: 364/16 * 100 + 3 * 500 = 3.775 us (paper: 3.77).
  EXPECT_NEAR(min_latency_us(364, 16, 100, 3, 500), 3.775, 0.001);
  // SORN Nc=32 intra: 155/16 * 100 + 2 * 500 = 1.969 us (paper: 1.97).
  EXPECT_NEAR(min_latency_us(155, 16, 100, 2, 500), 1.969, 0.001);
  // SORN Nc=32 inter: 296/16 * 100 + 3 * 500 = 3.35 us.
  EXPECT_NEAR(min_latency_us(296, 16, 100, 3, 500), 3.35, 0.001);
  (void)p;
}

TEST(ModelsTest, Table1RowsComplete) {
  const auto rows = table1(DeploymentParams{});
  ASSERT_EQ(rows.size(), 8u);

  // Row 0: Sirius.
  EXPECT_EQ(rows[0].max_hops, 2);
  EXPECT_DOUBLE_EQ(rows[0].delta_m, 4095.0);
  EXPECT_NEAR(rows[0].min_latency_us, 26.59, 0.01);
  EXPECT_DOUBLE_EQ(rows[0].throughput, 0.5);
  EXPECT_DOUBLE_EQ(rows[0].bw_cost, 2.0);

  // Rows 1-2: Opera short / bulk.
  EXPECT_EQ(rows[1].max_hops, 4);
  EXPECT_NEAR(rows[1].min_latency_us, 2.0, 1e-9);
  EXPECT_DOUBLE_EQ(rows[1].throughput, 0.3125);
  EXPECT_NEAR(rows[1].bw_cost, 3.2, 1e-12);
  EXPECT_EQ(rows[2].max_hops, 2);
  EXPECT_NEAR(rows[2].min_latency_us, 23034.4, 1.0);

  // Row 3: 2D ORN.
  EXPECT_EQ(rows[3].max_hops, 4);
  EXPECT_DOUBLE_EQ(rows[3].delta_m, 252.0);
  EXPECT_DOUBLE_EQ(rows[3].throughput, 0.25);
  EXPECT_DOUBLE_EQ(rows[3].bw_cost, 4.0);

  // Rows 4-5: SORN Nc=64.
  EXPECT_EQ(rows[4].traffic_class, "intra-clique");
  EXPECT_DOUBLE_EQ(rows[4].delta_m, 77.0);
  EXPECT_NEAR(rows[4].min_latency_us, 1.48, 0.005);
  EXPECT_NEAR(rows[4].throughput, 0.4098, 5e-5);
  EXPECT_NEAR(rows[4].bw_cost, 2.44, 0.005);
  EXPECT_DOUBLE_EQ(rows[5].delta_m, 364.0);
  EXPECT_NEAR(rows[5].min_latency_us, 3.775, 0.005);

  // Rows 6-7: SORN Nc=32.
  EXPECT_DOUBLE_EQ(rows[6].delta_m, 155.0);
  EXPECT_NEAR(rows[6].min_latency_us, 1.97, 0.005);
  EXPECT_DOUBLE_EQ(rows[7].delta_m, 296.0);
  EXPECT_NEAR(rows[7].min_latency_us, 3.35, 0.005);
}

// The headline scaling claim (Sec. 4): SORN cuts intrinsic latency by an
// order of magnitude versus a 1D ORN while keeping throughput close to it.
TEST(ModelsTest, OrderOfMagnitudeLatencyReduction) {
  const DeploymentParams p;
  const auto rows = table1(p);
  const double sirius_latency = rows[0].min_latency_us;
  const double sorn_inter_latency = rows[5].min_latency_us;
  EXPECT_GT(sirius_latency / sorn_inter_latency, 7.0);
  EXPECT_GT(rows[4].throughput / rows[3].throughput, 1.6);  // vs 2D ORN
}

class HdSweep : public ::testing::TestWithParam<int> {};

TEST_P(HdSweep, ThroughputLatencyTradeoff) {
  // More dimensions: exponentially lower delta_m, linearly lower
  // throughput — the ORN scaling barrier (Sec. 2).
  const int h = GetParam();
  EXPECT_NEAR(orn_hd_throughput(h), 1.0 / (2.0 * h), 1e-12);
  if (h > 1) {
    EXPECT_LT(orn_hd_delta_m(4096, h), orn_hd_delta_m(4096, h - 1));
  }
}

INSTANTIATE_TEST_SUITE_P(Dims, HdSweep, ::testing::Values(1, 2, 3, 4));

TEST(ModelsTest, Section2CycleTimeExample) {
  // "for 10,000 nodes, a round robin schedule with 50 ns time slots can
  // take 500 us to cycle through" (Sec. 2; one uplink).
  EXPECT_NEAR(min_latency_us(orn1d_delta_m(10000), 1, 50, 0, 0), 499.95,
              0.01);
}

}  // namespace
}  // namespace analysis
}  // namespace sorn
