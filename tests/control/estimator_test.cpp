#include "control/estimator.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "traffic/patterns.h"
#include "traffic/same_demand.h"
#include "traffic/sparse_demand.h"
#include "traffic/trace.h"

namespace sorn {
namespace {

TEST(EstimatorTest, FirstObservationIsAdoptedWholesale) {
  TrafficEstimator est(8);
  EXPECT_FALSE(est.has_estimate());
  const TrafficMatrix tm = patterns::uniform(8);
  est.observe(tm);
  EXPECT_TRUE(est.has_estimate());
  EXPECT_NEAR(est.estimate().at(0, 1), tm.at(0, 1), 1e-12);
}

TEST(EstimatorTest, EwmaConvergesToStationaryPattern) {
  TrafficEstimator est(16, 0.5);
  const auto cliques = CliqueAssignment::contiguous(16, 4);
  const TrafficMatrix target = patterns::locality_mix(cliques, 0.7);
  for (int i = 0; i < 20; ++i) est.observe(target);
  EXPECT_NEAR(est.locality(cliques), 0.7, 1e-6);
}

TEST(EstimatorTest, MacroChangeLowForStableTraffic) {
  SyntheticTrace::Config cfg;
  cfg.nodes = 64;
  cfg.group_size = 8;
  SyntheticTrace trace(cfg);
  TrafficEstimator est(64);
  est.set_reference_grouping(trace.ground_truth_cliques());
  est.observe(trace.epoch_matrix());
  EXPECT_FALSE(est.macro_change().has_value());
  double worst = 0.0;
  for (int i = 0; i < 5; ++i) {
    est.observe(trace.epoch_matrix());
    ASSERT_TRUE(est.macro_change().has_value());
    worst = std::max(worst, *est.macro_change());
  }
  EXPECT_LT(worst, 0.35);  // bursty micro noise, stable macro pattern
}

TEST(EstimatorTest, MacroChangeSpikesOnWorkloadShift) {
  SyntheticTrace::Config cfg;
  cfg.nodes = 64;
  cfg.group_size = 8;
  cfg.seed = 3;
  SyntheticTrace trace(cfg);
  TrafficEstimator est(64);
  est.set_reference_grouping(trace.ground_truth_cliques());
  est.observe(trace.epoch_matrix());
  est.observe(trace.epoch_matrix());
  const double stable = est.macro_change().value();
  // Shift the role layout: the clique-level aggregate jumps.
  trace.shuffle_roles();
  est.observe(trace.epoch_matrix());
  const double shifted = est.macro_change().value();
  EXPECT_GT(shifted, stable * 1.5);
}

TEST(EstimatorTest, ReferenceGroupingResetClearsHistory) {
  TrafficEstimator est(8);
  est.set_reference_grouping(CliqueAssignment::contiguous(8, 2));
  est.observe(patterns::uniform(8));
  est.observe(patterns::uniform(8));
  EXPECT_TRUE(est.macro_change().has_value());
  est.set_reference_grouping(CliqueAssignment::contiguous(8, 4));
  EXPECT_FALSE(est.macro_change().has_value());
}

// ---- The EWMA, pinned to the COO merge it replaced ----
//
// Before the estimator merged its two CSRs row by row, it copied both
// into COO triplets, merged those, and built the next estimate from the
// merged triplets. That merge is kept here, step for step, as the
// reference the CSR-to-CSR blend must match bit for bit.

struct Coo {
  std::vector<NodeId> rows;
  std::vector<NodeId> cols;
  std::vector<double> vals;
};

Coo to_coo(const DemandModel& model) {
  Coo coo;
  model.for_each_nonzero([&coo](NodeId i, NodeId j, double d) {
    coo.rows.push_back(i);
    coo.cols.push_back(j);
    coo.vals.push_back(d);
  });
  return coo;
}

Coo coo_merge(double keep, const DemandModel& smoothed, double add,
              const DemandModel& obs) {
  const Coo s = to_coo(smoothed);
  const Coo o = to_coo(obs);
  Coo merged;
  std::size_t a = 0;
  std::size_t b = 0;
  auto key = [](const Coo& coo, std::size_t k) {
    return (static_cast<std::uint64_t>(coo.rows[k]) << 32) |
           static_cast<std::uint32_t>(coo.cols[k]);
  };
  while (a < s.vals.size() || b < o.vals.size()) {
    NodeId row;
    NodeId col;
    double sv = 0.0;
    double ov = 0.0;
    if (b >= o.vals.size() ||
        (a < s.vals.size() && key(s, a) < key(o, b))) {
      row = s.rows[a];
      col = s.cols[a];
      sv = s.vals[a];
      ++a;
    } else if (a >= s.vals.size() || key(o, b) < key(s, a)) {
      row = o.rows[b];
      col = o.cols[b];
      ov = o.vals[b];
      ++b;
    } else {
      row = s.rows[a];
      col = s.cols[a];
      sv = s.vals[a];
      ov = o.vals[b];
      ++a;
      ++b;
    }
    merged.rows.push_back(row);
    merged.cols.push_back(col);
    merged.vals.push_back(keep * sv + add * ov);
  }
  return merged;
}

// Builder copy of a model's nonzeros: the copy the estimator made before
// from_model wrote CSR arrays directly.
std::unique_ptr<SparseDemand> builder_copy(const DemandModel& model,
                                           bool normalize) {
  SparseDemand::Builder builder(model.node_count());
  model.for_each_nonzero(
      [&builder](NodeId i, NodeId j, double d) { builder.set(i, j, d); });
  return builder.build(normalize);
}

// The estimator's state transitions as they were: Builder copies and the
// COO merge. `stored` counts the merged triplets, exact zeros included.
struct ReferenceEstimator {
  ReferenceEstimator(NodeId nodes, double alpha)
      : alpha(alpha),
        smoothed(std::make_unique<SparseDemand>(nodes)),
        latest(std::make_unique<SparseDemand>(nodes)) {}

  void observe(const DemandModel& epoch) {
    auto obs = builder_copy(epoch, /*normalize=*/true);
    const double keep = observations == 0 ? 0.0 : 1.0 - alpha;
    const double add = observations == 0 ? 1.0 : alpha;
    const Coo merged = coo_merge(keep, *smoothed, add, *obs);
    stored = merged.vals.size();
    SparseDemand::Builder builder(epoch.node_count());
    for (std::size_t k = 0; k < merged.vals.size(); ++k)
      builder.set(merged.rows[k], merged.cols[k], merged.vals[k]);
    smoothed = builder.build(false);
    latest = std::move(obs);
    ++observations;
  }

  void reset_to_latest() {
    smoothed = builder_copy(*latest, /*normalize=*/false);
    stored = smoothed->nonzero_count();
  }

  double alpha;
  std::unique_ptr<SparseDemand> smoothed;
  std::unique_ptr<SparseDemand> latest;
  std::size_t stored = 0;
  std::uint64_t observations = 0;
};

void expect_matches_reference(const TrafficEstimator& est,
                              const ReferenceEstimator& ref,
                              const std::string& what) {
  const auto& estimate = dynamic_cast<const SparseDemand&>(est.estimate());
  const auto& latest = dynamic_cast<const SparseDemand&>(est.latest());
  EXPECT_EQ(estimate.nonzero_count(), ref.stored) << what;
  expect_same_demand(static_cast<const DemandModel&>(estimate),
                     *ref.smoothed, what + " estimate");
  expect_same_demand(latest, *ref.latest, what + " latest");
}

// Epoch supports, in the order the scripted test walks them. kPlanted
// holds two entries: (0, 1) = 1.0, which makes the peak node load exactly
// 1 so normalizing keeps the other, a denormal at (n-1, n-2).
enum class Support {
  kDense,
  kSparseRows,
  kSameAsLast,
  kComplement,
  kEmpty,
  kPlanted,
};

// One epoch over `support`, relative to the previous epoch `last`. Rates
// are drawn in [0.01, 1.01); a kSparseRows epoch leaves most rows empty.
TrafficMatrix random_epoch(NodeId n, Support support, const TrafficMatrix& last,
                           Rng& rng) {
  TrafficMatrix tm(n);
  if (support == Support::kPlanted) {
    tm.set(0, 1, 1.0);
    tm.set(n - 1, n - 2, std::numeric_limits<double>::denorm_min());
    return tm;
  }
  for (NodeId i = 0; i < n; ++i) {
    const bool row_on = rng.next_double() < 0.4;
    for (NodeId j = 0; j < n; ++j) {
      if (i == j) continue;
      bool on = false;
      switch (support) {
        case Support::kDense:
          on = true;
          break;
        case Support::kSparseRows:
          on = row_on && rng.next_double() < 0.3;
          break;
        case Support::kSameAsLast:
          on = last.at(i, j) != 0.0;
          break;
        case Support::kComplement:
          on = last.at(i, j) == 0.0;
          break;
        case Support::kEmpty:
        case Support::kPlanted:
          break;
      }
      if (on) tm.set(i, j, 0.01 + rng.next_double());
    }
  }
  return tm;
}

TEST(EstimatorTest, EwmaMatchesTheCooMergeBitForBit) {
  constexpr NodeId kNodes = 12;
  // A first observation with a planted denormal that the next epoch does
  // not refresh (alpha 0.5 halves it to an exact 0.0, which the merge
  // stores and the one after skips; alpha 0.3 keeps it), then
  // overlapping, disjoint, dense, empty and mostly-empty-row epochs, and
  // two resets to the latest observation (after epochs 4 and 9).
  const Support script[] = {
      Support::kPlanted,    Support::kComplement, Support::kSparseRows,
      Support::kDense,      Support::kSameAsLast, Support::kEmpty,
      Support::kSparseRows, Support::kComplement, Support::kSparseRows,
      Support::kDense,      Support::kSparseRows, Support::kSameAsLast,
  };
  for (const double alpha : {0.3, 0.5}) {
    for (const std::uint64_t seed : {1u, 2u, 3u}) {
      TrafficEstimator est(kNodes, alpha);
      ReferenceEstimator ref(kNodes, alpha);
      const auto grouping = CliqueAssignment::contiguous(kNodes, 3);
      Rng rng(seed);
      TrafficMatrix last(kNodes);
      int epoch = 0;
      for (const Support support : script) {
        const std::string what = "alpha " + std::to_string(alpha) +
                                 " seed " + std::to_string(seed) +
                                 " epoch " + std::to_string(epoch);
        TrafficMatrix tm = random_epoch(kNodes, support, last, rng);
        est.observe(tm);
        ref.observe(tm);
        expect_matches_reference(est, ref, what);
        EXPECT_EQ(est.locality(grouping),
                  ref.smoothed->locality_ratio(grouping))
            << what;
        if (epoch == 1) {
          // The decayed denormal: stored, but not a nonzero.
          std::size_t visited = 0;
          est.estimate().for_each_nonzero(
              [&visited](NodeId, NodeId, double) { ++visited; });
          EXPECT_EQ(ref.stored - visited, alpha == 0.5 ? 1u : 0u) << what;
        }
        if (epoch == 4 || epoch == 9) {
          est.reset_to_latest();
          ref.reset_to_latest();
          expect_matches_reference(est, ref, what + " reset");
        }
        last = std::move(tm);
        ++epoch;
      }
    }
  }
}

// blend() adds two CSRs elementwise when their supports are equal with no
// stored 0.0 on either side, and merges any other pair row by row. Each
// input below picks one path; the result must equal the COO merge bit for
// bit, stored zeros counted.
TEST(EstimatorTest, BlendMatchesTheCooMergeOnEveryPath) {
  constexpr NodeId kNodes = 12;
  auto csr = [](const DemandModel& model) {
    return builder_copy(model, /*normalize=*/false);
  };
  auto check = [](double keep, const SparseDemand& a, double add,
                  const SparseDemand& b, const std::string& what) {
    const auto got = SparseDemand::blend(keep, a, add, b);
    const Coo merged = coo_merge(keep, a, add, b);
    SparseDemand::Builder builder(kNodes);
    for (std::size_t k = 0; k < merged.vals.size(); ++k)
      builder.set(merged.rows[k], merged.cols[k], merged.vals[k]);
    EXPECT_EQ(got->nonzero_count(), merged.vals.size()) << what;
    expect_same_demand(static_cast<const DemandModel&>(*got),
                       *builder.build(false), what);
  };
  Rng rng(41);
  const TrafficMatrix none(kNodes);
  const TrafficMatrix dense = random_epoch(kNodes, Support::kDense, none, rng);
  const TrafficMatrix dense_again =
      random_epoch(kNodes, Support::kSameAsLast, dense, rng);
  const TrafficMatrix sparse =
      random_epoch(kNodes, Support::kSparseRows, none, rng);
  const TrafficMatrix sparse_again =
      random_epoch(kNodes, Support::kSameAsLast, sparse, rng);
  // Equal supports, no stored 0.0: the elementwise path.
  check(0.7, *csr(dense), 0.3, *csr(dense_again), "equal dense supports");
  check(0.7, *csr(sparse), 0.3, *csr(sparse_again), "equal sparse supports");
  // A column present on one side only, either side: merged.
  TrafficMatrix one_more = sparse_again;
  TrafficMatrix one_less = sparse_again;
  for (NodeId j = 1; j < kNodes; ++j) {
    if (sparse.at(0, j) == 0.0) one_more.set(0, j, 0.25);
  }
  bool dropped = false;
  sparse.for_each_nonzero([&](NodeId i, NodeId j, double) {
    if (!dropped) one_less.set(i, j, 0.0);
    dropped = true;
  });
  check(0.7, *csr(sparse), 0.3, *csr(one_more), "a column only in b");
  check(0.7, *csr(one_more), 0.3, *csr(sparse), "a column only in a");
  check(0.7, *csr(sparse), 0.3, *csr(one_less), "a column missing from b");
  // Equal stored supports holding a 0.0 (half a denormal blended with
  // nothing): merged, which skips the 0.0 on both sides.
  const TrafficMatrix planted =
      random_epoch(kNodes, Support::kPlanted, none, rng);
  const SparseDemand empty(kNodes);
  const auto zero_a = SparseDemand::blend(0.5, *csr(planted), 0.5, empty);
  const auto zero_b = SparseDemand::blend(0.5, *csr(planted), 0.3, empty);
  ASSERT_EQ(zero_a->nonzero_count(), 2u);
  check(0.7, *zero_a, 0.3, *zero_b, "equal supports with a stored 0.0");
  check(0.7, *zero_a, 0.3, *csr(planted), "a stored 0.0 against a nonzero");

  // Through the estimator: after a reset its estimate has the latest
  // observation's support, so a same-support epoch is blended elementwise.
  TrafficEstimator est(kNodes, 0.3);
  ReferenceEstimator ref(kNodes, 0.3);
  for (const TrafficMatrix* epoch : {&sparse, &dense, &dense_again}) {
    est.observe(*epoch);
    ref.observe(*epoch);
    if (epoch == &dense) {
      est.reset_to_latest();
      ref.reset_to_latest();
    }
    expect_matches_reference(est, ref, "estimator sequence");
  }
}

TEST(EstimatorTest, RejectsAlphaOutOfRange) {
  EXPECT_DEATH(TrafficEstimator(4, 0.0), "EWMA");
  EXPECT_DEATH(TrafficEstimator(4, 1.5), "EWMA");
}

}  // namespace
}  // namespace sorn
