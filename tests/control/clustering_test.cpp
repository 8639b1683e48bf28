#include "control/clustering.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <ostream>
#include <string>
#include <vector>

#include "traffic/patterns.h"
#include "traffic/sparse_demand.h"
#include "util/rng.h"

namespace sorn {
namespace {

// The clusterer as it was before it cached anything: every seed weight,
// greedy gain and clique affinity is re-summed from the affinity matrix on
// each use. CliqueClusterer::cluster must return the same assignment
// bit for bit. Also counts the refinement passes that swapped a pair.
struct ReferenceResult {
  CliqueAssignment cliques;
  int swap_passes = 0;
};

ReferenceResult reference_cluster(const DemandModel& tm, CliqueId nc,
                                  int refine_passes) {
  const NodeId n = tm.node_count();
  const NodeId size = n / nc;
  std::vector<double> aff(static_cast<std::size_t>(n) *
                              static_cast<std::size_t>(n),
                          0.0);
  tm.for_each_nonzero([&aff, n](NodeId i, NodeId j, double d) {
    aff[static_cast<std::size_t>(i) * static_cast<std::size_t>(n) +
        static_cast<std::size_t>(j)] += d;
    aff[static_cast<std::size_t>(j) * static_cast<std::size_t>(n) +
        static_cast<std::size_t>(i)] += d;
  });
  auto aff_at = [&](NodeId i, NodeId j) {
    return aff[static_cast<std::size_t>(i) * static_cast<std::size_t>(n) +
               static_cast<std::size_t>(j)];
  };

  std::vector<CliqueId> assign(static_cast<std::size_t>(n), -1);
  std::vector<bool> taken(static_cast<std::size_t>(n), false);
  for (CliqueId c = 0; c < nc; ++c) {
    NodeId seed = kNoNode;
    double best_weight = -1.0;
    for (NodeId i = 0; i < n; ++i) {
      if (taken[static_cast<std::size_t>(i)]) continue;
      double w = 0.0;
      for (NodeId j = 0; j < n; ++j) w += aff_at(i, j);
      if (w > best_weight) {
        best_weight = w;
        seed = i;
      }
    }
    std::vector<NodeId> members{seed};
    taken[static_cast<std::size_t>(seed)] = true;
    assign[static_cast<std::size_t>(seed)] = c;
    while (static_cast<NodeId>(members.size()) < size) {
      NodeId best = kNoNode;
      double best_gain = -1.0;
      for (NodeId i = 0; i < n; ++i) {
        if (taken[static_cast<std::size_t>(i)]) continue;
        double gain = 0.0;
        for (const NodeId m : members) gain += aff_at(i, m);
        if (gain > best_gain) {
          best_gain = gain;
          best = i;
        }
      }
      members.push_back(best);
      taken[static_cast<std::size_t>(best)] = true;
      assign[static_cast<std::size_t>(best)] = c;
    }
  }

  std::vector<std::vector<NodeId>> members(static_cast<std::size_t>(nc));
  for (NodeId i = 0; i < n; ++i)
    members[static_cast<std::size_t>(assign[static_cast<std::size_t>(i)])]
        .push_back(i);
  auto clique_affinity = [&](NodeId i, CliqueId c) {
    double w = 0.0;
    for (const NodeId m : members[static_cast<std::size_t>(c)])
      if (m != i) w += aff_at(i, m);
    return w;
  };
  int swap_passes = 0;
  for (int pass = 0; pass < refine_passes; ++pass) {
    bool improved = false;
    for (NodeId i = 0; i < n; ++i) {
      for (NodeId j = i + 1; j < n; ++j) {
        const CliqueId ci = assign[static_cast<std::size_t>(i)];
        const CliqueId cj = assign[static_cast<std::size_t>(j)];
        if (ci == cj) continue;
        const double before = clique_affinity(i, ci) + clique_affinity(j, cj);
        const double after = clique_affinity(i, cj) + clique_affinity(j, ci) -
                             2.0 * aff_at(i, j);
        if (after > before + 1e-12) {
          auto& mi = members[static_cast<std::size_t>(ci)];
          auto& mj = members[static_cast<std::size_t>(cj)];
          *std::find(mi.begin(), mi.end(), i) = j;
          *std::find(mj.begin(), mj.end(), j) = i;
          std::swap(assign[static_cast<std::size_t>(i)],
                    assign[static_cast<std::size_t>(j)]);
          improved = true;
        }
      }
    }
    if (!improved) break;
    ++swap_passes;
  }
  return {CliqueAssignment(std::move(assign)), swap_passes};
}

// A noisy estimate as the control loop sees one: locality 0.6 over a
// shuffled grouping into cliques of `hidden_size`, every nonzero scaled by
// a seeded factor in [0.5, 1.5]. Optionally normalized to unit peak node
// load, and optionally with nodes 1 and n/2 + 1 dropped from rows and
// columns, as ControlPlane::on_epoch masks failed nodes.
std::unique_ptr<SparseDemand> noisy_estimate(NodeId n, NodeId hidden_size,
                                             std::uint64_t seed,
                                             bool normalize, bool mask) {
  Rng rng(seed);
  std::vector<CliqueId> hidden(static_cast<std::size_t>(n));
  for (NodeId i = 0; i < n; ++i)
    hidden[static_cast<std::size_t>(i)] = i / hidden_size;
  rng.shuffle(hidden);
  const TrafficMatrix base =
      patterns::locality_mix(CliqueAssignment(hidden), 0.6);
  const NodeId dropped_a = 1;
  const NodeId dropped_b = n / 2 + 1;
  SparseDemand::Builder builder(n);
  base.for_each_nonzero([&](NodeId i, NodeId j, double d) {
    const double noisy = d * (1.0 + 0.5 * (2.0 * rng.next_double() - 1.0));
    if (mask && (i == dropped_a || i == dropped_b || j == dropped_a ||
                 j == dropped_b))
      return;
    builder.set(i, j, noisy);
  });
  return builder.build(normalize);
}

// One estimate per (n, normalized, masked); every nc in the candidate grid
// that divides n.
struct ReferenceCase {
  NodeId n;
  bool normalize;
  bool mask;
};

std::string case_name(const ReferenceCase& rc) {
  return "N" + std::to_string(rc.n) + (rc.normalize ? "_normalized" : "_raw") +
         (rc.mask ? "_masked" : "");
}

void PrintTo(const ReferenceCase& rc, std::ostream* os) { *os << case_name(rc); }

class ClusteringReferenceTest : public testing::TestWithParam<ReferenceCase> {};

TEST_P(ClusteringReferenceTest, CachedSumsMatchReference) {
  const ReferenceCase& rc = GetParam();
  const auto tm = noisy_estimate(rc.n, std::max<NodeId>(6, rc.n / 16),
                                 static_cast<std::uint64_t>(rc.n) * 7 + 3,
                                 rc.normalize, rc.mask);
  const CliqueClusterer clusterer;
  const int refine_passes = CliqueClusterer::Options().refine_passes;
  for (const CliqueId nc : {2, 3, 4, 6, 8, 12, 16, 32, 64}) {
    if (rc.n % nc != 0) continue;
    SCOPED_TRACE("nc=" + std::to_string(nc));
    const ReferenceResult ref = reference_cluster(*tm, nc, refine_passes);
    EXPECT_TRUE(clusterer.cluster(*tm, nc) == ref.cliques);
    // At N = 384 these swap in two or more passes, so a clique affinity
    // cached before a swap would be read stale unless it is invalidated.
    if (rc.n == 384 && nc >= 32) {
      EXPECT_GE(ref.swap_passes, 2);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, ClusteringReferenceTest,
    testing::Values(ReferenceCase{24, true, false},
                    ReferenceCase{24, false, true},
                    ReferenceCase{96, true, false},
                    ReferenceCase{96, false, false},
                    ReferenceCase{96, true, true},
                    ReferenceCase{384, true, false},
                    ReferenceCase{384, false, false},
                    ReferenceCase{384, true, true},
                    ReferenceCase{384, false, true}),
    [](const testing::TestParamInfo<ReferenceCase>& info) {
      return case_name(info.param);
    });

// Build a locality-mix matrix over a "hidden" non-contiguous grouping and
// check the clusterer recovers it.
TEST(ClusteringTest, RecoversPlantedCliques) {
  // Hidden grouping: node i belongs to clique i % 4 (interleaved).
  std::vector<CliqueId> hidden(32);
  for (NodeId i = 0; i < 32; ++i) hidden[static_cast<std::size_t>(i)] = i % 4;
  const CliqueAssignment truth(hidden);
  const TrafficMatrix tm = patterns::locality_mix(truth, 0.8);

  const CliqueClusterer clusterer;
  const CliqueAssignment found = clusterer.cluster(tm, 4);
  // Recovered locality should match the planted 0.8 (clique labels may
  // permute; locality ratio is label-invariant).
  EXPECT_NEAR(tm.locality_ratio(found), 0.8, 1e-9);
}

TEST(ClusteringTest, ProducesBalancedCliques) {
  Rng rng(5);
  TrafficMatrix tm(24);
  for (NodeId i = 0; i < 24; ++i)
    for (NodeId j = 0; j < 24; ++j)
      if (i != j) tm.set(i, j, rng.next_double());
  const CliqueClusterer clusterer;
  const CliqueAssignment found = clusterer.cluster(tm, 6);
  EXPECT_EQ(found.clique_count(), 6);
  EXPECT_TRUE(found.equal_sized());
  EXPECT_EQ(found.clique_size(0), 4);
}

TEST(ClusteringTest, BeatsContiguousOnShuffledTraffic) {
  // Traffic is local under an interleaved grouping; the naive contiguous
  // grouping sees almost none of it.
  std::vector<CliqueId> hidden(32);
  for (NodeId i = 0; i < 32; ++i) hidden[static_cast<std::size_t>(i)] = i % 4;
  const CliqueAssignment truth(hidden);
  const TrafficMatrix tm = patterns::locality_mix(truth, 0.7);

  const double naive =
      tm.locality_ratio(CliqueAssignment::contiguous(32, 4));
  const CliqueClusterer clusterer;
  const double clustered =
      tm.locality_ratio(clusterer.cluster(tm, 4));
  EXPECT_GT(clustered, naive + 0.3);
}

TEST(ClusteringTest, UniformTrafficStillBalanced) {
  // No structure to find: result must still be a valid balanced
  // assignment (the paper: "even in the absence of traffic locality, the
  // network can still be optimized accordingly").
  const TrafficMatrix tm = patterns::uniform(16);
  const CliqueClusterer clusterer;
  const CliqueAssignment found = clusterer.cluster(tm, 4);
  EXPECT_TRUE(found.equal_sized());
}

TEST(ClusteringTest, ObjectiveIsLocalityRatio) {
  const auto cliques = CliqueAssignment::contiguous(8, 2);
  const TrafficMatrix tm = patterns::locality_mix(cliques, 0.6);
  EXPECT_NEAR(CliqueClusterer::objective(tm, cliques), 0.6, 1e-9);
}

TEST(ClusteringTest, SingleCliqueIsTrivial) {
  const TrafficMatrix tm = patterns::uniform(8);
  const CliqueClusterer clusterer;
  const CliqueAssignment found = clusterer.cluster(tm, 1);
  EXPECT_EQ(found.clique_count(), 1);
  EXPECT_DOUBLE_EQ(tm.locality_ratio(found), 1.0);
}

TEST(ClusteringTest, RejectsIndivisibleCounts) {
  const TrafficMatrix tm = patterns::uniform(10);
  const CliqueClusterer clusterer;
  EXPECT_DEATH(clusterer.cluster(tm, 4), "equal cliques");
}

}  // namespace
}  // namespace sorn
