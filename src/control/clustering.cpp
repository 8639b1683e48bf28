#include "control/clustering.h"

#include <algorithm>
#include <cstdint>
#include <vector>

#include "util/assert.h"

namespace sorn {
namespace {

// Symmetric affinity: demand in both directions. Built from the nonzeros
// (IEEE addition is commutative and adding to a 0.0 cell is exact, so the
// result is bit-identical to at(i, j) + at(j, i) per cell).
std::vector<double> affinity_matrix(const DemandModel& tm) {
  const NodeId n = tm.node_count();
  std::vector<double> a(static_cast<std::size_t>(n) *
                            static_cast<std::size_t>(n),
                        0.0);
  tm.for_each_nonzero([&a, n](NodeId i, NodeId j, double d) {
    a[static_cast<std::size_t>(i) * static_cast<std::size_t>(n) +
      static_cast<std::size_t>(j)] += d;
    a[static_cast<std::size_t>(j) * static_cast<std::size_t>(n) +
      static_cast<std::size_t>(i)] += d;
  });
  return a;
}

}  // namespace

CliqueClusterer::CliqueClusterer(Options options) : options_(options) {}

double CliqueClusterer::objective(const DemandModel& tm,
                                  const CliqueAssignment& cliques) {
  return tm.locality_ratio(cliques);
}

CliqueAssignment CliqueClusterer::cluster(const DemandModel& tm,
                                          CliqueId nc) const {
  const NodeId n = tm.node_count();
  SORN_ASSERT(nc >= 1 && n % nc == 0,
              "node count must divide into nc equal cliques");
  const NodeId size = n / nc;
  const std::vector<double> aff = affinity_matrix(tm);
  auto aff_at = [&](NodeId i, NodeId j) {
    return aff[static_cast<std::size_t>(i) * static_cast<std::size_t>(n) +
               static_cast<std::size_t>(j)];
  };

  std::vector<CliqueId> assign(static_cast<std::size_t>(n), -1);
  std::vector<bool> taken(static_cast<std::size_t>(n), false);

  // Greedy growth: seed each clique with the heaviest unassigned node,
  // then repeatedly add the unassigned node with the highest affinity to
  // the clique's current members. A node's row weight never changes, so
  // it is summed once; its gain toward the growing clique is extended by
  // one term as each member joins, which is the same sum over members in
  // join order that re-summing it from scratch would compute.
  std::vector<double> row_weight(static_cast<std::size_t>(n), 0.0);
  for (NodeId i = 0; i < n; ++i) {
    double w = 0.0;
    for (NodeId j = 0; j < n; ++j) w += aff_at(i, j);
    row_weight[static_cast<std::size_t>(i)] = w;
  }
  std::vector<double> gain(static_cast<std::size_t>(n), 0.0);
  auto join = [&](NodeId node, CliqueId c) {
    taken[static_cast<std::size_t>(node)] = true;
    assign[static_cast<std::size_t>(node)] = c;
    for (NodeId i = 0; i < n; ++i)
      if (!taken[static_cast<std::size_t>(i)])
        gain[static_cast<std::size_t>(i)] += aff_at(i, node);
  };
  for (CliqueId c = 0; c < nc; ++c) {
    NodeId seed = kNoNode;
    double best_weight = -1.0;
    for (NodeId i = 0; i < n; ++i) {
      if (taken[static_cast<std::size_t>(i)]) continue;
      if (row_weight[static_cast<std::size_t>(i)] > best_weight) {
        best_weight = row_weight[static_cast<std::size_t>(i)];
        seed = i;
      }
    }
    std::fill(gain.begin(), gain.end(), 0.0);
    join(seed, c);
    for (NodeId joined = 1; joined < size; ++joined) {
      NodeId best = kNoNode;
      double best_gain = -1.0;
      for (NodeId i = 0; i < n; ++i) {
        if (taken[static_cast<std::size_t>(i)]) continue;
        if (gain[static_cast<std::size_t>(i)] > best_gain) {
          best_gain = gain[static_cast<std::size_t>(i)];
          best = i;
        }
      }
      join(best, c);
    }
  }

  // Pairwise swap refinement: exchange nodes across cliques while it
  // improves total intra-clique affinity. Gain of swapping i <-> j
  // (different cliques): both lose affinity to their old clique-mates and
  // gain the other's (excluding the pair itself, which stays inter).
  std::vector<std::vector<NodeId>> members(static_cast<std::size_t>(nc));
  for (NodeId i = 0; i < n; ++i)
    members[static_cast<std::size_t>(assign[static_cast<std::size_t>(i)])]
        .push_back(i);
  // clique_affinity(i, c) depends only on i and clique c's member list, so
  // it is cached per (i, c) and re-summed only after a swap has rewritten
  // that list (bumping the clique's version). A re-sum walks the list in
  // the same order as before, so every cached value is bit-identical to a
  // fresh one.
  const auto cells = static_cast<std::size_t>(n) * static_cast<std::size_t>(nc);
  std::vector<double> cached(cells, 0.0);
  std::vector<std::uint32_t> cached_version(cells, 0);
  std::vector<std::uint32_t> version(static_cast<std::size_t>(nc), 1);
  auto clique_affinity = [&](NodeId i, CliqueId c) {
    const std::size_t cell =
        static_cast<std::size_t>(i) * static_cast<std::size_t>(nc) +
        static_cast<std::size_t>(c);
    if (cached_version[cell] != version[static_cast<std::size_t>(c)]) {
      double w = 0.0;
      for (const NodeId m : members[static_cast<std::size_t>(c)])
        if (m != i) w += aff_at(i, m);
      cached[cell] = w;
      cached_version[cell] = version[static_cast<std::size_t>(c)];
    }
    return cached[cell];
  };
  for (int pass = 0; pass < options_.refine_passes; ++pass) {
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
          ++version[static_cast<std::size_t>(ci)];
          ++version[static_cast<std::size_t>(cj)];
          std::swap(assign[static_cast<std::size_t>(i)],
                    assign[static_cast<std::size_t>(j)]);
          improved = true;
        }
      }
    }
    if (!improved) break;
  }

  return CliqueAssignment(std::move(assign));
}

}  // namespace sorn
