#include "control/clustering.h"

#include <algorithm>
#include <limits>
#include <vector>

#include "traffic/sparse_demand.h"
#include "util/assert.h"

namespace sorn {
namespace {

// out[x] += row[x] for x in [from, to). Each pair of sums is loaded before
// either is stored, so the compiler adds them as one vector; every sum is
// the same single IEEE addition.
void add_row(double* out, const double* row, std::size_t from,
             std::size_t to) {
  std::size_t x = from;
  for (; x + 2 <= to; x += 2) {
    const double a = out[x] + row[x];
    const double b = out[x + 1] + row[x + 1];
    out[x] = a;
    out[x + 1] = b;
  }
  if (x < to) out[x] += row[x];
}

}  // namespace

// Built from the nonzeros: a(i, j) = 0.0 + d(i, j) + d(j, i), added in
// visit order. IEEE addition is commutative and adding to a 0.0 cell is
// exact, so each cell is bit-identical to at(i, j) + at(j, i). A CSR
// demand is read from its arrays instead: each row is written into its
// row of a_, then each mirror pair of cells is set to the sum of the two,
// the same d(i, j) + d(j, i) (a stored 0.0 changes no bit of either).
CliqueClusterer::Affinity::Affinity(const DemandModel& tm)
    : n_(tm.node_count()),
      a_(static_cast<std::size_t>(n_) * static_cast<std::size_t>(n_), 0.0),
      row_weight_(static_cast<std::size_t>(n_), 0.0) {
  const auto n = static_cast<std::size_t>(n_);
  if (const auto* csr = dynamic_cast<const SparseDemand*>(&tm)) {
    csr->for_each_stored(
        [this, n](NodeId i, NodeId j, double d) {
          a_[static_cast<std::size_t>(i) * n + static_cast<std::size_t>(j)] = d;
        });
    for (std::size_t i = 0; i < n; ++i) {
      for (std::size_t j = i + 1; j < n; ++j) {
        const double both = a_[i * n + j] + a_[j * n + i];
        a_[i * n + j] = both;
        a_[j * n + i] = both;
      }
    }
  } else {
    tm.for_each_nonzero([this, n](NodeId i, NodeId j, double d) {
      a_[static_cast<std::size_t>(i) * n + static_cast<std::size_t>(j)] += d;
      a_[static_cast<std::size_t>(j) * n + static_cast<std::size_t>(i)] += d;
    });
  }
  // Each row folded over j ascending; four rows at a time, so four
  // independent sums are in flight.
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const double* r0 = a_.data() + i * n;
    const double* r1 = r0 + n;
    const double* r2 = r1 + n;
    const double* r3 = r2 + n;
    double w0 = 0.0, w1 = 0.0, w2 = 0.0, w3 = 0.0;
    for (std::size_t j = 0; j < n; ++j) {
      w0 += r0[j];
      w1 += r1[j];
      w2 += r2[j];
      w3 += r3[j];
    }
    row_weight_[i] = w0;
    row_weight_[i + 1] = w1;
    row_weight_[i + 2] = w2;
    row_weight_[i + 3] = w3;
  }
  for (; i < n; ++i) {
    const double* r = a_.data() + i * n;
    double w = 0.0;
    for (std::size_t j = 0; j < n; ++j) w += r[j];
    row_weight_[i] = w;
  }
}

CliqueClusterer::CliqueClusterer(Options options) : options_(options) {}

double CliqueClusterer::objective(const DemandModel& tm,
                                  const CliqueAssignment& cliques) {
  return tm.locality_ratio(cliques);
}

CliqueAssignment CliqueClusterer::cluster(const Affinity& affinity,
                                          CliqueId nc) const {
  const NodeId n = affinity.node_count();
  SORN_ASSERT(nc >= 1 && n % nc == 0,
              "node count must divide into nc equal cliques");
  const NodeId size = n / nc;
  const auto un = static_cast<std::size_t>(n);
  const auto unc = static_cast<std::size_t>(nc);

  std::vector<CliqueId> assign(un, -1);  // -1: not taken yet

  // Greedy growth: seed each clique with the heaviest unassigned node,
  // then repeatedly add the unassigned node with the highest affinity to
  // the clique's current members. A node's row weight never changes, so
  // the affinity sums it once; its gain toward the growing clique is
  // extended by one term as each member joins, which is the same sum over
  // members in join order that re-summing it from scratch would compute.
  // A member's row is its column (the affinity is exactly symmetric). A
  // taken node's gain is -infinity, which every extension keeps and no
  // comparison picks, so neither loop tests whether a node is taken.
  constexpr double kTaken = -std::numeric_limits<double>::infinity();
  std::vector<double> gain(un, 0.0);
  auto join = [&](NodeId node, CliqueId c) {
    assign[static_cast<std::size_t>(node)] = c;
    gain[static_cast<std::size_t>(node)] = kTaken;
    add_row(gain.data(), affinity.row(node), 0, un);
  };
  for (CliqueId c = 0; c < nc; ++c) {
    NodeId seed = kNoNode;
    double best_weight = -1.0;
    for (NodeId i = 0; i < n; ++i) {
      if (assign[static_cast<std::size_t>(i)] >= 0) continue;
      if (affinity.row_weight(i) > best_weight) {
        best_weight = affinity.row_weight(i);
        seed = i;
      }
    }
    for (std::size_t i = 0; i < un; ++i)
      gain[i] = assign[i] >= 0 ? kTaken : 0.0;
    join(seed, c);
    for (NodeId joined = 1; joined < size; ++joined) {
      NodeId best = kNoNode;
      double best_gain = -1.0;
      for (NodeId i = 0; i < n; ++i) {
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
  std::vector<std::vector<NodeId>> members(unc);
  for (NodeId i = 0; i < n; ++i)
    members[static_cast<std::size_t>(assign[static_cast<std::size_t>(i)])]
        .push_back(i);
  // sum[c * n + x] is clique_affinity(x, c): x's affinity summed over
  // clique c's members other than x, in list order. Re-summing clique c
  // for a range of nodes walks its list once, adding each member's row
  // (its column) to every node of the range, so each node's terms are
  // added in list order: the same bits as summing node by node. Every
  // clique is summed for all nodes at the start of a pass; a swap re-sums
  // its two cliques for nodes i onward, the only ones the rest of the pass
  // reads, so every value read is the fresh sum.
  std::vector<double> sum(unc * un);
  auto resum = [&](CliqueId c, std::size_t from) {
    double* out = sum.data() + static_cast<std::size_t>(c) * un;
    std::fill(out + from, out + un, 0.0);
    for (const NodeId m : members[static_cast<std::size_t>(c)]) {
      const double* row = affinity.row(m);
      const auto skip = static_cast<std::size_t>(m);
      add_row(out, row, from, std::max(from, skip));
      add_row(out, row, std::max(from, skip + 1), un);
    }
  };
  // Node i's affinity toward every clique, copied once per i: only a swap
  // of i itself rewrites a list while i's pairs are scanned.
  std::vector<double> toward(unc);
  for (int pass = 0; pass < options_.refine_passes; ++pass) {
    for (CliqueId c = 0; c < nc; ++c) resum(c, 0);
    bool improved = false;
    for (NodeId i = 0; i < n; ++i) {
      const auto ui = static_cast<std::size_t>(i);
      CliqueId ci = assign[ui];
      for (std::size_t c = 0; c < unc; ++c) toward[c] = sum[c * un + ui];
      const double* row_i = affinity.row(i);
      const double* toward_ci = sum.data() + static_cast<std::size_t>(ci) * un;
      for (std::size_t j = ui + 1; j < un; ++j) {
        // A pair in one clique needs no test: there after = before - 2a(i, j)
        // can never exceed before + 1e-12.
        const auto cj = static_cast<std::size_t>(assign[j]);
        const double before =
            toward[static_cast<std::size_t>(ci)] + sum[cj * un + j];
        const double after = toward[cj] + toward_ci[j] - 2.0 * row_i[j];
        if (after > before + 1e-12) {
          const auto old_ci = static_cast<CliqueId>(ci);
          const auto new_ci = static_cast<CliqueId>(cj);
          auto& mi = members[static_cast<std::size_t>(old_ci)];
          auto& mj = members[cj];
          *std::find(mi.begin(), mi.end(), i) = static_cast<NodeId>(j);
          *std::find(mj.begin(), mj.end(), static_cast<NodeId>(j)) = i;
          std::swap(assign[ui], assign[j]);
          resum(old_ci, ui);
          resum(new_ci, ui);
          toward[static_cast<std::size_t>(old_ci)] =
              sum[static_cast<std::size_t>(old_ci) * un + ui];
          toward[cj] = sum[cj * un + ui];
          ci = new_ci;
          toward_ci = sum.data() + cj * un;
          improved = true;
        }
      }
    }
    if (!improved) break;
  }

  return CliqueAssignment(std::move(assign));
}

}  // namespace sorn
