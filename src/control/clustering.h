// Balanced clique clustering from a measured traffic matrix.
//
// Finds an assignment of N nodes into Nc equal cliques that maximizes the
// intra-clique share of demand (the locality ratio x), which directly
// maximizes SORN's achievable throughput r = 1/(3-x). Greedy seeded growth
// followed by pairwise swap refinement; exact balance is required because
// the inter-clique matchings need equal-sized cliques.
#pragma once

#include <vector>

#include "topo/clique.h"
#include "traffic/demand_model.h"

namespace sorn {

class CliqueClusterer {
 public:
  struct Options {
    // Passes of pairwise swap refinement after greedy growth.
    int refine_passes = 3;
  };

  // What the clusterer reads of a demand: the symmetric affinity
  // a(i, j) = d(i, j) + d(j, i) as a dense N x N array, and each node's
  // row weight (its affinity summed over j ascending). Built once per
  // demand, it serves every clique count clustered from that demand.
  // a(i, j) and a(j, i) receive the same two addends in the same order, so
  // the array is exactly symmetric: row i is also column i.
  class Affinity {
   public:
    explicit Affinity(const DemandModel& tm);

    NodeId node_count() const { return n_; }
    // Row i: a(i, j) for j = 0 .. N - 1.
    const double* row(NodeId i) const {
      return a_.data() +
             static_cast<std::size_t>(i) * static_cast<std::size_t>(n_);
    }
    double row_weight(NodeId i) const {
      return row_weight_[static_cast<std::size_t>(i)];
    }

   private:
    NodeId n_;
    std::vector<double> a_;
    std::vector<double> row_weight_;
  };

  CliqueClusterer() : CliqueClusterer(Options()) {}
  explicit CliqueClusterer(Options options);

  // affinity.node_count() must be divisible by nc.
  CliqueAssignment cluster(const Affinity& affinity, CliqueId nc) const;
  // One clique count: builds the demand's affinity and clusters from it.
  CliqueAssignment cluster(const DemandModel& tm, CliqueId nc) const {
    return cluster(Affinity(tm), nc);
  }

  // Intra-clique demand share of an assignment (the objective).
  static double objective(const DemandModel& tm,
                          const CliqueAssignment& cliques);

 private:
  Options options_;
};

}  // namespace sorn
