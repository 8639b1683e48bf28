// Clique assignment: the macro-scale grouping of nodes (paper Sec. 3).
//
// A CliqueAssignment maps every node to a clique id. Cliques are the unit at
// which SORN concentrates bandwidth and at which the control plane measures
// and predicts aggregate demand.
#pragma once

#include <cstdint>
#include <vector>

#include "util/types.h"

namespace sorn {

class CliqueAssignment;

// Result of padding an unequal-clique assignment up to equal sizes with
// ghost nodes (see CliqueAssignment::padded_to_equal).
struct PaddedAssignment {
  // Equal-clique assignment over real + ghost nodes. Real nodes keep ids
  // [0, original N); ghosts occupy [original N, padded N).
  std::vector<CliqueId> clique_of;
  NodeId real_nodes = 0;
  NodeId padded_nodes = 0;

  bool is_ghost(NodeId node) const { return node >= real_nodes; }
};

class CliqueAssignment {
 public:
  CliqueAssignment() = default;

  // clique_of[i] is the clique of node i; clique ids must be dense in
  // [0, num_cliques) and every clique nonempty.
  explicit CliqueAssignment(std::vector<CliqueId> clique_of);

  // N nodes split into nc contiguous equal cliques; n must be divisible
  // by nc. This is the layout of the paper's analysis (Sec. 4) and of
  // Fig. 2d/e.
  static CliqueAssignment contiguous(NodeId n, CliqueId nc);

  // Every node its own clique: a flat (fully oblivious) network.
  static CliqueAssignment flat(NodeId n);

  NodeId node_count() const { return static_cast<NodeId>(clique_of_.size()); }
  CliqueId clique_count() const {
    return static_cast<CliqueId>(members_.size());
  }
  CliqueId clique_of(NodeId node) const {
    return clique_of_[static_cast<std::size_t>(node)];
  }
  const std::vector<NodeId>& members(CliqueId c) const {
    return members_[static_cast<std::size_t>(c)];
  }
  NodeId clique_size(CliqueId c) const {
    return static_cast<NodeId>(members(c).size());
  }
  // Position of a node within its clique's member list.
  NodeId index_in_clique(NodeId node) const {
    return index_in_clique_[static_cast<std::size_t>(node)];
  }
  bool same_clique(NodeId a, NodeId b) const {
    return clique_of(a) == clique_of(b);
  }
  // True when all cliques have equal size (required by the closed-form
  // analysis; the schedule builder also supports unequal cliques).
  bool equal_sized() const;

  // True when the assignment is the canonical block layout of
  // contiguous(): equal-sized cliques with clique c owning exactly nodes
  // [c*s, (c+1)*s) in order. The schedule builder emits O(1)-state shift
  // matchings (Matching::radix_shift) for this layout and falls back to
  // explicit permutation vectors otherwise (e.g. failure-masked
  // reassignments). Detected once at construction.
  bool contiguous_equal_blocks() const { return contiguous_equal_; }

  // Support for non-uniform clique sizes (paper Sec. 5): pad every clique
  // to the size of the largest with ghost nodes. Ghosts are dark ports —
  // they carry no traffic, and circuits pointing at them model the
  // structural cost of unequal cliques in an equal-matching schedule.
  // Build the schedule over the returned assignment and only inject
  // traffic between real nodes.
  PaddedAssignment padded_to_equal() const;

  bool operator==(const CliqueAssignment& other) const {
    return clique_of_ == other.clique_of_;
  }

  // Estimated heap bytes of the node and member maps (profiler gauge).
  std::uint64_t memory_bytes() const;

 private:
  std::vector<CliqueId> clique_of_;
  std::vector<std::vector<NodeId>> members_;
  std::vector<NodeId> index_in_clique_;
  bool contiguous_equal_ = false;
};

}  // namespace sorn
