// Routing for the mixed-radix optimal ORN (Wilson et al. [35]).
//
// Nodes are mixed-radix numbers over radices (r_0, ..., r_{h-1}); a cell
// is routed digit-by-digit to a random intermediate and then
// digit-by-digit to the destination (up to 2h hops). With h equal radices
// r this is the h-dimensional optimal ORN of Amir et al. [4]: worst-case
// throughput 1/(2h), intrinsic latency O(h * r) — the Pareto family of
// Sec. 2.
#pragma once

#include <vector>

#include "routing/router.h"

namespace sorn {

class OrnMixedRouter : public Router {
 public:
  // Radices must multiply to n, each >= 2, and 2 * radices.size() must fit
  // the Path hop budget.
  OrnMixedRouter(NodeId n, std::vector<NodeId> radices);

  Path route(NodeId src, NodeId dst, Slot now, Rng& rng) const override;
  int max_hops() const override { return 2 * static_cast<int>(radices_.size()); }

  int dims() const { return static_cast<int>(radices_.size()); }
  NodeId radix(int d) const { return radices_[static_cast<std::size_t>(d)]; }
  NodeId digit(NodeId node, int d) const;
  NodeId with_digit(NodeId node, int d, NodeId value) const;

 private:
  void append_digit_hops(Path& path, NodeId from, NodeId to) const;

  NodeId n_;
  std::vector<NodeId> radices_;
  std::vector<NodeId> strides_;
};

}  // namespace sorn
