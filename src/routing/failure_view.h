// Shared failure state: which nodes and directed circuits are down.
//
// One FailureView is owned by the SlottedNetwork (the data plane consults
// it on every transmit) and borrowed by routers (to keep failed
// intermediates out of load-balancing spray) and by the control plane (to
// mask dead nodes out of clique planning and to trigger failure re-plans).
// It sits in the routing layer because routers are the lowest layer that
// must read it; everything above borrows a const pointer.
//
// Semantics match the simulator's outage model: a failed node neither
// transmits nor receives on any circuit; a failed circuit disables one
// directed virtual edge. Cells already queued toward a failed element stay
// queued and resume on heal — failures never drop cells by themselves.
//
// Mutators are idempotent and return whether the state actually changed,
// so callers (the network's fault events, fault injectors) can suppress
// duplicate events.
// version() increments on every real change; consumers that cache derived
// state (the control plane's "have I planned around this failure set yet")
// compare versions instead of diffing bitmaps.
#pragma once

#include <algorithm>
#include <cstdint>
#include <utility>
#include <vector>

#include "util/assert.h"
#include "util/types.h"

namespace sorn {

class FailureView {
 public:
  FailureView() = default;
  explicit FailureView(NodeId nodes)
      : n_(nodes), failed_nodes_(static_cast<std::size_t>(nodes), 0) {
    SORN_ASSERT(nodes >= 0, "node count must be nonnegative");
  }

  NodeId node_count() const { return n_; }

  // ---- Hot-path queries ----
  bool any_failures() const {
    return failed_node_count_ > 0 || !failed_circuits_.empty();
  }
  bool is_node_failed(NodeId node) const {
    return failed_nodes_[static_cast<std::size_t>(node)] != 0;
  }
  bool is_circuit_failed(NodeId src, NodeId dst) const {
    return !failed_circuits_.empty() &&
           std::binary_search(failed_circuits_.begin(), failed_circuits_.end(),
                              std::pair<NodeId, NodeId>{src, dst});
  }
  // True when a cell can actually cross src -> dst this slot: neither
  // endpoint is down and the directed circuit is up.
  bool usable(NodeId src, NodeId dst) const {
    return failed_nodes_[static_cast<std::size_t>(src)] == 0 &&
           failed_nodes_[static_cast<std::size_t>(dst)] == 0 &&
           !is_circuit_failed(src, dst);
  }

  std::uint64_t failed_node_count() const { return failed_node_count_; }
  std::uint64_t failed_circuit_count() const { return failed_circuits_.size(); }
  // The currently failed directed circuits, sorted by (src, dst). Lets
  // consumers (SlottedNetwork::heal_all, recovery sweeps) iterate exactly
  // the failed set instead of scanning all N^2 pairs with
  // is_circuit_failed — quadratic even when one circuit is down.
  const std::vector<std::pair<NodeId, NodeId>>& failed_circuits() const {
    return failed_circuits_;
  }
  // Monotonic change counter; bumps once per state-changing mutation.
  std::uint64_t version() const { return version_; }

  // ---- Mutators (idempotent; return true when state changed) ----
  bool fail_node(NodeId node) {
    std::uint8_t& f = failed_nodes_[static_cast<std::size_t>(node)];
    if (f != 0) return false;
    f = 1;
    ++failed_node_count_;
    ++version_;
    return true;
  }
  bool heal_node(NodeId node) {
    std::uint8_t& f = failed_nodes_[static_cast<std::size_t>(node)];
    if (f == 0) return false;
    f = 0;
    --failed_node_count_;
    ++version_;
    return true;
  }
  bool fail_circuit(NodeId src, NodeId dst) {
    const std::pair<NodeId, NodeId> edge{src, dst};
    const auto it = std::lower_bound(failed_circuits_.begin(),
                                     failed_circuits_.end(), edge);
    if (it != failed_circuits_.end() && *it == edge) return false;
    failed_circuits_.insert(it, edge);
    ++version_;
    return true;
  }
  bool heal_circuit(NodeId src, NodeId dst) {
    const std::pair<NodeId, NodeId> edge{src, dst};
    const auto it = std::lower_bound(failed_circuits_.begin(),
                                     failed_circuits_.end(), edge);
    if (it == failed_circuits_.end() || *it != edge) return false;
    failed_circuits_.erase(it);
    ++version_;
    return true;
  }

 private:
  NodeId n_ = 0;
  std::vector<std::uint8_t> failed_nodes_;
  // The failed directed circuits, sorted: memory follows the failures,
  // not N^2. Failures are rare, so the O(failed) sorted insert/erase and
  // the O(log failed) lookups never matter.
  std::vector<std::pair<NodeId, NodeId>> failed_circuits_;
  std::uint64_t failed_node_count_ = 0;
  std::uint64_t version_ = 0;
};

}  // namespace sorn
