// A circuit schedule: the periodic sequence of matchings all nodes follow.
//
// Nodes and switches synchronously cycle through the schedule (paper Sec. 2);
// slot t applies matching slot(t mod period). A circuit that appears in a
// fraction l of the slots realizes a virtual edge of bandwidth b*l (Sec. 4).
//
// Storage is a walk over a small set of matchings: each distinct matching
// is stored once, and a uint32 slot order says which one slot t applies
// (matchings[order[t mod period]]). A SORN period interleaves far more
// slots than its streams have steps, so this costs O(distinct * N +
// period) bytes instead of O(period * N) when matchings are explicit
// (DESIGN.md §11).
//
// Each matching is tagged with its role so that routing can ask for e.g.
// the "first available intra-clique link" without re-deriving the clique
// structure from the matching.
#pragma once

#include <cstdint>
#include <vector>

#include "topo/matching.h"
#include "topo/matching_set.h"
#include "util/time.h"
#include "util/types.h"

namespace sorn {

enum class SlotKind : std::uint8_t {
  kUniform,  // flat oblivious schedule (no clique structure)
  kIntra,    // circuits stay within cliques (pods)
  kInter,    // circuits cross cliques (pods) within one hierarchy level
  kGlobal,   // circuits cross the upper hierarchy level (clusters)
};

class CircuitSchedule {
 public:
  // Slot t applies matchings[order[t mod period]], and the period is
  // order.size(). An empty order means one matching per slot, in sequence.
  // kinds must be empty (all kUniform) or have one entry per matching.
  // Aborts if matchings is empty, node counts disagree, an order entry is
  // out of range, or a matching is never used.
  explicit CircuitSchedule(std::vector<Matching> matchings,
                           std::vector<SlotKind> kinds = {},
                           std::vector<std::uint32_t> order = {});

  NodeId node_count() const { return n_; }
  Slot period() const { return static_cast<Slot>(order_.size()); }

  const Matching& matching_at(Slot t) const {
    return matchings_[order_[static_cast<std::size_t>(wrap(t))]];
  }
  SlotKind kind_at(Slot t) const {
    return kinds_[order_[static_cast<std::size_t>(wrap(t))]];
  }

  // Number of distinct matchings the slot order walks.
  std::size_t distinct_count() const { return matchings_.size(); }

  // Whom node transmits to in slot t (== node when idle).
  NodeId dst_of(NodeId node, Slot t) const {
    return matching_at(t).dst_of(node);
  }

  // First slot >= from in which the circuit src -> dst is up, or -1 if the
  // circuit never appears in the schedule. O(period) scan; used by analysis
  // and routing setup, not in the simulator hot path.
  Slot next_slot_connecting(NodeId src, NodeId dst, Slot from) const;

  // Fraction of slots in which the circuit src -> dst is up, i.e. the
  // virtual-edge bandwidth as a fraction of node bandwidth.
  double edge_fraction(NodeId src, NodeId dst) const;

  // Fraction of slots with the given kind.
  double kind_fraction(SlotKind k) const;

  // Time to cycle the whole schedule on one uplink; with u parallel
  // uplinks running phase-shifted copies, a node sweeps all circuits in
  // period()/u slots (the paper's delta_m / u accounting).
  Picoseconds cycle_time(Picoseconds slot_duration) const {
    return period() * slot_duration;
  }

  // True when every slot's matching is a member of the given physical
  // matching set — i.e. the schedule is realizable on hardware whose OCS
  // configurations are exactly `available` with all nodes switching
  // synchronously. Note the paper's Sec. 5 point: a flat round robin is
  // realizable with the bare AWGR wavelength family, but SORN's clique
  // matchings need per-node wavelength choice (which AWGR + tunable
  // lasers provide; see tests/topo/realizability_test.cpp).
  bool realizable_with(const MatchingSet& available) const;

  // Estimated bytes of stored schedule state (distinct matchings, their
  // kinds and the slot order). O(distinct); sampled by the profiler's
  // MemoryAccountant, not hot-path.
  std::uint64_t memory_bytes() const;

  // Invariant checks (O(distinct * n)):
  //   - every slot is a valid permutation (checked at construction of
  //     Matching);
  //   - kinds tags are consistent with no matching crossing its tag.
  // Returns true when every non-idle circuit in an intra slot stays within
  // a clique of `cliques`, and every one in an inter slot crosses cliques.
  bool kinds_consistent(const std::vector<CliqueId>& clique_of) const;

 private:
  Slot wrap(Slot t) const { return t % period(); }

  NodeId n_ = 0;
  std::vector<Matching> matchings_;
  std::vector<SlotKind> kinds_;       // one per distinct matching
  std::vector<std::uint32_t> order_;  // one index per slot
};

// Phase offset of uplink `lane` out of `lanes` for a schedule of the given
// period: lanes run the same schedule shifted by period/lanes so that a node
// with u uplinks sees every circuit u times faster. When lanes does not
// divide the period the offsets are rounded; coverage remains complete, only
// evenness degrades.
Slot lane_phase(Slot period, int lanes, int lane);

}  // namespace sorn
