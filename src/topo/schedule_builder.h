// Builders for the circuit-schedule families studied in the paper.
//
//  - round_robin:  the flat 1D oblivious schedule of Fig. 1 (Sirius/Shoal).
//  - orn_mixed:    the h-dimensional optimal ORN schedule of [4] and its
//                  mixed-radix extension [35]: nodes are h-digit numbers,
//                  each phase round-robins one digit.
//  - sorn:         the paper's semi-oblivious clique schedule (Sec. 4):
//                  intra-clique round robins and inter-clique round robins
//                  interleaved in the exact ratio q : 1 with q rational.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "topo/bvn.h"
#include "topo/clique.h"
#include "topo/hierarchy.h"
#include "topo/schedule.h"

namespace sorn {

// Oversubscription ratio q as an exact rational num/den >= 1 so that slot
// shares are realized exactly in a finite schedule period.
struct Rational {
  std::int64_t num = 1;
  std::int64_t den = 1;

  double value() const {
    return static_cast<double>(num) / static_cast<double>(den);
  }

  // Closest rational to v with denominator at most max_den (Stern-Brocot
  // walk). Used to realize the analytic optimum q* = 2/(1-x) in a schedule
  // of manageable period.
  static Rational approximate(double v, std::int64_t max_den);
};

class ScheduleBuilder {
 public:
  // Flat round-robin over n nodes: period n-1, slot k applies the cyclic
  // shift by k+1. Every circuit appears exactly once per period.
  static CircuitSchedule round_robin(NodeId n);

  // Mixed-radix optimal ORN (Wilson et al. [35]: "Extending Optimal
  // Oblivious Reconfigurable Networks to all N"): nodes are mixed-radix
  // numbers over the given radices (product must equal n, each radix
  // >= 2); phase d round-robins digit d. Period sum_d (r_d - 1). With h
  // equal radices r (n == r^h) this is the h-dimensional optimal ORN of
  // Amir et al. [4], period h*(r-1).
  static CircuitSchedule orn_mixed(NodeId n,
                                   const std::vector<NodeId>& radices);

  // RotorNet-style slow rotation: the flat round robin with every
  // matching held for `dwell` consecutive slots (e.g. 90 us slots vs the
  // fabric's 100 ns cells).
  //
  // Note: the union of several *cyclic shifts* is a circulant graph with
  // poor expansion — fine for RotorNet's one-at-a-time direct/VLB use,
  // but not for Opera's multi-hop short-flow routing. Use rotor_random
  // for an Opera-style fabric.
  static CircuitSchedule rotor(NodeId n, Slot dwell);

  // The longest period rotor() and rotor_random() build: n - 1 rounds of
  // `dwell` slots each, one 4-byte order entry per slot (256 MB at the
  // cap). It admits N = 65536 at a 900-slot dwell (58,981,500 slots); a
  // longer period aborts.
  static constexpr Slot kMaxDwellPeriod = Slot{1} << 26;

  // The default cap on the period of sorn() and sorn_weighted(), the one
  // every SORN fabric is built within. AWGR-realizable slots are stored in
  // the compact shift form, so a long period costs only its 4-byte order
  // entries; the cap guards against a q whose denominator blows the
  // period up into the millions. N = 65536 in 256 cliques at q = 5 needs
  // 391,680 slots.
  static constexpr Slot kMaxSornPeriod = Slot{1} << 22;
  // The default cap on sorn_hierarchical()'s period, the one the hier
  // design builds within.
  static constexpr Slot kMaxHierPeriod = Slot{1} << 18;

  // Opera-style slow rotation: a proper 1-factorization of the complete
  // graph (circle method), randomly relabeled and with rounds in random
  // order, each round held for `dwell` slots. Every ordered pair appears
  // (bulk flows eventually get a direct circuit), and the union of the
  // lanes' active rounds behaves like a random regular graph — the
  // expander Opera routes short flows over. n must be even.
  static CircuitSchedule rotor_random(NodeId n, Slot dwell,
                                      std::uint64_t seed);

  // SORN clique schedule for the given assignment and oversubscription
  // ratio q (intra : inter slot share). Requires equal-sized cliques when
  // both intra and inter slots are present. The schedule period is the
  // smallest that realizes q exactly and completes both round-robin cycles;
  // aborts if that exceeds max_period (pick a coarser q via
  // Rational::approximate).
  //
  // Degenerate cases: one clique -> pure intra round robin; cliques of
  // size 1 -> pure inter (clique-level) round robin.
  static CircuitSchedule sorn(const CliqueAssignment& cliques, Rational q,
                              Slot max_period = kMaxSornPeriod);

  // Weighted-inter SORN schedule (paper Sec. 5, "Expressivity"): the
  // inter-clique slots are apportioned to clique pairs in proportion to
  // `clique_weights` (an Nc x Nc demand aggregate; diagonal ignored) via a
  // Birkhoff-von-Neumann decomposition, instead of the uniform clique-level
  // round robin of sorn(). Encodes gravity models and other non-uniform
  // aggregate patterns. Empty `clique_weights` builds sorn() itself, so
  // callers holding optional weights need no branch of their own.
  struct WeightedOptions {
    // Demand share of the mix; the remaining (1 - alpha) is a uniform
    // floor that keeps every clique pair connected (required for 3-hop
    // routing and the fixed-neighbor-superset property).
    double demand_alpha = 0.7;
    // Quantization length for BvN coefficients: one period's inter slots
    // follow an emission list of ~this many entries per rotation.
    int emission_slots = 32;
    BvnOptions bvn;
  };

  static CircuitSchedule sorn_weighted(const CliqueAssignment& cliques,
                                       Rational q,
                                       const std::vector<double>& clique_weights,
                                       const WeightedOptions& options,
                                       Slot max_period = kMaxSornPeriod);
  static CircuitSchedule sorn_weighted(
      const CliqueAssignment& cliques, Rational q,
      const std::vector<double>& clique_weights) {
    return sorn_weighted(cliques, q, clique_weights, WeightedOptions());
  }

  // The period sorn_weighted() builds for `cliques` equal cliques of
  // `clique_size` nodes at ratio q (sorn()'s when clique_weights is
  // empty), from the closed form its interleave asserts on; INT64_MAX
  // when that overflows. A caller checks it against kMaxSornPeriod before
  // building. Non-empty weights must be ones sorn_weighted() accepts.
  static std::int64_t sorn_period(CliqueId cliques, NodeId clique_size,
                                  Rational q,
                                  const std::vector<double>& clique_weights,
                                  const WeightedOptions& options);

  // Two-level hierarchical SORN (paper Sec. 6): three slot classes —
  // intra-pod round robins (kIntra), pod-level round robins within each
  // cluster (kInter), and cluster-level round robins (kGlobal) — in the
  // exact integer ratio `shares`. A share must be 0 iff its level has no
  // circuits (pod size 1 / one pod per cluster / one cluster).
  struct HierShares {
    std::int64_t intra = 2;
    std::int64_t inter = 1;
    std::int64_t global = 1;
  };

  static CircuitSchedule sorn_hierarchical(const Hierarchy& hierarchy,
                                           HierShares shares,
                                           Slot max_period = kMaxHierPeriod);

  // Why sorn_hierarchical() cannot build `clusters` clusters of
  // `pods_per_cluster` pods of `pod_size` nodes at `shares` within
  // `max_period` slots, or "" when it can: each share must be >= 0 and
  // positive iff its level has circuits, and the period (the interleave's
  // closed form) must fit. sorn_hierarchical() aborts on a problem; a
  // caller taking user input checks first.
  static std::string hier_problem(NodeId pod_size, CliqueId pods_per_cluster,
                                  CliqueId clusters, HierShares shares,
                                  Slot max_period);
};

}  // namespace sorn
