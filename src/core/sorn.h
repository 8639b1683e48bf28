// Public facade: build, analyze, simulate and adapt a semi-oblivious
// reconfigurable network.
//
// Typical use (see examples/quickstart.cpp):
//
//   sorn::SornConfig config;
//   config.nodes = 128;
//   config.cliques = 8;
//   config.locality_x = 0.56;               // derives q* = 2/(1-x)
//   auto net = sorn::SornNetwork::build(config);
//   auto sim = net.make_network();           // slot-synchronous simulator
//   ...
//   net.adapt(new_assignment, new_q);        // macro-scale reconfiguration
//   sim.reconfigure(&net.schedule(), &net.router());
#pragma once

#include <memory>

#include "analysis/models.h"
#include "routing/sorn_routing.h"
#include "sim/network.h"
#include "topo/clique.h"
#include "topo/logical_topology.h"
#include "topo/schedule_builder.h"

namespace sorn {

struct SornConfig {
  NodeId nodes = 128;
  CliqueId cliques = 8;

  // Expected intra-clique locality ratio x; sets q = q*(x) = 2/(1-x)
  // unless an explicit q is given.
  double locality_x = 0.5;
  // Explicit oversubscription ratio; {0, 1} means "derive from
  // locality_x".
  Rational q{0, 1};
  // Denominator cap when rationalizing q*(x).
  std::int64_t max_q_denominator = 12;

  // Deployment parameters (Table 1 defaults, scaled-down node count).
  int uplinks = 1;
  Picoseconds slot_duration = 100 * 1000;       // 100 ns
  Picoseconds propagation_per_hop = 500 * 1000;  // 500 ns

  LbMode lb_mode = LbMode::kRandom;
  // Cap on the schedule period. AWGR-realizable slots are stored in the
  // compact shift form (O(1) bytes per slot), so a long period costs only
  // ~64 bytes per slot; the cap is a sanity guard against a q whose
  // denominator blows the period up into the millions. N=65536 with 256
  // cliques at q=5 needs 391,680 slots, which fits comfortably.
  Slot max_period = 1 << 22;

  // Non-empty (cliques x cliques, row-major): apportion inter-clique slots
  // to clique pairs in proportion to this demand aggregate
  // (ScheduleBuilder::sorn_weighted). Empty: uniform inter round-robin.
  std::vector<double> inter_clique_weights;
  ScheduleBuilder::WeightedOptions weighted_options;
};

class SornNetwork {
 public:
  // Build the schedule and router for the configuration; nodes must divide
  // into `cliques` equal cliques.
  static SornNetwork build(const SornConfig& config);

  // Same, but with an explicit (possibly non-contiguous) clique
  // assignment, e.g. one produced by the control plane's clusterer.
  static SornNetwork build_with_assignment(const SornConfig& config,
                                           CliqueAssignment assignment);

  // The q a build from this config uses: the explicit q (which must be
  // >= 1) or q*(locality_x) rationalized with max_q_denominator.
  static Rational resolve_q(const SornConfig& config);

  const SornConfig& config() const { return config_; }
  const CliqueAssignment& cliques() const { return *cliques_; }
  const CircuitSchedule& schedule() const { return *schedule_; }
  const Router& router() const { return *router_; }
  Rational q() const { return q_; }

  // Make this network's router failure-aware: pass a simulator's
  // &sim.failure_view() (the sim must outlive this SornNetwork's routing
  // use) and load-balancing spray detours around failed nodes/circuits.
  // nullptr restores oblivious routing. Survives adapt().
  void set_failure_view(const FailureView* view) {
    failure_view_ = view;
    router_->set_failure_view(view);
  }

  // Rebuild the macro-configuration in place (new cliques and/or q, and
  // optionally new inter-clique weights). The old schedule/router are
  // destroyed; when a live SlottedNetwork points at them, call
  // sim.reconfigure(&schedule(), &router()) immediately after — or use
  // ReconfigManager, which keeps generations alive.
  void adapt(CliqueAssignment new_assignment, Rational new_q);
  void adapt(CliqueAssignment new_assignment, Rational new_q,
             std::vector<double> inter_clique_weights);

  // ---- Closed-form predictions (analysis/models.h) ----
  double predicted_throughput() const;
  double delta_m_intra() const;
  double delta_m_inter() const;
  double min_latency_intra_us() const;
  double min_latency_inter_us() const;

  // The virtual-edge graph the schedule emulates.
  LogicalTopology logical_topology() const {
    return LogicalTopology(*schedule_);
  }

  // A simulator bound to this network's schedule and router. The returned
  // object borrows them: keep this SornNetwork alive (and call
  // reconfigure() after adapt()).
  SlottedNetwork make_network(std::uint64_t seed = 42) const;

 private:
  SornNetwork(SornConfig config, CliqueAssignment assignment, Rational q);
  // (Re)build the schedule and router from cliques_, q_ and the config's
  // inter-clique weights.
  void build_fabric();

  SornConfig config_;
  Rational q_;
  std::unique_ptr<CliqueAssignment> cliques_;
  std::unique_ptr<CircuitSchedule> schedule_;
  std::unique_ptr<SornRouter> router_;
  const FailureView* failure_view_ = nullptr;
};

}  // namespace sorn
