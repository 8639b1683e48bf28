// Facade for two-level hierarchical SORN networks (paper Sec. 6
// extension), mirroring SornNetwork for the flat design.
#pragma once

#include <memory>

#include "analysis/models.h"
#include "routing/hier_routing.h"
#include "sim/network.h"
#include "topo/schedule_builder.h"

namespace sorn {

struct HierSornConfig {
  NodeId nodes = 64;
  CliqueId clusters = 4;
  CliqueId pods_per_cluster = 4;

  // Expected locality split; derives optimal slot shares
  // intra : inter : global = 2 : (x2 + x3) : x3 unless explicit shares
  // are given.
  double pod_locality_x1 = 0.5;
  double cluster_locality_x2 = 0.3;
  // {0,0,0} means "derive from the locality split".
  ScheduleBuilder::HierShares shares{0, 0, 0};
  int share_scale = 12;

  int uplinks = 1;
  Picoseconds slot_duration = 100 * 1000;
  Picoseconds propagation_per_hop = 500 * 1000;
  LbMode lb_mode = LbMode::kRandom;
  Slot max_period = 1 << 18;
};

class HierSornNetwork {
 public:
  static HierSornNetwork build(const HierSornConfig& config);

  // The shares a build from this config uses: the explicit shares, or
  // hier_optimal_shares of the locality split at share_scale.
  static ScheduleBuilder::HierShares resolve_shares(
      const HierSornConfig& config);

  const HierSornConfig& config() const { return config_; }
  const Hierarchy& hierarchy() const { return *hierarchy_; }
  const CircuitSchedule& schedule() const { return *schedule_; }
  const Router& router() const { return *router_; }
  ScheduleBuilder::HierShares shares() const { return shares_; }

  // Mirror of SornNetwork::set_failure_view: make the hierarchical router
  // spray around the given live failure state (nullptr restores oblivious
  // routing).
  void set_failure_view(const FailureView* view) {
    router_->set_failure_view(view);
  }

  // Closed-form predictions.
  double predicted_throughput() const;
  double delta_m_pod() const;
  double delta_m_cluster() const;
  double delta_m_global() const;

  SlottedNetwork make_network(std::uint64_t seed = 42) const;

 private:
  HierSornNetwork(HierSornConfig config, ScheduleBuilder::HierShares shares);

  HierSornConfig config_;
  ScheduleBuilder::HierShares shares_;
  std::unique_ptr<Hierarchy> hierarchy_;
  std::unique_ptr<CircuitSchedule> schedule_;
  std::unique_ptr<HierSornRouter> router_;
};

}  // namespace sorn
