#include "core/hier_sorn.h"

#include "util/assert.h"

namespace sorn {

ScheduleBuilder::HierShares HierSornNetwork::resolve_shares(
    const HierSornConfig& config) {
  if (config.shares.intra > 0 || config.shares.inter > 0 ||
      config.shares.global > 0) {
    return config.shares;
  }
  const auto approx = analysis::hier_optimal_shares(
      config.pod_locality_x1, config.cluster_locality_x2, config.share_scale);
  return {approx.intra, approx.inter, approx.global};
}

HierSornNetwork::HierSornNetwork(HierSornConfig config,
                                 ScheduleBuilder::HierShares shares)
    : config_(config), shares_(shares) {
  hierarchy_ = std::make_unique<Hierarchy>(Hierarchy::regular(
      config_.nodes, config_.clusters, config_.pods_per_cluster));
  schedule_ = std::make_unique<CircuitSchedule>(
      ScheduleBuilder::sorn_hierarchical(*hierarchy_, shares_,
                                         config_.max_period));
  router_ = std::make_unique<HierSornRouter>(schedule_.get(),
                                             hierarchy_.get(),
                                             config_.lb_mode);
}

HierSornNetwork HierSornNetwork::build(const HierSornConfig& config) {
  return HierSornNetwork(config, resolve_shares(config));
}

double HierSornNetwork::predicted_throughput() const {
  return analysis::hier_throughput(config_.pod_locality_x1,
                                   config_.cluster_locality_x2);
}

double HierSornNetwork::delta_m_pod() const {
  return analysis::hier_delta_m_pod(
      hierarchy_->pod_size(), {shares_.intra, shares_.inter, shares_.global});
}

double HierSornNetwork::delta_m_cluster() const {
  return analysis::hier_delta_m_cluster(
      hierarchy_->pod_size(), hierarchy_->pods_per_cluster(),
      {shares_.intra, shares_.inter, shares_.global});
}

double HierSornNetwork::delta_m_global() const {
  return analysis::hier_delta_m_global(
      hierarchy_->pod_size(), hierarchy_->pods_per_cluster(),
      hierarchy_->cluster_count(),
      {shares_.intra, shares_.inter, shares_.global});
}

SlottedNetwork HierSornNetwork::make_network(std::uint64_t seed) const {
  NetworkConfig nc;
  nc.lanes = config_.uplinks;
  nc.slot_duration = config_.slot_duration;
  nc.propagation_per_hop = config_.propagation_per_hop;
  nc.seed = seed;
  return SlottedNetwork(schedule_.get(), router_.get(), nc);
}

}  // namespace sorn
