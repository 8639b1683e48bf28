#include "core/sorn.h"

#include <algorithm>

#include "util/assert.h"

namespace sorn {

Rational SornNetwork::resolve_q(const SornConfig& config) {
  if (config.q.num > 0) {  // explicit q
    SORN_ASSERT(config.q.value() >= 1.0, "explicit q must be >= 1");
    return config.q;
  }
  const double q_star = analysis::sorn_optimal_q(config.locality_x);
  return Rational::approximate(std::max(1.0, q_star),
                               config.max_q_denominator);
}

SornNetwork::SornNetwork(SornConfig config, CliqueAssignment assignment,
                         Rational q)
    : config_(std::move(config)), q_(q) {
  cliques_ = std::make_unique<CliqueAssignment>(std::move(assignment));
  build_fabric();
}

void SornNetwork::build_fabric() {
  schedule_ = std::make_unique<CircuitSchedule>(ScheduleBuilder::sorn_weighted(
      *cliques_, q_, config_.inter_clique_weights, config_.weighted_options,
      config_.max_period));
  router_ = std::make_unique<SornRouter>(schedule_.get(), cliques_.get(),
                                         config_.lb_mode);
  router_->set_failure_view(failure_view_);
}

SornNetwork SornNetwork::build(const SornConfig& config) {
  SORN_ASSERT(config.cliques >= 1 && config.nodes % config.cliques == 0,
              "nodes must divide into equal cliques");
  return build_with_assignment(
      config, CliqueAssignment::contiguous(config.nodes, config.cliques));
}

SornNetwork SornNetwork::build_with_assignment(const SornConfig& config,
                                               CliqueAssignment assignment) {
  SORN_ASSERT(assignment.node_count() == config.nodes,
              "assignment does not match the configured node count");
  return SornNetwork(config, std::move(assignment), resolve_q(config));
}

void SornNetwork::adapt(CliqueAssignment new_assignment, Rational new_q) {
  adapt(std::move(new_assignment), new_q, {});
}

void SornNetwork::adapt(CliqueAssignment new_assignment, Rational new_q,
                        std::vector<double> inter_clique_weights) {
  SORN_ASSERT(new_assignment.node_count() == config_.nodes,
              "adaptation must preserve the node count");
  q_ = new_q;
  config_.inter_clique_weights = std::move(inter_clique_weights);
  cliques_ = std::make_unique<CliqueAssignment>(std::move(new_assignment));
  build_fabric();
  config_.cliques = cliques_->clique_count();
}

double SornNetwork::predicted_throughput() const {
  return analysis::sorn_throughput_at_q(config_.locality_x, q_.value());
}

double SornNetwork::delta_m_intra() const {
  return analysis::sorn_delta_m_intra(config_.nodes, cliques_->clique_count(),
                                      q_.value());
}

double SornNetwork::delta_m_inter() const {
  return analysis::sorn_delta_m_inter_table(
      config_.nodes, cliques_->clique_count(), q_.value());
}

double SornNetwork::min_latency_intra_us() const {
  return analysis::min_latency_us(delta_m_intra(), config_.uplinks,
                                  to_ns(config_.slot_duration), 2,
                                  to_ns(config_.propagation_per_hop));
}

double SornNetwork::min_latency_inter_us() const {
  return analysis::min_latency_us(delta_m_inter(), config_.uplinks,
                                  to_ns(config_.slot_duration), 3,
                                  to_ns(config_.propagation_per_hop));
}

SlottedNetwork SornNetwork::make_network(std::uint64_t seed) const {
  NetworkConfig nc;
  nc.lanes = config_.uplinks;
  nc.slot_duration = config_.slot_duration;
  nc.propagation_per_hop = config_.propagation_per_hop;
  nc.seed = seed;
  return SlottedNetwork(schedule_.get(), router_.get(), nc);
}

}  // namespace sorn
