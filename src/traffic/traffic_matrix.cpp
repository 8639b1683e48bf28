#include "traffic/traffic_matrix.h"

#include <algorithm>

#include "util/assert.h"
#include "util/upper_bound.h"

namespace sorn {

TrafficMatrix::TrafficMatrix(NodeId n)
    : n_(n),
      demand_(static_cast<std::size_t>(n) * static_cast<std::size_t>(n), 0.0) {
  SORN_ASSERT(n >= 1, "traffic matrix needs at least one node");
}

void TrafficMatrix::set(NodeId src, NodeId dst, double rate) {
  SORN_ASSERT(rate >= 0.0, "demand must be nonnegative");
  demand_[index(src, dst)] = src == dst ? 0.0 : rate;
  cdf_valid_ = false;
  row_cdf_valid_ = false;
}

void TrafficMatrix::add(NodeId src, NodeId dst, double rate) {
  SORN_ASSERT(rate >= 0.0, "demand must be nonnegative");
  if (src != dst) demand_[index(src, dst)] += rate;
  cdf_valid_ = false;
  row_cdf_valid_ = false;
}

void TrafficMatrix::for_each_nonzero(const NonzeroVisitor& visit) const {
  for (NodeId i = 0; i < n_; ++i) {
    const double* row = demand_.data() + index(i, 0);
    for (NodeId j = 0; j < n_; ++j) {
      if (row[j] != 0.0) visit(i, j, row[j]);
    }
  }
}

double TrafficMatrix::total() const {
  double t = 0.0;
  for (const double d : demand_) t += d;
  return t;
}

double TrafficMatrix::row_sum(NodeId src) const {
  double t = 0.0;
  for (NodeId j = 0; j < n_; ++j) t += at(src, j);
  return t;
}

double TrafficMatrix::col_sum(NodeId dst) const {
  double t = 0.0;
  for (NodeId i = 0; i < n_; ++i) t += at(i, dst);
  return t;
}

double TrafficMatrix::max_node_load() const {
  double worst = 0.0;
  for (NodeId i = 0; i < n_; ++i)
    worst = std::max({worst, row_sum(i), col_sum(i)});
  return worst;
}

void TrafficMatrix::scale(double factor) {
  SORN_ASSERT(factor >= 0.0, "scale factor must be nonnegative");
  for (double& d : demand_) d *= factor;
  cdf_valid_ = false;
  row_cdf_valid_ = false;
}

void TrafficMatrix::normalize_node_load(double target) {
  const double load = max_node_load();
  if (load > 0.0) scale(target / load);
}

double TrafficMatrix::locality_ratio(const CliqueAssignment& cliques) const {
  SORN_ASSERT(cliques.node_count() == n_, "assignment size mismatch");
  double intra = 0.0;
  double all = 0.0;
  for (NodeId i = 0; i < n_; ++i) {
    for (NodeId j = 0; j < n_; ++j) {
      const double d = at(i, j);
      all += d;
      if (cliques.same_clique(i, j)) intra += d;
    }
  }
  return all > 0.0 ? intra / all : 0.0;
}

std::vector<double> TrafficMatrix::aggregate(
    const CliqueAssignment& cliques) const {
  SORN_ASSERT(cliques.node_count() == n_, "assignment size mismatch");
  const auto nc = static_cast<std::size_t>(cliques.clique_count());
  std::vector<double> agg(nc * nc, 0.0);
  for (NodeId i = 0; i < n_; ++i)
    for (NodeId j = 0; j < n_; ++j)
      agg[static_cast<std::size_t>(cliques.clique_of(i)) * nc +
          static_cast<std::size_t>(cliques.clique_of(j))] += at(i, j);
  return agg;
}

std::pair<NodeId, NodeId> TrafficMatrix::sample_pair(Rng& rng) const {
  if (!cdf_valid_) {
    cdf_.resize(demand_.size());
    double acc = 0.0;
    for (std::size_t k = 0; k < demand_.size(); ++k) {
      acc += demand_[k];
      cdf_[k] = acc;
    }
    cdf_valid_ = true;
  }
  const double total_demand = cdf_.back();
  SORN_ASSERT(total_demand > 0.0, "cannot sample from an empty matrix");
  const double u = rng.next_double() * total_demand;
  auto k = upper_bound_index(cdf_.data(), cdf_.size(), u);
  if (k >= demand_.size()) k = demand_.size() - 1;
  return {static_cast<NodeId>(k / static_cast<std::size_t>(n_)),
          static_cast<NodeId>(k % static_cast<std::size_t>(n_))};
}

NodeId TrafficMatrix::sample_dst(NodeId src, Rng& rng) const {
  if (!row_cdf_valid_) {
    row_cdf_.resize(demand_.size());
    for (NodeId i = 0; i < n_; ++i) {
      double acc = 0.0;
      for (NodeId j = 0; j < n_; ++j) {
        acc += at(i, j);
        row_cdf_[index(i, j)] = acc;
      }
    }
    row_cdf_valid_ = true;
  }
  const double* row = row_cdf_.data() + index(src, 0);
  const auto n = static_cast<std::size_t>(n_);
  const double u = rng.next_double() * row[n - 1];
  const std::size_t j = upper_bound_index(row, n, u);
  return static_cast<NodeId>(j < n ? j : n - 1);
}

std::unique_ptr<DemandModel> TrafficMatrix::clone() const {
  return std::make_unique<TrafficMatrix>(*this);
}

std::size_t TrafficMatrix::memory_bytes() const {
  return (demand_.capacity() + cdf_.capacity() + row_cdf_.capacity()) *
         sizeof(double);
}

}  // namespace sorn
