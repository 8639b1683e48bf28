#include "traffic/demand_model.h"

#include <algorithm>

#include "util/assert.h"

namespace sorn {

const char* demand_backend_name(DemandBackend backend) {
  switch (backend) {
    case DemandBackend::kDense:
      return "dense";
    case DemandBackend::kSparse:
      return "sparse";
    case DemandBackend::kProcedural:
      return "procedural";
  }
  return "dense";
}

bool parse_demand_backend(std::string_view name, DemandBackend* out) {
  if (name == "dense") {
    *out = DemandBackend::kDense;
  } else if (name == "sparse") {
    *out = DemandBackend::kSparse;
  } else if (name == "procedural") {
    *out = DemandBackend::kProcedural;
  } else {
    return false;
  }
  return true;
}

void DemandModel::for_each_nonzero(const NonzeroVisitor& visit) const {
  const NodeId n = node_count();
  for (NodeId i = 0; i < n; ++i) {
    for (NodeId j = 0; j < n; ++j) {
      const double d = at(i, j);
      if (d != 0.0) visit(i, j, d);
    }
  }
}

double DemandModel::total() const {
  // Row-major fold over nonzeros == the dense fold over all N^2 entries.
  double t = 0.0;
  for_each_nonzero([&t](NodeId, NodeId, double d) { t += d; });
  return t;
}

double DemandModel::row_sum(NodeId src) const {
  const NodeId n = node_count();
  double t = 0.0;
  for (NodeId j = 0; j < n; ++j) t += at(src, j);
  return t;
}

double DemandModel::col_sum(NodeId dst) const {
  const NodeId n = node_count();
  double t = 0.0;
  for (NodeId i = 0; i < n; ++i) t += at(i, dst);
  return t;
}

double DemandModel::max_node_load() const {
  const NodeId n = node_count();
  double worst = 0.0;
  for (NodeId i = 0; i < n; ++i)
    worst = std::max({worst, row_sum(i), col_sum(i)});
  return worst;
}

double DemandModel::locality_ratio(const CliqueAssignment& cliques) const {
  SORN_ASSERT(cliques.node_count() == node_count(),
              "assignment size mismatch");
  double intra = 0.0;
  double all = 0.0;
  for_each_nonzero([&](NodeId i, NodeId j, double d) {
    all += d;
    if (cliques.same_clique(i, j)) intra += d;
  });
  return all > 0.0 ? intra / all : 0.0;
}

std::vector<double> DemandModel::locality_ratios(
    const std::vector<const CliqueAssignment*>& cliques) const {
  std::vector<double> ratios;
  ratios.reserve(cliques.size());
  for (const CliqueAssignment* c : cliques) ratios.push_back(locality_ratio(*c));
  return ratios;
}

std::vector<double> DemandModel::aggregate(
    const CliqueAssignment& cliques) const {
  SORN_ASSERT(cliques.node_count() == node_count(),
              "assignment size mismatch");
  const auto nc = static_cast<std::size_t>(cliques.clique_count());
  std::vector<double> agg(nc * nc, 0.0);
  for_each_nonzero([&](NodeId i, NodeId j, double d) {
    agg[static_cast<std::size_t>(cliques.clique_of(i)) * nc +
        static_cast<std::size_t>(cliques.clique_of(j))] += d;
  });
  return agg;
}

}  // namespace sorn
