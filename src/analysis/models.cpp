#include "analysis/models.h"

#include <algorithm>
#include <cmath>

#include "util/assert.h"

namespace sorn {
namespace analysis {

double sorn_optimal_q(double x) {
  SORN_ASSERT(x >= 0.0 && x <= 1.0, "locality ratio must be in [0,1]");
  if (x >= 1.0) return kMaxSornQ;
  return std::min(kMaxSornQ, 2.0 / (1.0 - x));
}

double sorn_throughput(double x) {
  SORN_ASSERT(x >= 0.0 && x <= 1.0, "locality ratio must be in [0,1]");
  return 1.0 / (3.0 - x);
}

double sorn_throughput_at_q(double x, double q) {
  SORN_ASSERT(q >= 1.0, "oversubscription q must be >= 1");
  const double intra_bound = q / (2.0 * q + 2.0);
  if (x >= 1.0) return intra_bound;
  const double inter_bound = 1.0 / ((1.0 - x) * (q + 1.0));
  return std::min(intra_bound, inter_bound);
}

double sorn_mean_hops(double x) { return 3.0 - x; }

double sorn_delta_m_intra(NodeId n, CliqueId nc, double q) {
  SORN_ASSERT(n % nc == 0, "analysis assumes equal cliques");
  const double clique_size = static_cast<double>(n) / static_cast<double>(nc);
  return std::ceil((q + 1.0) / q * (clique_size - 1.0));
}

double sorn_delta_m_inter_text(NodeId n, CliqueId nc, double q) {
  const double clique_size = static_cast<double>(n) / static_cast<double>(nc);
  return (q + 1.0) * (static_cast<double>(nc) - 1.0) +
         (q + 1.0) / q * (clique_size - 1.0);
}

double sorn_delta_m_inter_table(NodeId n, CliqueId nc, double q) {
  return std::ceil(q * (static_cast<double>(nc) - 1.0)) +
         sorn_delta_m_intra(n, nc, q);
}

double orn1d_delta_m(NodeId n) { return static_cast<double>(n) - 1.0; }

double orn_hd_delta_m(NodeId n, int h) {
  SORN_ASSERT(h >= 1, "dimension must be at least 1");
  const double r = std::pow(static_cast<double>(n), 1.0 / h);
  return 2.0 * h * (r - 1.0);
}

double orn_hd_throughput(int h) { return 1.0 / (2.0 * h); }

double min_latency_us(double delta_m, int uplinks, double slot_ns, int hops,
                      double propagation_ns) {
  SORN_ASSERT(uplinks >= 1, "need at least one uplink");
  return (delta_m / uplinks * slot_ns + hops * propagation_ns) / 1000.0;
}

double hier_throughput(double x1, double x2) {
  SORN_ASSERT(x1 >= 0.0 && x2 >= 0.0 && x1 + x2 <= 1.0 + 1e-12,
              "locality shares must be a sub-distribution");
  const double x3 = std::max(0.0, 1.0 - x1 - x2);
  return 1.0 / (2.0 + x2 + 2.0 * x3);
}

HierSharesApprox hier_optimal_shares(double x1, double x2, int scale) {
  SORN_ASSERT(scale >= 1, "scale must be positive");
  const double x3 = std::max(0.0, 1.0 - x1 - x2);
  const double w_intra = 2.0;
  const double w_inter = x2 + x3;
  const double w_global = x3;
  HierSharesApprox shares;
  shares.intra = std::llround(w_intra * scale);
  shares.inter =
      w_inter > 0.0 ? std::max<std::int64_t>(1, std::llround(w_inter * scale))
                    : 0;
  shares.global =
      w_global > 0.0
          ? std::max<std::int64_t>(1, std::llround(w_global * scale))
          : 0;
  return shares;
}

namespace {

double share_total(const HierSharesApprox& s) {
  return static_cast<double>(s.intra + s.inter + s.global);
}

}  // namespace

double hier_delta_m_pod(NodeId pod_size, const HierSharesApprox& shares) {
  SORN_ASSERT(shares.intra > 0, "pod latency needs intra slots");
  return std::ceil(static_cast<double>(pod_size - 1) * share_total(shares) /
                   static_cast<double>(shares.intra));
}

double hier_delta_m_cluster(NodeId pod_size, CliqueId pods_per_cluster,
                            const HierSharesApprox& shares) {
  SORN_ASSERT(shares.inter > 0, "cluster latency needs inter slots");
  return std::ceil(static_cast<double>(pods_per_cluster - 1) *
                   share_total(shares) /
                   static_cast<double>(shares.inter)) +
         hier_delta_m_pod(pod_size, shares);
}

double hier_delta_m_global(NodeId pod_size, CliqueId pods_per_cluster,
                           CliqueId clusters, const HierSharesApprox& shares) {
  SORN_ASSERT(shares.global > 0, "global latency needs global slots");
  return std::ceil(static_cast<double>(clusters - 1) * share_total(shares) /
                   static_cast<double>(shares.global)) +
         hier_delta_m_cluster(pod_size, pods_per_cluster, shares);
}

double sync_guard_ns(double base_guard_ns, double per_level_guard_ns,
                     NodeId domain_nodes) {
  SORN_ASSERT(domain_nodes >= 1, "domain must contain at least one node");
  SORN_ASSERT(base_guard_ns >= 0.0 && per_level_guard_ns >= 0.0,
              "guard components must be nonnegative");
  return base_guard_ns +
         per_level_guard_ns * std::log2(static_cast<double>(domain_nodes));
}

double slot_efficiency(double slot_ns, double guard_ns) {
  SORN_ASSERT(slot_ns > 0.0, "slot must be positive");
  if (guard_ns >= slot_ns) return 0.0;
  return (slot_ns - guard_ns) / slot_ns;
}

std::vector<SystemPoint> table1(const DeploymentParams& p) {
  std::vector<SystemPoint> rows;

  // Optimal ORN 1D (Sirius): flat round robin, 2-hop VLB.
  {
    SystemPoint row;
    row.system = "Optimal ORN 1D (Sirius)";
    row.max_hops = 2;
    row.delta_m = orn1d_delta_m(p.nodes);
    row.min_latency_us = min_latency_us(row.delta_m, p.uplinks, p.slot_ns,
                                        row.max_hops, p.propagation_ns);
    row.throughput = 0.5;
    row.bw_cost = 1.0 / row.throughput;
    rows.push_back(row);
  }

  // Opera: short flows ride the always-up expander; bulk waits for the
  // direct circuit of the slow rotation (delta_m = N-1 over u uplinks at
  // 90 us per slot). Propagation is negligible against the rotation wait.
  {
    SystemPoint short_row;
    short_row.system = "Opera";
    short_row.traffic_class = "short flows";
    short_row.max_hops = kOperaShortHops;
    short_row.delta_m = 0.0;
    short_row.min_latency_us = min_latency_us(
        0.0, p.uplinks, p.opera_slot_ns, short_row.max_hops, p.propagation_ns);
    short_row.throughput = kOperaThroughput;
    short_row.bw_cost = 1.0 / kOperaThroughput;
    rows.push_back(short_row);

    SystemPoint bulk_row;
    bulk_row.system = "Opera";
    bulk_row.traffic_class = "bulk";
    bulk_row.max_hops = kOperaBulkHops;
    bulk_row.delta_m = orn1d_delta_m(p.nodes);
    bulk_row.min_latency_us =
        bulk_row.delta_m / p.uplinks * p.opera_slot_ns / 1000.0;
    bulk_row.throughput = kOperaThroughput;
    bulk_row.bw_cost = 1.0 / kOperaThroughput;
    rows.push_back(bulk_row);
  }

  // Optimal ORN 2D.
  {
    SystemPoint row;
    row.system = "Optimal ORN 2D";
    row.max_hops = 4;
    row.delta_m = orn_hd_delta_m(p.nodes, 2);
    row.min_latency_us = min_latency_us(row.delta_m, p.uplinks, p.slot_ns,
                                        row.max_hops, p.propagation_ns);
    row.throughput = orn_hd_throughput(2);
    row.bw_cost = 1.0 / row.throughput;
    rows.push_back(row);
  }

  // SORN at Nc = 64 and Nc = 32 with q = q*(x).
  const double q = sorn_optimal_q(p.locality_x);
  const double r = sorn_throughput(p.locality_x);
  for (const CliqueId nc : {CliqueId{64}, CliqueId{32}}) {
    SystemPoint intra;
    intra.system = "SORN Nc=" + std::to_string(nc);
    intra.traffic_class = "intra-clique";
    intra.max_hops = 2;
    intra.delta_m = sorn_delta_m_intra(p.nodes, nc, q);
    intra.min_latency_us = min_latency_us(intra.delta_m, p.uplinks, p.slot_ns,
                                          intra.max_hops, p.propagation_ns);
    intra.throughput = r;
    intra.bw_cost = sorn_mean_hops(p.locality_x);
    rows.push_back(intra);

    SystemPoint inter;
    inter.system = intra.system;
    inter.traffic_class = "inter-clique";
    inter.max_hops = 3;
    inter.delta_m = sorn_delta_m_inter_table(p.nodes, nc, q);
    inter.min_latency_us = min_latency_us(inter.delta_m, p.uplinks, p.slot_ns,
                                          inter.max_hops, p.propagation_ns);
    inter.throughput = r;
    inter.bw_cost = sorn_mean_hops(p.locality_x);
    rows.push_back(inter);
  }

  return rows;
}

}  // namespace analysis
}  // namespace sorn
