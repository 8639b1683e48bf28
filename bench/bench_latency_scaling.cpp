// Sec. 4 scaling claim: SORN lowers intrinsic latency by orders of
// magnitude versus a flat 1D ORN at datacenter scale, while keeping
// throughput near the 1D ORN's 50%.
//
// Sweeps N and prints min worst-case latency (us) for 1D, 2D, 3D ORNs and
// SORN (Nc chosen ~ sqrt(N), x = 0.56), plus each design's worst-case
// throughput. Then, at N = 4096, the intrinsic latency of the two-level
// hierarchical SORN (Sec. 6) against flat SORN built at pod granularity.
#include <cmath>
#include <cstdio>

#include "analysis/models.h"
#include "util/table.h"

int main() {
  using namespace sorn;
  const analysis::DeploymentParams base;  // u=16, 100 ns slots, 500 ns prop
  const double x = base.locality_x;
  const double q = analysis::sorn_optimal_q(x);

  std::printf(
      "Latency scaling with network size (u=%d, slot=%.0fns, "
      "prop=%.0fns, x=%.2f)\n\n",
      base.uplinks, base.slot_ns, base.propagation_ns, x);

  TablePrinter table({"N", "1D ORN (us)", "2D ORN (us)", "3D ORN (us)",
                      "SORN intra (us)", "SORN inter (us)", "SORN Nc"});
  for (const NodeId n : {256, 1024, 4096, 16384, 65536}) {
    // Nc ~ sqrt(N), rounded to a power of two dividing N.
    CliqueId nc = 1;
    while (nc * 2 <= static_cast<CliqueId>(std::sqrt(n))) nc *= 2;
    const double l1 = analysis::min_latency_us(analysis::orn1d_delta_m(n),
                                               base.uplinks, base.slot_ns, 2,
                                               base.propagation_ns);
    const double l2 = analysis::min_latency_us(analysis::orn_hd_delta_m(n, 2),
                                               base.uplinks, base.slot_ns, 4,
                                               base.propagation_ns);
    const double l3 = analysis::min_latency_us(analysis::orn_hd_delta_m(n, 3),
                                               base.uplinks, base.slot_ns, 6,
                                               base.propagation_ns);
    const double li = analysis::min_latency_us(
        analysis::sorn_delta_m_intra(n, nc, q), base.uplinks, base.slot_ns, 2,
        base.propagation_ns);
    const double le = analysis::min_latency_us(
        analysis::sorn_delta_m_inter_table(n, nc, q), base.uplinks,
        base.slot_ns, 3, base.propagation_ns);
    table.add_row({format("%d", n), format("%.2f", l1), format("%.2f", l2),
                   format("%.2f", l3), format("%.2f", li), format("%.2f", le),
                   format("%d", nc)});
  }
  table.print();

  std::printf(
      "\nWorst-case throughput: 1D = 50%%, 2D = 25%%, 3D = 16.7%%, "
      "SORN(x=%.2f) = %.2f%%\n"
      "Shape check: SORN tracks the 2D ORN's latency scaling while keeping\n"
      "throughput near the 1D ORN's (paper Sec. 4, Table 1 discussion).\n",
      x, analysis::sorn_throughput(x) * 100.0);

  // Table 1 deployment parameters split into 16 clusters of 16 pods of
  // 16 nodes. The hierarchy trades some throughput on cluster-crossing
  // traffic (experiments/hierarchy.json) for latency: waits split across
  // a pod-level and a cluster-level round robin instead of one robin over
  // all pods.
  std::printf(
      "\nIntrinsic latency at N=4096 (16 clusters x 16 pods x 16 nodes, "
      "x1=0.4, x2=0.3):\n");
  const auto shares = analysis::hier_optimal_shares(0.4, 0.3);
  const double flat_q = analysis::sorn_optimal_q(0.4);
  TablePrinter hier({"design", "dm local", "dm mid", "dm far"});
  hier.add_row(
      {"flat SORN, 256 pod-cliques",
       format("%.0f", analysis::sorn_delta_m_intra(4096, 256, flat_q)),
       format("%.0f", analysis::sorn_delta_m_inter_table(4096, 256, flat_q)),
       "-"});
  hier.add_row(
      {"hierarchical SORN",
       format("%.0f", analysis::hier_delta_m_pod(16, shares)),
       format("%.0f", analysis::hier_delta_m_cluster(16, 16, shares)),
       format("%.0f", analysis::hier_delta_m_global(16, 16, 16, shares))});
  hier.print();
  std::printf(
      "\nShape check: the hierarchy splits one 255-pod robin into a 15-pod\n"
      "and a 15-cluster robin — far traffic waits two short robins instead\n"
      "of one long one, at a modest throughput cost vs flat pod-SORN.\n");
  return 0;
}
