// Closed-form latency/throughput models for every system in Table 1.
//
// Conventions (paper Sec. 4):
//   delta_m      intrinsic latency: the maximum number of circuits a packet
//                may need to cycle through across all its hops.
//   min latency  delta_m / uplinks * slot + hops * propagation: with u
//                phase-shifted uplink lanes a node sweeps circuits u times
//                faster, and each hop adds one propagation delay.
//   throughput   worst-case fraction of total bandwidth delivering traffic
//                on its final hop.
//   BW cost      1 / throughput: the bandwidth overprovisioning factor.
//
// The paper's Table 1 numbers are reproduced exactly, including one place
// where the table is inconsistent with the body text (the inter-clique
// delta_m; see sorn_delta_m_inter_text vs sorn_delta_m_inter_table and
// EXPERIMENTS.md).
#pragma once

#include <string>
#include <vector>

#include "util/types.h"

namespace sorn {
namespace analysis {

// ---- SORN closed forms (Sec. 4) ----

// The one cap on q*: as x -> 1 the optimum diverges, but a very large q
// starves inter-clique bandwidth for no throughput gain and stretches the
// schedule period with it. q* reaches the cap for x > 0.96875.
constexpr double kMaxSornQ = 64.0;

// Optimal oversubscription ratio q* = 2/(1-x), capped at kMaxSornQ (the
// +inf at x == 1 included).
double sorn_optimal_q(double x);

// Worst-case throughput with the optimal q: r = 1/(3-x).
double sorn_throughput(double x);

// Worst-case throughput at an arbitrary q >= 1:
// r = min(q/(2q+2), 1/((1-x)(q+1))); the second bound vanishes at x == 1.
double sorn_throughput_at_q(double x, double q);

// Average hops under locality x: 2x + 3(1-x) = 3-x. Equals 1/r at q*.
double sorn_mean_hops(double x);

// Intra-clique intrinsic latency: ceil((q+1)/q * (N/Nc - 1)).
double sorn_delta_m_intra(NodeId n, CliqueId nc, double q);

// Inter-clique intrinsic latency, as defined in the paper's body text:
// (q+1)(Nc-1) + (q+1)/q * (N/Nc - 1).
double sorn_delta_m_inter_text(NodeId n, CliqueId nc, double q);

// Inter-clique intrinsic latency as actually used in Table 1:
// ceil(q(Nc-1)) + ceil((q+1)/q * (N/Nc - 1)). Matches rows 364 (Nc=64)
// and 296 (Nc=32) at N=4096, x=0.56.
double sorn_delta_m_inter_table(NodeId n, CliqueId nc, double q);

// ---- Oblivious baselines ----

// 1D ORN (flat round robin, Sirius/RotorNet/Shoal): delta_m = N-1,
// 2 hops, throughput 1/2.
double orn1d_delta_m(NodeId n);

// h-dimensional optimal ORN: delta_m = 2h(N^{1/h} - 1), 2h hops,
// throughput 1/(2h).
double orn_hd_delta_m(NodeId n, int h);
double orn_hd_throughput(int h);

// Opera, with the paper's Table 1 parameterization (90 us slots, 1/4 of
// uplinks reconfiguring, expander short-flow paths of <= 4 hops):
// short flows see delta_m = 0 (paths always up); bulk waits the rotation,
// delta_m = N-1. Throughput 31.25% as reported by the paper.
constexpr double kOperaThroughput = 0.3125;
constexpr int kOperaShortHops = 4;
constexpr int kOperaBulkHops = 2;

// ---- Latency composition ----

// delta_m / uplinks * slot_ns + hops * propagation_ns, in microseconds.
double min_latency_us(double delta_m, int uplinks, double slot_ns, int hops,
                      double propagation_ns);

// ---- Two-level hierarchical SORN (Sec. 6 extension) ----
//
// With pod-locality x1, cluster-locality x2 (and x3 = 1 - x1 - x2 crossing
// clusters), every path makes 2 intra-pod hops, cluster and global traffic
// make 1 inter-pod hop, and global traffic makes 1 cluster hop. Equating
// link-class utilizations (the same argument as the flat q* derivation)
// gives optimal slot shares intra : inter : global = 2 : (x2 + x3) : x3
// and throughput r = 1 / (2 + x2 + 2*x3). At x3 = 0 this degenerates to
// the paper's flat result r = 1/(3 - x1).

double hier_throughput(double x1, double x2);

// Integer slot shares approximating the optimal ratio (scaled and
// rounded; zero shares stay zero so degenerate levels drop out).
struct HierSharesApprox {
  std::int64_t intra = 0;
  std::int64_t inter = 0;
  std::int64_t global = 0;
};
HierSharesApprox hier_optimal_shares(double x1, double x2, int scale = 12);

// Intrinsic latencies (circuits to cycle through) per traffic class, for
// pods of size s, p pods per cluster, nc clusters, given slot shares.
double hier_delta_m_pod(NodeId pod_size, const HierSharesApprox& shares);
double hier_delta_m_cluster(NodeId pod_size, CliqueId pods_per_cluster,
                            const HierSharesApprox& shares);
double hier_delta_m_global(NodeId pod_size, CliqueId pods_per_cluster,
                           CliqueId clusters, const HierSharesApprox& shares);

// ---- Synchronization overhead (Sec. 6, "Practicality benefits") ----
//
// Slot-synchronous fabrics need a guard interval per slot to absorb clock
// skew; skew grows with the diameter of the synchronization domain.
// "Modularity can also relax time-synchronization requirements ... reducing
// the diameter of an individual synchronization domain."

// Guard time needed for a synchronization domain of `domain_nodes` nodes:
// base skew plus a per-doubling term (tree-distribution model, skew
// accumulates per hop of the clock tree: guard = base + per_level * log2).
double sync_guard_ns(double base_guard_ns, double per_level_guard_ns,
                     NodeId domain_nodes);

// Fraction of each slot carrying payload under a guard interval.
double slot_efficiency(double slot_ns, double guard_ns);

// ---- Table 1 ----

struct DeploymentParams {
  NodeId nodes = 4096;
  int uplinks = 16;
  double slot_ns = 100.0;
  double propagation_ns = 500.0;
  double locality_x = 0.56;       // median locality ratio from [23]
  double short_flow_share = 0.75;  // median short-flow traffic share, [23]
  double opera_slot_ns = 90000.0;  // Opera needs 90 us slots [18]
};

struct SystemPoint {
  std::string system;
  std::string traffic_class;  // empty when a single row describes all traffic
  int max_hops = 0;
  double delta_m = 0.0;
  double min_latency_us = 0.0;
  double throughput = 0.0;  // 0 on rows sharing the system-level figure
  double bw_cost = 0.0;
};

// The rows of Table 1, in the paper's order: Optimal ORN 1D (Sirius),
// Opera short/bulk, Optimal ORN 2D, SORN Nc=64 intra/inter,
// SORN Nc=32 intra/inter.
std::vector<SystemPoint> table1(const DeploymentParams& params);

}  // namespace analysis
}  // namespace sorn
