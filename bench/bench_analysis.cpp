// The paper's analytic numbers, closed forms and exact enumerations, as
// one set of tables: Table 1, Fig. 1 and the Sec. 2 cycle time, the Sec. 4
// latency scaling with the hierarchy's delta_m at N = 4096, the clique-
// count ablation, the Sec. 6 synchronization-domain argument and the Sec. 6
// failure blast radius. None of it is simulated, so the output is exact:
// it is committed as bench/bench_analysis.txt and CI diffs a fresh run
// against it. A change to analysis/models, or to the schedule and clique
// code the tables read, shows up as a changed line. Takes no flags.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <iterator>
#include <utility>
#include <vector>

#include "analysis/models.h"
#include "topo/clique.h"
#include "topo/schedule_builder.h"
#include "util/args.h"
#include "util/table.h"

namespace {

using namespace sorn;

// Table 1's deployment: u = 16, 100 ns slots, 500 ns per hop, x = 0.56.
const analysis::DeploymentParams kDeployment;

// Min latency in us of a design with this delta_m and hop count there.
double latency_us(double delta_m, int hops) {
  return analysis::min_latency_us(delta_m, kDeployment.uplinks,
                                  kDeployment.slot_ns, hops,
                                  kDeployment.propagation_ns);
}

// Nc ~ sqrt(N), rounded down to a power of two (which divides N here).
CliqueId sqrt_cliques(NodeId n) {
  CliqueId nc = 1;
  while (nc * 2 <= static_cast<CliqueId>(std::sqrt(n))) nc *= 2;
  return nc;
}

// Table 1: latency and throughput of the oblivious designs against SORN
// for a 4096-rack DCN (16 uplinks, 100 ns slots, 500 ns propagation per
// hop, x = 0.56, Opera at 90 us slots), beside the paper's printed values
// (EXPERIMENTS.md explains the two sub-percent rounding differences).
void table1() {
  const analysis::DeploymentParams& params = kDeployment;
  const auto rows = analysis::table1(params);
  // The paper's delta_m, latency and throughput, in the same row order.
  const char* const paper[][3] = {
      {"4095", "26.59", "50%"},    {"0", "2", "31.25%"},
      {"4095", "23034", "31.25%"}, {"252", "3.57", "25%"},
      {"77", "1.48", "40.98%"},    {"364", "3.77", "40.98%"},
      {"155", "1.97", "40.98%"},   {"296", "3.35", "40.98%"},
  };

  std::printf(
      "Table 1: latency/throughput comparison, %d-rack DCN "
      "(u=%d, slot=%.0fns, prop=%.0fns, x=%.2f)\n\n",
      params.nodes, params.uplinks, params.slot_ns, params.propagation_ns,
      params.locality_x);
  TablePrinter table({"System", "Traffic", "Max hops", "delta_m",
                      "Min latency (us)", "Thpt", "Norm BW cost",
                      "paper: dm", "paper: lat", "paper: thpt"});
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const auto& r = rows[i];
    table.add_row({r.system, r.traffic_class, format("%d", r.max_hops),
                   format("%.0f", r.delta_m),
                   format("%.2f", r.min_latency_us),
                   format("%.2f%%", r.throughput * 100.0),
                   format("%.2fx", r.bw_cost), paper[i][0], paper[i][1],
                   paper[i][2]});
  }
  table.print();
  std::printf(
      "\nKey shape checks:\n"
      "  SORN vs 1D ORN latency reduction (inter, Nc=64): %.1fx\n"
      "  SORN vs 2D ORN throughput gain:                  %.2fx\n"
      "  SORN throughput vs 1D ORN:                       %.2fx\n",
      rows[0].min_latency_us / rows[5].min_latency_us,
      rows[4].throughput / rows[3].throughput,
      rows[4].throughput / rows[0].throughput);
}

// Fig. 1 (the 5-node round-robin schedule) and the Sec. 2 argument: a flat
// round robin's cycle grows linearly with N, ~500 us at 10,000 nodes.
void fig1_and_cycle_time() {
  std::printf("Fig. 1: oblivious round-robin schedule for 5 nodes\n\n");
  const CircuitSchedule fig1 = ScheduleBuilder::round_robin(5);
  TablePrinter grid({"Time slot", "A", "B", "C", "D", "E"});
  for (Slot t = 0; t < fig1.period(); ++t) {
    std::vector<std::string> row{format("%lld", static_cast<long long>(t + 1))};
    for (NodeId i = 0; i < 5; ++i)
      row.push_back(std::string(1, static_cast<char>('A' + fig1.dst_of(i, t))));
    grid.add_row(std::move(row));
  }
  grid.print();

  std::printf(
      "\nSec. 2: round-robin cycle time vs network size "
      "(50 ns slots, single uplink)\n\n");
  TablePrinter scaling(
      {"Nodes", "Schedule length", "Cycle time (us)", "Cycle time (us), u=16"});
  for (const NodeId n : {100, 1000, 4096, 10000, 65536}) {
    const double delta_m = analysis::orn1d_delta_m(n);
    scaling.add_row(
        {format("%d", n), format("%.0f", delta_m),
         format("%.2f", analysis::min_latency_us(delta_m, 1, 50, 0, 0)),
         format("%.2f", analysis::min_latency_us(delta_m, 16, 50, 0, 0))});
  }
  scaling.print();
  std::printf(
      "\nShape check: 10,000 nodes x 50 ns => ~500 us per cycle "
      "(paper Sec. 2).\n");
}

// Sec. 4: SORN lowers latency by orders of magnitude against a flat 1D ORN
// at scale while keeping throughput near its 50%. Then, at N = 4096, the
// two-level hierarchy (Sec. 6) against flat SORN at pod granularity.
void latency_scaling() {
  const analysis::DeploymentParams& base = kDeployment;
  const double x = base.locality_x;
  const double q = analysis::sorn_optimal_q(x);

  std::printf(
      "Latency scaling with network size (u=%d, slot=%.0fns, "
      "prop=%.0fns, x=%.2f)\n\n",
      base.uplinks, base.slot_ns, base.propagation_ns, x);
  TablePrinter table({"N", "1D ORN (us)", "2D ORN (us)", "3D ORN (us)",
                      "SORN intra (us)", "SORN inter (us)", "SORN Nc"});
  for (const NodeId n : {256, 1024, 4096, 16384, 65536}) {
    const CliqueId nc = sqrt_cliques(n);
    table.add_row(
        {format("%d", n),
         format("%.2f", latency_us(analysis::orn1d_delta_m(n), 2)),
         format("%.2f", latency_us(analysis::orn_hd_delta_m(n, 2), 4)),
         format("%.2f", latency_us(analysis::orn_hd_delta_m(n, 3), 6)),
         format("%.2f", latency_us(analysis::sorn_delta_m_intra(n, nc, q), 2)),
         format("%.2f",
                latency_us(analysis::sorn_delta_m_inter_table(n, nc, q), 3)),
         format("%d", nc)});
  }
  table.print();
  std::printf(
      "\nWorst-case throughput: 1D = 50%%, 2D = 25%%, 3D = 16.7%%, "
      "SORN(x=%.2f) = %.2f%%\n"
      "Shape check: SORN tracks the 2D ORN's latency scaling while keeping\n"
      "throughput near the 1D ORN's (paper Sec. 4, Table 1 discussion).\n",
      x, analysis::sorn_throughput(x) * 100.0);

  // 16 clusters of 16 pods of 16 nodes. The hierarchy trades some
  // throughput on cluster-crossing traffic (experiments/hierarchy.json)
  // for latency: waits split across a pod-level and a cluster-level round
  // robin instead of one robin over all pods.
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
}

// Sec. 4's design choice: more cliques Nc lower local latency and raise
// latency across cliques (N = 4096, x = 0.56, q = q*).
void clique_count_ablation() {
  const analysis::DeploymentParams& base = kDeployment;
  const NodeId n = base.nodes;
  const double x = base.locality_x;
  const double q = analysis::sorn_optimal_q(x);

  std::printf(
      "Ablation: clique count Nc at N=%d, x=%.2f, q=%.3f "
      "(u=%d, slot=%.0fns, prop=%.0fns)\n\n",
      n, x, q, base.uplinks, base.slot_ns, base.propagation_ns);
  TablePrinter table({"Nc", "clique size", "dm intra", "dm inter",
                      "lat intra (us)", "lat inter (us)", "mean lat (us)"});
  for (const CliqueId nc : {4, 8, 16, 32, 64, 128, 256, 512}) {
    const double dmi = analysis::sorn_delta_m_intra(n, nc, q);
    const double dme = analysis::sorn_delta_m_inter_table(n, nc, q);
    const double li = latency_us(dmi, 2);
    const double le = latency_us(dme, 3);
    table.add_row({format("%d", nc), format("%d", n / nc),
                   format("%.0f", dmi), format("%.0f", dme),
                   format("%.2f", li), format("%.2f", le),
                   format("%.2f", x * li + (1.0 - x) * le)});
  }
  table.print();
  std::printf(
      "\nShape check: intra latency falls and inter latency rises with Nc;\n"
      "the locality-weighted mean has an interior optimum (Table 1 uses\n"
      "Nc = 64 and Nc = 32). Throughput is Nc-independent at %.2f%%.\n",
      analysis::sorn_throughput(x) * 100.0);
}

// Sec. 6: a flat fabric synchronizes all N nodes in one domain; SORN
// synchronizes each clique (intra slots) and a clique-level domain (inter
// slots). Guard time grows with the domain, so SORN keeps more of each
// slot.
void sync_overhead() {
  // Guard model: 5 ns base skew, +3 ns per doubling of the sync domain.
  const double base_ns = 5.0;
  const double per_level_ns = 3.0;
  const double x = 0.56;
  const double q = analysis::sorn_optimal_q(x);
  const double intra_share = q / (q + 1.0);

  std::printf(
      "Synchronization-overhead ablation (guard = %.0f ns + %.0f ns/log2 "
      "domain; x=%.2f)\n\n",
      base_ns, per_level_ns, x);
  for (const double slot_ns : {50.0, 100.0}) {
    std::printf("slot = %.0f ns:\n", slot_ns);
    TablePrinter table({"N", "flat guard (ns)", "flat eff.",
                        "SORN intra guard (ns)", "SORN weighted eff.",
                        "flat r x eff.", "SORN r x eff."});
    for (const NodeId n : {256, 1024, 4096, 16384, 65536}) {
      const CliqueId nc = sqrt_cliques(n);
      const double flat_guard =
          analysis::sync_guard_ns(base_ns, per_level_ns, n);
      const double intra_guard =
          analysis::sync_guard_ns(base_ns, per_level_ns, n / nc);
      const double inter_guard =
          analysis::sync_guard_ns(base_ns, per_level_ns, nc);
      const double flat_eff = analysis::slot_efficiency(slot_ns, flat_guard);
      const double sorn_eff =
          intra_share * analysis::slot_efficiency(slot_ns, intra_guard) +
          (1.0 - intra_share) * analysis::slot_efficiency(slot_ns, inter_guard);
      table.add_row(
          {format("%d", n), format("%.0f", flat_guard),
           format("%.3f", flat_eff), format("%.0f", intra_guard),
           format("%.3f", sorn_eff), format("%.3f", 0.5 * flat_eff),
           format("%.3f", analysis::sorn_throughput(x) * sorn_eff)});
    }
    table.print();
    std::printf("\n");
  }
  std::printf(
      "Shape check: the flat design's guard grows with log2(N) while\n"
      "SORN's dominant (intra) domain stays clique-sized; at small slots\n"
      "the guard erodes the flat design's 50%% headline faster than\n"
      "SORN's 1/(3-x).\n");
}

// Sec. 6: a failure's blast radius, by enumerating each design's path set.
// blast(e) of a directed link e is the fraction of src-dst pairs with at
// least one possible path through e. Flat 1D ORN + VLB routes s -> m -> d
// for every m, so link (a, b) serves every pair with s == a or d == b.
// In SORN an intra-clique link (a, b) carries load-balancing hops of flows
// from a and delivery hops of flows to b; an inter-clique link carries
// only flows from clique(a) to clique(b).
void blast_radius() {
  constexpr NodeId kNodes = 64;
  constexpr CliqueId kCliques = 8;
  const auto cliques = CliqueAssignment::contiguous(kNodes, kCliques);
  std::vector<std::pair<NodeId, NodeId>> all_links, intra_links, inter_links;
  for (NodeId a = 0; a < kNodes; ++a) {
    for (NodeId b = 0; b < kNodes; ++b) {
      if (a == b) continue;
      all_links.emplace_back(a, b);
      (cliques.same_clique(a, b) ? intra_links : inter_links)
          .emplace_back(a, b);
    }
  }

  struct Blast {
    double mean = 0.0;  // over the links of the class
    double max = 0.0;
    int links = 0;
  };
  // O(N^4) checks of possible(s, d, a, b), 16.7M at N = 64.
  const auto enumerate = [](auto possible, const auto& links) {
    const double total_pairs = static_cast<double>(kNodes) * (kNodes - 1);
    Blast blast;
    for (const auto& [a, b] : links) {
      int pairs = 0;
      for (NodeId s = 0; s < kNodes; ++s)
        for (NodeId d = 0; d < kNodes; ++d)
          if (s != d && possible(s, d, a, b)) ++pairs;
      const double frac = pairs / total_pairs;
      blast.mean += frac;
      blast.max = std::max(blast.max, frac);
      ++blast.links;
    }
    if (blast.links > 0) blast.mean /= blast.links;
    return blast;
  };
  const auto vlb_possible = [](NodeId s, NodeId d, NodeId a, NodeId b) {
    return (s == a && d != a) || (d == b && s != b) || (s == a && d == b);
  };
  // Intra pair: s -> m -> d with m in clique(s). Inter pair: s -> lb ->
  // landing -> d with lb in clique(s) and landing in clique(d).
  const auto sorn_possible = [&cliques](NodeId s, NodeId d, NodeId a,
                                        NodeId b) {
    const bool link_intra = cliques.same_clique(a, b);
    if (cliques.same_clique(s, d)) {
      if (!link_intra || !cliques.same_clique(s, a)) return false;
      return s == a || d == b;
    }
    if (link_intra)
      return (s == a && cliques.same_clique(s, a)) ||
             (d == b && cliques.same_clique(d, b));
    return cliques.clique_of(s) == cliques.clique_of(a) &&
           cliques.clique_of(d) == cliques.clique_of(b);
  };

  std::printf(
      "Failure blast radius, exact path-set enumeration "
      "(%d nodes, %d cliques)\n\n",
      kNodes, kCliques);
  TablePrinter table({"Design", "link class", "links", "mean blast",
                      "max blast"});
  const auto add = [&table](const char* design, const char* links,
                            const Blast& b) {
    table.add_row({design, links, format("%d", b.links),
                   format("%.4f", b.mean), format("%.4f", b.max)});
  };
  const Blast flat = enumerate(vlb_possible, all_links);
  const Blast sorn_all = enumerate(sorn_possible, all_links);
  add("Flat 1D ORN + VLB", "all", flat);
  add("SORN", "all", sorn_all);
  add("SORN", "intra-clique", enumerate(sorn_possible, intra_links));
  add("SORN", "inter-clique", enumerate(sorn_possible, inter_links));
  table.print();
  std::printf(
      "\nExpected pairs affected by one random link failure: flat %.1f, "
      "SORN %.1f (%.2fx lower).\n"
      "Beyond the mean: in the flat design *any* link can affect *any*\n"
      "pair touching its endpoints; in SORN an inter-clique link failure\n"
      "affects exactly the clique(a)->clique(b) pairs — identifiable\n"
      "immediately, which is the ease-of-diagnosis argument of Sec. 6.\n",
      flat.mean * kNodes * (kNodes - 1), sorn_all.mean * kNodes * (kNodes - 1),
      flat.mean / sorn_all.mean);
}

}  // namespace

int main(int argc, char** argv) {
  sorn::ArgParser(argc, argv).finish();
  void (*const sections[])() = {table1,          fig1_and_cycle_time,
                                latency_scaling, clique_count_ablation,
                                sync_overhead,   blast_radius};
  for (std::size_t i = 0; i < std::size(sections); ++i) {
    if (i > 0) std::printf("\n");
    sections[i]();
  }
  return 0;
}
