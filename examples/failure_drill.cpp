// Failure drill (paper Sec. 6, "Practicality benefits"): inject a link
// failure and a node failure into a running SORN and watch containment —
// which traffic stalls, what keeps flowing, and how healing drains the
// backlog. Demonstrates the modular design's small blast radius and ease
// of diagnosis.
#include <cstdio>

#include "control/reconfig.h"
#include "util/table.h"

namespace {

using namespace sorn;

constexpr NodeId kNodes = 32;
constexpr CliqueId kCliques = 4;

struct Probe {
  const char* name;
  NodeId src;
  NodeId dst;
};

// One probe flow per traffic relationship we care about.
constexpr Probe kProbes[] = {
    {"intra clique 0", 0, 5},
    {"clique 0 -> clique 1", 2, 10},
    {"clique 1 -> clique 0", 9, 3},
    {"clique 2 -> clique 3", 17, 28},
};

void run_probes(SlottedNetwork& net, TablePrinter& table, const char* phase) {
  net.reset_metrics();
  FlowId id = 1;
  for (const Probe& p : kProbes) {
    net.inject_flow(id, p.src, p.dst, 4 * 256, static_cast<int>(id));
    ++id;
  }
  net.run(3000);
  std::vector<std::string> row{phase};
  // Completed probes, in order.
  std::uint64_t done = net.metrics().completed_flows();
  row.push_back(format("%llu/4", static_cast<unsigned long long>(done)));
  row.push_back(format("%llu", static_cast<unsigned long long>(
                                   net.cells_in_flight())));
  table.add_row(std::move(row));
}

}  // namespace

int main() {
  const SornFabric net = build_sorn_fabric(
      CliqueAssignment::contiguous(kNodes, kCliques), optimal_q(0.6, 12));
  NetworkConfig sim_config;
  sim_config.propagation_per_hop = 0;
  SlottedNetwork sim(net.schedule.get(), net.router.get(), sim_config);

  std::printf(
      "Failure drill: %d nodes, %d cliques. Probes: intra c0, c0->c1, "
      "c1->c0, c2->c3.\n\n",
      kNodes, kCliques);
  TablePrinter table({"phase", "probes completed", "cells stuck"});

  run_probes(sim, table, "healthy");

  // Fail every circuit from clique 0 into clique 1 (an inter-trunk cut).
  for (NodeId a = 0; a < 8; ++a)
    for (NodeId b = 8; b < 16; ++b) sim.fail_circuit(a, b);
  run_probes(sim, table, "c0->c1 trunk cut");

  // Heal, then fail one node in clique 2.
  for (NodeId a = 0; a < 8; ++a)
    for (NodeId b = 8; b < 16; ++b) sim.heal_circuit(a, b);
  sim.run(3000);  // drain the stuck probe
  sim.fail_node(17);
  run_probes(sim, table, "node 17 down");

  sim.heal_node(17);
  run_probes(sim, table, "healed");

  table.print();
  std::printf(
      "\nDiagnosis is immediate in a modular fabric: the trunk cut stalls\n"
      "exactly the c0->c1 probe (c1->c0 and everything else keep flowing);\n"
      "a node failure stalls only flows sourced at, destined to, or\n"
      "load-balanced through that node's clique paths. Healing drains the\n"
      "backlog without intervention because cells wait rather than drop.\n");
  return 0;
}
