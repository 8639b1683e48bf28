// Quickstart: the paper's 8-node example (Fig. 2), end to end.
//
//   1. Build a SORN with two cliques of four and oversubscription q = 3 —
//      topology A of Fig. 2(d).
//   2. Inspect the schedule and the logical topology it emulates.
//   3. Route a few cells (including the paper's 0 -> 6 example).
//   4. Run the slot-level simulator and read latency metrics.
#include <cstdio>

#include "analysis/models.h"
#include "scenario/design.h"
#include "scenario/scenario_config.h"
#include "sim/network.h"
#include "topo/logical_topology.h"
#include "util/table.h"

int main() {
  using namespace sorn;

  // 1. Build through the design registry (the one path every tool uses).
  ScenarioConfig config;
  config.nodes = 8;
  config.cliques = 2;
  config.locality_x = 0.5;
  config.q_num = 3;  // topology A: intra gets 3x inter bandwidth
  BuiltDesign net;
  std::string error;
  if (!DesignRegistry::instance().build("sorn", config, &net, &error)) {
    std::fprintf(stderr, "%s\n", error.c_str());
    return 1;
  }
  const Rational q = config.sorn_q();

  std::printf("SORN quickstart: %d nodes, %d cliques, q = %lld/%lld\n\n",
              config.nodes, config.cliques, static_cast<long long>(q.num),
              static_cast<long long>(q.den));

  // 2. The circuit schedule (one period).
  const CircuitSchedule& sched = *net.schedule;
  std::printf("schedule period: %lld slots (intra share %.0f%%)\n",
              static_cast<long long>(sched.period()),
              sched.kind_fraction(SlotKind::kIntra) * 100.0);
  TablePrinter grid({"slot", "kind", "0", "1", "2", "3", "4", "5", "6", "7"});
  for (Slot t = 0; t < sched.period(); ++t) {
    std::vector<std::string> row{
        format("%lld", static_cast<long long>(t)),
        sched.kind_at(t) == SlotKind::kIntra ? "intra" : "inter"};
    for (NodeId i = 0; i < 8; ++i)
      row.push_back(format("%d", sched.dst_of(i, t)));
    grid.add_row(std::move(row));
  }
  grid.print();

  // Virtual-edge bandwidth (Fig. 2d: intra edges 3x the inter edges).
  const LogicalTopology topo(sched);
  std::printf(
      "\nvirtual edge bandwidth (fraction of node bandwidth):\n"
      "  0 -> 1 (intra): %.3f\n"
      "  0 -> 4 (inter): %.3f\n"
      "  node 0 intra total: %.2f, inter total: %.2f\n",
      topo.edge_fraction(0, 1), topo.edge_fraction(0, 4),
      topo.intra_fraction(0, *net.cliques),
      topo.inter_fraction(0, *net.cliques));

  // 3. Routing: intra is 2 hops, inter is 3 (paper: 0->3->7->6 and
  // 0->1->4->6 are both possible for 0 -> 6).
  Rng rng(1);
  std::printf("\nsample routes:\n");
  for (int k = 0; k < 4; ++k) {
    const Path p = net.router->route(0, 6, k, rng);
    std::string s = "  0 -> 6 via";
    for (int h = 0; h < p.size(); ++h) s += format(" %d", p.at(h));
    std::printf("%s\n", s.c_str());
  }

  // 4. Simulate.
  NetworkConfig sim_config;
  sim_config.propagation_per_hop = 0;
  SlottedNetwork sim(net.schedule, net.router, sim_config);
  sim.inject_flow(/*flow=*/1, /*src=*/0, /*dst=*/3, /*bytes=*/2048);  // intra
  sim.inject_flow(/*flow=*/2, /*src=*/0, /*dst=*/6, /*bytes=*/2048);  // inter
  sim.run(200);
  std::printf(
      "\nsimulated: %llu cells delivered, mean hops %.2f, "
      "median cell latency %.0f ns, flows completed %llu\n",
      static_cast<unsigned long long>(sim.metrics().delivered_cells()),
      sim.metrics().mean_hops(),
      sim.metrics().cell_latency_ps().percentile(50.0) / 1e3,
      static_cast<unsigned long long>(sim.metrics().completed_flows()));

  // Closed-form predictions for this configuration.
  std::printf(
      "\npredicted (closed form): throughput %.1f%%, delta_m intra %.0f, "
      "inter %.0f\n",
      net.predicted_throughput * 100.0,
      analysis::sorn_delta_m_intra(config.nodes, config.cliques, q.value()),
      analysis::sorn_delta_m_inter_table(config.nodes, config.cliques,
                                         q.value()));
  return 0;
}
