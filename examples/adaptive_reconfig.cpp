// Demonstrates the full semi-oblivious control loop (paper Sec. 5): a
// running network observed over measurement epochs, a macro-pattern shift
// mid-run, change detection, and an epoch-synchronous schedule swap with
// in-flight traffic preserved.
#include <cstdio>

#include "control/control_plane.h"
#include "sim/saturation.h"
#include "traffic/patterns.h"
#include "traffic/trace.h"
#include "util/table.h"

int main() {
  using namespace sorn;
  constexpr NodeId kNodes = 64;
  constexpr Slot kEpochSlots = 4000;

  SyntheticTrace::Config tcfg;
  tcfg.nodes = kNodes;
  tcfg.group_size = 8;
  tcfg.burst_sigma = 0.4;
  tcfg.seed = 31;
  SyntheticTrace trace(tcfg);

  // Bootstrap network: flat SORN (singleton cliques) until the control
  // plane has learned something. Every swap builds its fabric the same
  // way (build_sorn_fabric).
  const SornFabric flat = build_sorn_fabric(
      CliqueAssignment::contiguous(kNodes, kNodes), optimal_q(0.5, 12));
  NetworkConfig sim_config;
  sim_config.propagation_per_hop = 0;
  SlottedNetwork sim(flat.schedule.get(), flat.router.get(), sim_config);

  ControlPlane::Options opts;
  opts.optimizer.candidate_nc = {4, 8};
  opts.optimizer.max_q_denominator = 6;
  opts.replan_threshold = 0.3;
  opts.reconfig.update_delay_slots = 100;  // control-plane push latency
  opts.reconfig.track_nic_rollout = true;  // model Fig. 2(c) table updates
  ControlPlane cp(kNodes, opts);

  TablePrinter timeline({"epoch", "event", "plan Nc", "plan locality",
                         "measured r"});

  for (int epoch = 0; epoch < 10; ++epoch) {
    if (epoch == 5) {
      trace.shuffle_placement();  // jobs migrate: co-location changes
    }
    const TrafficMatrix observed = trace.epoch_matrix();
    const bool replanned = cp.on_epoch(observed, sim.now());

    // Drive one epoch of saturated traffic, ticking the reconfig manager.
    // Demand follows the paper's analysis model: locality x = 0.7 under
    // the *current* placement.
    const TrafficMatrix demand =
        patterns::locality_mix(trace.ground_truth_cliques(), 0.7);
    SaturationSource source(&demand, SaturationConfig{});
    sim.reset_metrics();
    for (Slot s = 0; s < kEpochSlots; ++s) {
      cp.tick(sim, sim.now());
      source.pump(sim);
      sim.step();
    }
    const double r = sim.metrics().delivered_per_slot(kNodes, 1);

    std::string event;
    if (epoch == 5) event = "WORKLOAD SHIFT";
    if (replanned) event += event.empty() ? "replanned" : " + replanned";
    if (event.empty()) event = "-";
    timeline.add_row(
        {format("%d", epoch), event,
         format("%d", cp.last_plan().cliques.clique_count()),
         format("%.3f", cp.last_plan().locality_x), format("%.4f", r)});
  }
  timeline.print();

  std::printf(
      "\nreplans: %llu, swaps applied: %llu\n",
      static_cast<unsigned long long>(cp.replans()),
      static_cast<unsigned long long>(cp.reconfig().swaps_applied()));
  if (cp.reconfig().last_rollout().has_value()) {
    const auto& rollout = *cp.reconfig().last_rollout();
    std::printf(
        "last NIC rollout: %zu nodes, %zu table entries staged, %zu drain\n"
        "neighbors (fixed superset => 0), synchronized flip after %.0f us.\n",
        rollout.nodes, rollout.total_entries, rollout.drain_neighbors_total,
        rollout.total_update_us);
  }
  std::printf(
      "The plan re-locks onto the shifted structure within an epoch or two;\n"
      "throughput dips while mismatched and recovers after the swap.\n");
  return 0;
}
