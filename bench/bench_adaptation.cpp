// Sec. 5 experiment: periodic adaptation to macro-pattern shifts.
//
// A 64-node fabric carries traffic that is local (x = 0.7) under the
// *current* job placement. Mid-run the scheduler migrates jobs
// (placement shuffle) — which machines are co-located changes, so the
// macro pattern the old cliques were built for is gone. The control plane
// detects the shift from clique-level aggregates and swaps the schedule.
//
// The fabrics come from the scenario layer: the SORN is built through a
// ScenarioRunner with the control plane's clique assignment as an
// override, and every plan the control plane stages is swapped into it by
// ControlPlane::tick, as in a scenario with a control loop. The flat 1D
// ORN baseline is the registry's "vlb" design driven through a full
// saturation scenario.
//
// Reported: saturation throughput in each phase, plus the flat baseline.
// Per the paper, the flat ORN's 50% is the throughput ceiling — SORN's
// win is holding ~1/(3-x) with an intrinsic latency an order of magnitude
// lower (delta_m printed at the end), and adaptation is what keeps it
// there across shifts.
// With `--json <file>` the table is also written machine-readably; with
// `--trace <file.jsonl>` the control plane's replan decisions (with
// trigger reasons) and the network's reconfigure events are traced.
#include <cstdio>
#include <memory>
#include <string>

#include "analysis/models.h"
#include "control/control_plane.h"
#include "obs/export.h"
#include "scenario/scenario_runner.h"
#include "sim/saturation.h"
#include "sim/telemetry.h"
#include "traffic/patterns.h"
#include "traffic/trace.h"
#include "util/args.h"
#include "util/table.h"

namespace {

constexpr sorn::NodeId kNodes = 64;
constexpr double kLocality = 0.7;

double sat_throughput(sorn::SlottedNetwork& net,
                      const sorn::TrafficMatrix& tm) {
  sorn::SaturationSource source(&tm, sorn::SaturationConfig{});
  // Long warmup: after a swap, backlog routed under the previous schedule
  // must drain before the steady state is visible.
  return source.measure(net, 25000, 10000);
}

}  // namespace

int main(int argc, char** argv) {
  using namespace sorn;
  ArgParser args(argc, argv);
  const std::string json_path = args.get_string("--json", "");
  const std::string trace_path = args.get_string("--trace", "");
  args.finish();
  Telemetry telemetry;
  std::unique_ptr<FileTraceSink> trace_sink;
  if (!trace_path.empty()) {
    trace_sink = std::make_unique<FileTraceSink>(trace_path);
    if (!trace_sink->ok()) {
      std::fprintf(stderr, "cannot open %s\n", trace_path.c_str());
      return 1;
    }
    telemetry.set_trace_sink(trace_sink.get());
  }

  SyntheticTrace::Config tcfg;
  tcfg.nodes = kNodes;
  tcfg.group_size = 8;
  tcfg.burst_sigma = 0.4;
  tcfg.seed = 2024;
  SyntheticTrace trace(tcfg);

  ControlPlane::Options opts;
  opts.optimizer.candidate_nc = {8};
  opts.optimizer.max_q_denominator = 6;
  opts.replan_threshold = 0.3;
  ControlPlane cp(kNodes, opts);
  cp.set_tracer(&telemetry.tracer());

  // The demand the fabric must carry: locality-mix over the current
  // ground-truth placement (the paper's analysis workload). The control
  // plane only ever sees noisy epoch observations of it.
  auto current_demand = [&] {
    return patterns::locality_mix(trace.ground_truth_cliques(), kLocality);
  };
  auto observe_epochs = [&](int count) {
    bool replanned = false;
    for (int e = 0; e < count; ++e) {
      TrafficMatrix obs = current_demand();
      // Epoch-level burst noise on top of the macro pattern.
      Rng noise(1000 + static_cast<std::uint64_t>(e));
      for (NodeId i = 0; i < kNodes; ++i)
        for (NodeId j = 0; j < kNodes; ++j)
          if (i != j)
            obs.set(i, j, obs.at(i, j) * (0.5 + noise.next_double()));
      replanned |= cp.on_epoch(obs, 0);
    }
    return replanned;
  };

  observe_epochs(3);
  ScenarioConfig scfg;
  scfg.design = "sorn";
  scfg.nodes = kNodes;
  scfg.propagation_ns = 0;
  scfg.overrides.cliques = &cp.last_plan().cliques;
  std::string error;
  auto runner = ScenarioRunner::create(scfg, &error);
  if (runner == nullptr) {
    std::fprintf(stderr, "scenario failed: %s\n", error.c_str());
    return 1;
  }
  SlottedNetwork& sim = runner->network();
  // Install the staged plan (its q as well as its cliques).
  cp.tick(sim, sim.now());
  sim.add_observer(&telemetry);
  const auto locality = [&cp](const TrafficMatrix& tm) {
    return format("%.3f", tm.locality_ratio(*cp.reconfig().cliques()));
  };

  TablePrinter table({"Phase", "locality under plan", "throughput r"});

  const TrafficMatrix before = current_demand();
  table.add_row({"matched (pre-shift)", locality(before),
                 format("%.4f", sat_throughput(sim, before))});

  // The shift: jobs migrate; co-location changes entirely.
  trace.shuffle_placement();
  const TrafficMatrix after = current_demand();
  table.add_row({"shifted, not adapted", locality(after),
                 format("%.4f", sat_throughput(sim, after))});

  const bool replanned = observe_epochs(3);
  std::printf("control plane re-planned after shift: %s (replans=%llu)\n\n",
              replanned ? "yes" : "no",
              static_cast<unsigned long long>(cp.replans()));
  cp.tick(sim, sim.now());
  table.add_row({"shifted, adapted", locality(after),
                 format("%.4f", sat_throughput(sim, after))});

  // Flat 1D ORN baseline, driven end to end through the scenario layer.
  ScenarioConfig fcfg;
  fcfg.design = "vlb";
  fcfg.nodes = kNodes;
  fcfg.propagation_ns = 0;
  fcfg.workload = WorkloadKind::kSaturation;
  fcfg.warmup_slots = 25000;
  fcfg.measure_slots = 10000;
  fcfg.overrides.traffic = &after;
  auto flat = ScenarioRunner::create(fcfg, &error);
  if (flat == nullptr || !flat->run(&error)) {
    std::fprintf(stderr, "scenario failed: %s\n", error.c_str());
    return 1;
  }
  table.add_row({"1D ORN baseline (oblivious)", "-",
                 format("%.4f", flat->saturation_r())});

  table.print();
  if (!json_path.empty()) {
    const std::string doc =
        "{\"bench\": \"bench_adaptation\", \"rows\": " + table.to_json() +
        "}\n";
    if (!write_text_file(json_path, doc)) {
      std::fprintf(stderr, "cannot write %s\n", json_path.c_str());
      return 1;
    }
    std::printf("\nwrote %s\n", json_path.c_str());
  }
  if (!trace_path.empty())
    std::printf("\nwrote event trace %s\n", trace_path.c_str());
  std::printf(
      "\nShape check: the shift collapses the locality the plan assumed and\n"
      "throughput drops toward the 1/((1-x)(q+1)) inter-link bound;\n"
      "adaptation restores r to ~1/(3-x) = %.3f. The 1D ORN holds 0.5 but\n"
      "pays delta_m = %d circuits vs SORN's intra %.0f (theory: %.3f).\n",
      analysis::sorn_throughput(kLocality), kNodes - 1,
      cp.last_plan().predicted_delta_m_intra,
      analysis::sorn_throughput(kLocality));
  return 0;
}
