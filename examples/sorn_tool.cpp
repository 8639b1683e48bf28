// sorn_tool — command-line frontend to the library.
//
//   sorn_tool plan --matrix tm.csv [--nc 4,8,16] [--weighted]
//       Read a measured traffic matrix (CSV) and print the control
//       plane's plan: clique assignment quality, q*, predicted
//       throughput and intrinsic latency.
//
//   sorn_tool schedule --nodes 16 --cliques 4 --qnum 3 --qden 1
//       Print one period of the SORN circuit schedule (built by the sorn
//       design, so a bad flag exits 2 with the design's message).
//
//   sorn_tool designs
//       List the designs registered in the DesignRegistry.
//
//   sorn_tool simulate [--design sorn] [--scenario file.json]
//                      [--save-scenario out.json]
//                      [--nodes 64] [--cliques 8] [--locality 0.56]
//                      [--load 0.3] [--slots 30000] [--seed 42]
//                      [--trace run.jsonl] [--metrics-json run.json]
//                      [--timeseries-csv run.csv] [--sample-every 10]
//                      [--profile] [--profile-json profile.json]
//                      [--fault-script faults.txt]
//                      [--mtbf S --mttr S] [--circuit-mtbf S --circuit-mttr S]
//                      [--fault-seed 1]
//                      [--retransmit-timeout S] [--retransmit-max-attempts 8]
//       Run a workload on the chosen design and print throughput/FCT
//       metrics. --workload picks the traffic shape: open-loop pFabric
//       flows (the default), closed-loop saturation sources, or the burst
//       workloads (incast waves, allreduce collectives, oversubscribed
//       racks). --transport dctcp swaps open-loop injection for the
//       windowed end-host transport with ECN marking at --ecn-threshold
//       VOQ cells. --scenario loads a full ScenarioConfig
//       JSON first; explicit flags then override individual fields (each
//       flag accepts exactly what its JSON key accepts), and
//       --save-scenario writes the effective config back out (the
//       reproducible artifact). The telemetry flags additionally write a JSONL
//       event trace, a full-run JSON summary, and/or a per-slot
//       time-series CSV (decimated to every k-th slot). The fault flags inject a scripted
//       and/or stochastic (MTBF/MTTR, in slots) failure timeline; with
//       --retransmit-timeout, stalled flows re-admit their missing cells
//       with exponential backoff. Fault RNG is seeded, so a faulted run
//       reproduces byte for byte.
//
//   sorn_tool chaos [--seed 1] [--runs 1] [--nodes 32] [--slots 3000]
//                   [--json chaos.json]
//       Seeded randomized fault-soup runs (gray failures, controller
//       outages, safe mode) with invariants asserted every slot and a
//       run-to-run byte-equivalence cross-check. A failing seed prints
//       a one-line replay recipe; --json writes the campaign summary
//       (seeds passed, fault totals, or the failing seed and its replay).
//
//   sorn_tool sweep --experiment experiments/fig2f.json [--json rows.json]
//       Run a checked-in experiment (scenario/experiment.h): each point
//       through ScenarioRunner, one table row per point. Exits 1 naming
//       every value outside its expected band, 2 on a malformed file.
//
// Run without arguments for usage.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "analysis/models.h"
#include "control/control_faults.h"
#include "control/control_plane.h"
#include "control/hier_optimizer.h"
#include "control/optimizer.h"
#include "control/safe_mode.h"
#include "fault/fault_injector.h"
#include "obs/export.h"
#include "obs/timeseries.h"
#include "obs/json.h"
#include "scenario/chaos.h"
#include "scenario/experiment.h"
#include "scenario/scenario_runner.h"
#include "sim/telemetry.h"
#include "topo/schedule_builder.h"
#include "traffic/matrix_io.h"
#include "transport/transport.h"
#include "util/args.h"
#include "util/table.h"

namespace {

using namespace sorn;

// Upper bound for a flag read into a NodeId or CliqueId.
constexpr long kMaxInt = std::numeric_limits<std::int32_t>::max();

int cmd_plan(ArgParser& args) {
  const std::string matrix = args.get_string("--matrix", "");
  const std::vector<int> nc = args.get_int_list("--nc", {}, 1);
  const bool weighted = args.get_flag("--weighted");
  args.finish();
  if (matrix.empty()) {
    std::fprintf(stderr, "plan requires --matrix <file.csv>\n");
    return 2;
  }
  const auto tm = load_matrix_csv(matrix);
  if (!tm.has_value()) {
    std::fprintf(stderr, "could not read a traffic matrix from %s\n",
                 matrix.c_str());
    return 1;
  }
  SornOptimizer::Options opts;
  if (!nc.empty()) {
    opts.candidate_nc.clear();
    for (const int c : nc) {
      if (tm->node_count() % c != 0) {
        std::fprintf(stderr,
                     "plan: --nc %d must divide the matrix's %d nodes\n", c,
                     tm->node_count());
        return 2;
      }
      opts.candidate_nc.push_back(static_cast<CliqueId>(c));
    }
  }
  opts.weighted_inter = weighted;
  const SornOptimizer optimizer(opts);
  const SornPlan plan = optimizer.plan(*tm);

  std::printf("plan for %d nodes:\n", tm->node_count());
  std::printf("  cliques:            %d x %d nodes\n",
              plan.cliques.clique_count(),
              plan.cliques.clique_size(0));
  std::printf("  locality x:         %.4f\n", plan.locality_x);
  std::printf("  oversubscription q: %lld/%lld (%.3f)\n",
              static_cast<long long>(plan.q.num),
              static_cast<long long>(plan.q.den), plan.q.value());
  std::printf("  predicted r:        %.4f\n", plan.predicted_throughput);
  std::printf("  delta_m intra/inter: %.0f / %.0f circuits\n",
              plan.predicted_delta_m_intra, plan.predicted_delta_m_inter);
  std::printf("  weighted inter:     %s\n",
              plan.inter_weights.empty() ? "no (uniform)" : "yes (BvN)");
  std::printf("\nclique membership:\n");
  for (CliqueId c = 0; c < plan.cliques.clique_count(); ++c) {
    std::string line = format("  clique %2d:", c);
    for (const NodeId m : plan.cliques.members(c)) line += format(" %d", m);
    std::printf("%s\n", line.c_str());
  }
  return 0;
}

int cmd_hier_plan(ArgParser& args) {
  const std::string matrix = args.get_string("--matrix", "");
  HierOptimizer::Options opts;
  opts.clusters =
      static_cast<CliqueId>(args.get_long("--clusters", 4, 1, kMaxInt));
  opts.pods_per_cluster =
      static_cast<CliqueId>(args.get_long("--pods", 4, 1, kMaxInt));
  args.finish();
  if (matrix.empty()) {
    std::fprintf(stderr, "hier-plan requires --matrix <file.csv>\n");
    return 2;
  }
  const auto tm = load_matrix_csv(matrix);
  if (!tm.has_value()) {
    std::fprintf(stderr, "could not read a traffic matrix from %s\n",
                 matrix.c_str());
    return 1;
  }
  if (tm->node_count() % (static_cast<std::int64_t>(opts.clusters) *
                          opts.pods_per_cluster) != 0) {
    std::fprintf(stderr,
                 "hier-plan: --clusters %d x --pods %d must divide the "
                 "matrix's %d nodes\n",
                 opts.clusters, opts.pods_per_cluster, tm->node_count());
    return 2;
  }
  const HierOptimizer optimizer(opts);
  const HierPlan plan = optimizer.plan(*tm);
  std::printf("hierarchical plan for %d nodes:\n", tm->node_count());
  std::printf("  layout:           %d clusters x %d pods x %d nodes\n",
              plan.clusters, plan.pods_per_cluster,
              tm->node_count() / (plan.clusters * plan.pods_per_cluster));
  std::printf("  locality:         x1=%.4f (pod), x2=%.4f (cluster), "
              "x3=%.4f\n",
              plan.x1, plan.x2, 1.0 - plan.x1 - plan.x2);
  std::printf("  slot shares:      intra %lld : inter %lld : global %lld\n",
              static_cast<long long>(plan.shares.intra),
              static_cast<long long>(plan.shares.inter),
              static_cast<long long>(plan.shares.global));
  std::printf("  predicted r:      %.4f (1/(2+x2+2*x3))\n",
              plan.predicted_throughput);
  std::printf("\nnode -> hierarchy position:\n ");
  for (NodeId v = 0; v < tm->node_count(); ++v)
    std::printf(" %d->%d", v,
                plan.position_of_node[static_cast<std::size_t>(v)]);
  std::printf("\n");
  return 0;
}

int cmd_schedule(ArgParser& args) {
  ScenarioConfig cfg;
  cfg.nodes = static_cast<NodeId>(args.get_long("--nodes", 16, 2, kMaxInt));
  cfg.cliques =
      static_cast<CliqueId>(args.get_long("--cliques", 4, 1, kMaxInt));
  cfg.q_num = args.get_long("--qnum", 2, 1);
  cfg.q_den = args.get_long("--qden", 1, 1);
  args.finish();
  // The sorn design rejects what its builder would abort on (cliques that
  // do not divide the nodes, q < 1, a period past the cap).
  BuiltDesign design;
  std::string error;
  if (!cfg.validate(&error) ||
      !DesignRegistry::instance().build("sorn", cfg, &design, &error)) {
    std::fprintf(stderr,
                 "schedule --nodes %d --cliques %d --qnum %lld --qden %lld: "
                 "%s\n",
                 cfg.nodes, cfg.cliques, static_cast<long long>(cfg.q_num),
                 static_cast<long long>(cfg.q_den), error.c_str());
    return 2;
  }
  const NodeId nodes = cfg.nodes;
  const CircuitSchedule& sched = *design.schedule;
  std::printf("SORN schedule: %d nodes, %d cliques, q = %.3f, period %lld\n\n",
              nodes, cfg.cliques, cfg.sorn_q().value(),
              static_cast<long long>(sched.period()));
  std::vector<std::string> headers{"slot", "kind"};
  for (NodeId i = 0; i < nodes; ++i) headers.push_back(format("%d", i));
  TablePrinter table(std::move(headers));
  for (Slot t = 0; t < sched.period(); ++t) {
    std::vector<std::string> row{
        format("%lld", static_cast<long long>(t)),
        sched.kind_at(t) == SlotKind::kIntra ? "intra" : "inter"};
    for (NodeId i = 0; i < nodes; ++i)
      row.push_back(format("%d", sched.dst_of(i, t)));
    table.add_row(std::move(row));
  }
  table.print();
  return 0;
}

int cmd_designs(ArgParser& args) {
  args.finish();
  const DesignRegistry& registry = DesignRegistry::instance();
  TablePrinter table({"design", "description"});
  for (const std::string& name : registry.names())
    table.add_row({name, registry.find(name)->description()});
  table.print();
  return 0;
}

// Applies the scenario flags given on the command line on top of `cfg`
// (whatever --scenario loaded). A malformed or out-of-range value exits 2
// naming the flag.
void apply_scenario_flags(ArgParser& args, ScenarioConfig& cfg) {
  const auto given = [&args](const char* flag, bool takes_value) {
    if (takes_value) return args.get_optional(flag);
    return args.get_flag(flag) ? std::optional<std::string>("")
                               : std::nullopt;
  };
  std::string error;
  if (!cfg.apply_flags(given, &error)) {
    std::fprintf(stderr, "%s\n", error.c_str());
    std::exit(2);
  }
}

int cmd_simulate(ArgParser& args) {
  ScenarioConfig cfg;
  const std::string scenario_path = args.get_string("--scenario", "");
  if (!scenario_path.empty()) {
    std::string error;
    if (!ScenarioConfig::load_file(scenario_path, &cfg, &error)) {
      std::fprintf(stderr, "--scenario: %s\n", error.c_str());
      return 1;
    }
  }
  apply_scenario_flags(args, cfg);
  const std::string save_path = args.get_string("--save-scenario", "");
  args.finish();

  if (!save_path.empty() &&
      !write_text_file(save_path, cfg.to_json())) {
    std::fprintf(stderr, "cannot write %s\n", save_path.c_str());
    return 1;
  }

  std::string error;
  auto runner = ScenarioRunner::create(cfg, &error);
  if (runner == nullptr) {
    std::fprintf(stderr, "%s\n", error.c_str());
    return 1;
  }
  if (!runner->run(&error)) {
    std::fprintf(stderr, "%s\n", error.c_str());
    return 1;
  }

  const SimMetrics& metrics = runner->metrics();
  const SlottedNetwork& sim = runner->network();
  if (cfg.design == "sorn") {
    std::printf(
        "simulated %lld slots, %d nodes, %d cliques, x=%.2f, q=%.3f, "
        "load=%.2f\n",
        static_cast<long long>(metrics.slots_run()), cfg.nodes, cfg.cliques,
        cfg.locality_x, cfg.sorn_q().value(), cfg.load);
  } else {
    std::printf(
        "simulated %lld slots, design %s (%s), %d nodes, load=%.2f\n",
        static_cast<long long>(metrics.slots_run()), cfg.design.c_str(),
        runner->design().summary.c_str(), cfg.nodes, cfg.load);
  }
  if (workload_is_arrival_driven(cfg.workload)) {
    std::printf("  flows injected:   %llu (completed %llu)\n",
                static_cast<unsigned long long>(runner->flows_injected()),
                static_cast<unsigned long long>(metrics.completed_flows()));
  } else {
    std::printf("  saturation r:     %.4f (delivered per node-slot-lane)\n",
                runner->saturation_r());
  }
  std::printf("  cells delivered:  %llu (mean hops %.2f)\n",
              static_cast<unsigned long long>(metrics.delivered_cells()),
              metrics.mean_hops());
  std::printf("  cell latency p50: %.2f us, p99 %.2f us\n",
              metrics.cell_latency_ps().percentile(50.0) / 1e6,
              metrics.cell_latency_ps().percentile(99.0) / 1e6);
  if (workload_is_arrival_driven(cfg.workload)) {
    std::printf("  FCT p50:          %.2f us, p99 %.2f us\n",
                metrics.fct_ps().percentile(50.0) / 1e6,
                metrics.fct_ps().percentile(99.0) / 1e6);
  }
  if (const DctcpTransport* transport = runner->transport()) {
    const TransportStats tstats = transport->stats();
    std::printf(
        "  transport:        dctcp, %llu flows opened / %llu completed, "
        "%llu/%llu acks ECN-marked\n",
        static_cast<unsigned long long>(tstats.flows_opened),
        static_cast<unsigned long long>(tstats.flows_completed),
        static_cast<unsigned long long>(tstats.ecn_acked_cells),
        static_cast<unsigned long long>(tstats.acked_cells));
    std::printf("  cwnd (cells):     mean %.1f, min %.0f, max %.0f "
                "(%llu ECN marks applied)\n",
                tstats.cwnd_cells.mean(), tstats.cwnd_cells.min(),
                tstats.cwnd_cells.max(),
                static_cast<unsigned long long>(metrics.ecn_marked_cells()));
  }
  std::printf("  predicted r:      %.4f\n",
              runner->design().predicted_throughput);
  if (const FaultInjector* injector = runner->injector()) {
    std::printf(
        "  faults applied:   %llu (scripted %llu, stochastic %llu fail / "
        "%llu heal; first at slot %lld)\n",
        static_cast<unsigned long long>(injector->faults_applied()),
        static_cast<unsigned long long>(injector->scripted_applied()),
        static_cast<unsigned long long>(injector->stochastic_failures()),
        static_cast<unsigned long long>(injector->stochastic_heals()),
        static_cast<long long>(injector->first_fault_slot()));
    std::printf("  failed at end:    %llu nodes, %llu circuits\n",
                static_cast<unsigned long long>(
                    sim.failure_view().failed_node_count()),
                static_cast<unsigned long long>(
                    sim.failure_view().failed_circuit_count()));
  }
  if (cfg.retransmit_timeout > 0 || metrics.retransmit_events() > 0) {
    std::printf(
        "  retransmits:      %llu events, %llu cells (%llu duplicate "
        "deliveries)\n",
        static_cast<unsigned long long>(metrics.retransmit_events()),
        static_cast<unsigned long long>(metrics.retransmitted_cells()),
        static_cast<unsigned long long>(metrics.duplicate_cells()));
    std::printf(
        "  stall recovery:   %llu flows recovered, mean %.0f slots "
        "stalled; %llu flows still open\n",
        static_cast<unsigned long long>(metrics.recovered_flows()),
        metrics.mean_recovery_slots(),
        static_cast<unsigned long long>(metrics.open_flows()));
  }
  if (const ControlPlane* control = runner->control()) {
    std::printf("  control plane:    %llu replans (epoch %lld slots)\n",
                static_cast<unsigned long long>(control->replans()),
                static_cast<long long>(cfg.epoch_slots));
    if (const ControlFaultModel* cf = runner->control_faults()) {
      std::printf(
          "  controller down:  %llu outages, %llu slots, %llu epochs "
          "suppressed\n",
          static_cast<unsigned long long>(cf->outages_started()),
          static_cast<unsigned long long>(cf->outage_slots()),
          static_cast<unsigned long long>(cf->suppressed_epochs()));
    }
    if (const SafeModeGuard* sm = runner->safe_mode()) {
      std::printf(
          "  safe mode (%s):  %llu activations, %llu slots\n",
          sm->policy() == SafeModePolicy::kVlb ? "vlb" : "hold",
          static_cast<unsigned long long>(sm->activations()),
          static_cast<unsigned long long>(sm->slots_in_safe_mode()));
    }
  }
  if (const InvariantChecker* inv = runner->invariant_checker()) {
    std::printf("  invariants:       %llu slots checked, %llu violations\n",
                static_cast<unsigned long long>(inv->slots_checked()),
                static_cast<unsigned long long>(inv->violation_count()));
  }

  if (!cfg.metrics_json_path.empty())
    std::printf("  metrics JSON:     %s\n", cfg.metrics_json_path.c_str());
  if (!cfg.timeseries_csv_path.empty()) {
    std::printf("  time series CSV:  %s (%zu samples)\n",
                cfg.timeseries_csv_path.c_str(),
                runner->telemetry() != nullptr &&
                        runner->telemetry()->timeseries() != nullptr
                    ? runner->telemetry()->timeseries()->samples().size()
                    : 0);
  }
  if (!cfg.trace_path.empty())
    std::printf("  event trace:      %s\n", cfg.trace_path.c_str());
  if (Profiler* prof = runner->profiler()) {
    const PhaseProfiler::PhaseStats& sweep =
        prof->phases().stats(ProfPhase::kLaneSweep);
    std::printf("  profile:          %llu slots timed, lane sweep %.1f ms "
                "total%s%s\n",
                static_cast<unsigned long long>(prof->phases().slots()),
                static_cast<double>(sweep.total_ns) / 1e6,
                cfg.profile_json_path.empty() ? "" : ", written to ",
                cfg.profile_json_path.c_str());
  }
  if (!save_path.empty())
    std::printf("  scenario JSON:    %s\n", save_path.c_str());
  return 0;
}

// The printed precision of a row value: microseconds to 0.1, counts whole,
// everything else (throughputs, ratios, hops) to 4 decimals.
std::string format_value(const std::string& name, double v) {
  if (name.ends_with("_us")) return format("%.1f", v);
  if (name.ends_with("_flows") || name.ends_with("_cells"))
    return format("%.0f", v);
  return format("%.4f", v);
}

int cmd_sweep(ArgParser& args) {
  const std::string path = args.get_string("--experiment", "");
  const std::string json_path = args.get_string("--json", "");
  args.finish();
  if (path.empty()) {
    std::fprintf(stderr, "sweep requires --experiment <file.json>\n");
    return 2;
  }
  Experiment experiment;
  std::string error;
  if (!Experiment::load_file(path, &experiment, &error)) {
    std::fprintf(stderr, "%s\n", error.c_str());
    return 2;
  }
  const auto& points = experiment.points;
  // Every point must build before any runs, so a bad point fails at once
  // rather than after the points before it.
  for (std::size_t i = 0; i < points.size(); ++i) {
    if (ScenarioRunner::create(points[i].config, &error) == nullptr) {
      std::fprintf(stderr, "%s: point %zu %s: %s\n", path.c_str(), i,
                   points[i].label.c_str(), error.c_str());
      return 2;
    }
  }

  std::vector<ExperimentRow> rows(points.size());
  for (std::size_t i = 0; i < points.size(); ++i) {
    if (!run_experiment_point(points[i], &rows[i], &error)) {
      std::fprintf(stderr, "%s: point %zu %s: %s\n", path.c_str(), i,
                   points[i].label.c_str(), error.c_str());
      return 1;
    }
  }

  // Table: every value that is nonzero in some row (the --json rows hold
  // them all).
  std::vector<std::string> columns;
  for (const ExperimentRow& row : rows)
    for (const ExperimentRow::Value& v : row.values)
      if (v.value != 0.0 &&
          std::find(columns.begin(), columns.end(), v.name) == columns.end())
        columns.push_back(v.name);
  const bool windows = std::any_of(
      points.begin(), points.end(),
      [](const Experiment::Point& p) { return p.window.has_value(); });
  std::vector<std::string> headers{"point", "set"};
  if (windows) headers.push_back("window");
  headers.insert(headers.end(), columns.begin(), columns.end());
  headers.push_back("bands");
  TablePrinter table(std::move(headers));
  std::vector<std::string> misses;
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const auto& window = points[i].window;
    std::vector<std::string> cells{format("%zu", i), points[i].label};
    if (windows) {
      cells.push_back(window ? format("[%lld, %lld)",
                                      static_cast<long long>(window->from),
                                      static_cast<long long>(window->to))
                             : "-");
    }
    for (const std::string& name : columns) {
      const auto it = std::find_if(
          rows[i].values.begin(), rows[i].values.end(),
          [&](const ExperimentRow::Value& v) { return v.name == name; });
      cells.push_back(it == rows[i].values.end()
                          ? "-"
                          : format_value(name, it->value));
    }
    cells.push_back(points[i].expect.empty() ? "-"
                    : rows[i].misses.empty() ? "ok"
                                             : "MISS");
    table.add_row(std::move(cells));
    for (const std::string& miss : rows[i].misses)
      misses.push_back(format("point %zu %s", i, miss.c_str()));
  }
  if (!experiment.description.empty())
    std::printf("%s\n\n", experiment.description.c_str());
  table.print();

  if (!json_path.empty()) {
    JsonWriter w;
    w.begin_object().field("experiment", path).key("rows").begin_array();
    for (std::size_t i = 0; i < rows.size(); ++i) {
      w.begin_object().field("point", static_cast<std::uint64_t>(i));
      w.key("set").raw(points[i].label);
      if (const auto& window = points[i].window) {
        w.key("window").begin_array().value(window->from).value(window->to);
        w.end_array();
      }
      for (const ExperimentRow::Value& v : rows[i].values)
        w.field(v.name, v.value);
      w.key("misses").begin_array();
      for (const std::string& miss : rows[i].misses) w.value(miss);
      w.end_array().end_object();
    }
    w.end_array().end_object();
    if (!write_text_file(json_path, w.take() + "\n")) {
      std::fprintf(stderr, "cannot write %s\n", json_path.c_str());
      return 1;
    }
    std::printf("\nrows written to %s\n", json_path.c_str());
  }

  if (!misses.empty()) {
    std::fprintf(stderr, "\n%zu value(s) outside their bands:\n",
                 misses.size());
    for (const std::string& miss : misses)
      std::fprintf(stderr, "  %s\n", miss.c_str());
    return 1;
  }
  std::printf("\nall %zu points within their bands\n", points.size());
  return 0;
}

// The campaign summary --json writes: the seeds that passed and, on a
// failure, the failing seed and its replay recipe.
bool write_chaos_json(const std::string& path, std::uint64_t first_seed,
                      long runs, const ChaosResult* failed,
                      const ChaosResult& totals, std::uint64_t passed) {
  JsonWriter w;
  w.begin_object()
      .field("bench", "chaos")
      .field("first_seed", first_seed)
      .field("runs", static_cast<std::int64_t>(runs));
  if (failed != nullptr) {
    w.field("failed_seed", failed->seed).field("replay", failed->replay);
  } else {
    w.field("total_faults", totals.faults_applied)
        .field("total_gray_drops", totals.gray_drops)
        .field("total_controller_outages", totals.controller_outages)
        .field("total_replans", totals.replans);
  }
  w.key("metrics")
      .begin_object()
      .field("seeds_passed", passed)
      .field("all_passed", std::uint64_t{failed == nullptr ? 1u : 0u})
      .end_object()
      .end_object();
  return write_text_file(path, w.take() + "\n");
}

int cmd_chaos(ArgParser& args) {
  const std::uint64_t first_seed =
      static_cast<std::uint64_t>(args.get_long("--seed", 1, 0));
  const long runs = args.get_long("--runs", 1, 1);
  ChaosKnobs knobs;
  knobs.nodes = static_cast<NodeId>(args.get_long("--nodes", 32, 4));
  knobs.slots = args.get_long("--slots", 3000, 500);
  const std::string json_path = args.get_string("--json", "");
  args.finish();

  std::uint64_t passed = 0;
  ChaosResult totals;  // the passing seeds' counts, summed
  TablePrinter table({"seed", "faults", "gray drops", "ctrl outages",
                      "safe mode", "replans", "slots checked", "verdict"});
  for (long i = 0; i < runs; ++i) {
    const std::uint64_t seed = first_seed + static_cast<std::uint64_t>(i);
    const ChaosResult r = run_chaos(seed, knobs);
    table.add_row(
        {format("%llu", static_cast<unsigned long long>(seed)),
         format("%llu", static_cast<unsigned long long>(r.faults_applied)),
         format("%llu", static_cast<unsigned long long>(r.gray_drops)),
         format("%llu",
                static_cast<unsigned long long>(r.controller_outages)),
         format("%llu",
                static_cast<unsigned long long>(r.safe_mode_activations)),
         format("%llu", static_cast<unsigned long long>(r.replans)),
         format("%llu", static_cast<unsigned long long>(r.invariant_slots)),
         r.ok ? "pass" : "FAIL"});
    if (!r.ok) {
      table.print();
      std::fprintf(stderr, "\nchaos seed %llu FAILED:\n%s\n\nreplay: %s\n",
                   static_cast<unsigned long long>(seed), r.error.c_str(),
                   r.replay.c_str());
      if (!json_path.empty())
        write_chaos_json(json_path, first_seed, runs, &r, totals, passed);
      return 1;
    }
    ++passed;
    totals.faults_applied += r.faults_applied;
    totals.gray_drops += r.gray_drops;
    totals.controller_outages += r.controller_outages;
    totals.safe_mode_activations += r.safe_mode_activations;
    totals.replans += r.replans;
    totals.invariant_slots += r.invariant_slots;
  }
  table.print();
  std::printf(
      "\n%llu/%ld seeds passed: %llu faults, %llu gray drops, %llu "
      "controller outages, %llu safe-mode entries, %llu replans, %llu "
      "slots invariant-checked.\n",
      static_cast<unsigned long long>(passed), runs,
      static_cast<unsigned long long>(totals.faults_applied),
      static_cast<unsigned long long>(totals.gray_drops),
      static_cast<unsigned long long>(totals.controller_outages),
      static_cast<unsigned long long>(totals.safe_mode_activations),
      static_cast<unsigned long long>(totals.replans),
      static_cast<unsigned long long>(totals.invariant_slots));
  if (!json_path.empty() &&
      !write_chaos_json(json_path, first_seed, runs, nullptr, totals,
                        passed)) {
    std::fprintf(stderr, "cannot write %s\n", json_path.c_str());
    return 1;
  }
  return 0;
}

int usage() {
  std::fprintf(
      stderr,
      "usage:\n"
      "  sorn_tool plan --matrix tm.csv [--nc 4,8,16] [--weighted]\n"
      "  sorn_tool hier-plan --matrix tm.csv [--clusters 4] [--pods 4]\n"
      "  sorn_tool schedule --nodes 16 --cliques 4 --qnum 3 --qden 1\n"
      "  sorn_tool designs\n"
      "  sorn_tool simulate [--design sorn] [--scenario file.json]\n"
      "                     [--save-scenario out.json]\n"
      "                     [--nodes 64] [--cliques 8] [--locality 0.56]\n"
      "                     [--workload flows|saturation|flow-saturation|\n"
      "                                 incast|collective|oversub-rack]\n"
      "                     [--incast-fanin 32] [--incast-bytes 16384]\n"
      "                     [--incast-period 512]\n"
      "                     [--collective ring|tree]\n"
      "                     [--collective-bytes 262144]\n"
      "                     [--collective-gap 256]\n"
      "                     [--rack-local-frac 0.6] [--oversub-factor 4]\n"
      "                     [--transport open-loop|dctcp]\n"
      "                     [--ecn-threshold 8] [--init-cwnd 8]\n"
      "                     [--max-cwnd 256] [--dctcp-gain 0.0625]\n"
      "                     [--load 0.3] [--slots 30000] [--seed 42]\n"
      "                     [--trace run.jsonl] [--metrics-json run.json]\n"
      "                     [--timeseries-csv run.csv] [--sample-every 10]\n"
      "                     [--profile] [--profile-json profile.json]\n"
      "                      (profiling never changes sim artifacts;\n"
      "                       profile.json itself is wall-clock data)\n"
      "                     [--fault-script faults.txt]\n"
      "                     [--mtbf S --mttr S]\n"
      "                     [--circuit-mtbf S --circuit-mttr S]\n"
      "                     [--fault-seed 1]\n"
      "                     [--retransmit-timeout S]\n"
      "                     [--retransmit-max-attempts 8]\n"
      "                     [--retransmit-jitter 0.25]\n"
      "                     [--epoch-slots 500] [--update-delay S]\n"
      "                      (closed control loop: replan every epoch)\n"
      "                     [--control-outages s0,e0,s1,e1,...]\n"
      "                     [--controller-mtbf S --controller-mttr S]\n"
      "                     [--control-fault-seed 1]\n"
      "                     [--replan-apply-delay S]\n"
      "                     [--estimate-stale-epochs K]\n"
      "                     [--estimate-noise 0.2]\n"
      "                     [--safe-mode hold|vlb] [--check-invariants]\n"
      "  sorn_tool chaos [--seed 1] [--runs 1] [--nodes 32] [--slots 3000]\n"
      "                  [--json chaos.json]\n"
      "      Seeded randomized fault-soup campaign: gray failures,\n"
      "      controller outages, safe mode, invariants every slot, and a\n"
      "      run-to-run byte-equivalence cross-check per seed. Prints\n"
      "      a one-line replay recipe on failure (also in the --json\n"
      "      summary).\n"
      "  sorn_tool sweep --experiment FILE.json [--json rows.json]\n"
      "      Run every point of a checked-in experiment (a base scenario\n"
      "      plus points that set fields on it) and print one row per\n"
      "      point. Exits 1 naming each value outside its expected band,\n"
      "      2 on a malformed experiment file.\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  const std::string cmd = argv[1];
  ArgParser args(argc, argv, 2);
  if (cmd == "plan") return cmd_plan(args);
  if (cmd == "hier-plan") return cmd_hier_plan(args);
  if (cmd == "schedule") return cmd_schedule(args);
  if (cmd == "designs") return cmd_designs(args);
  if (cmd == "simulate") return cmd_simulate(args);
  if (cmd == "chaos") return cmd_chaos(args);
  if (cmd == "sweep") return cmd_sweep(args);
  return usage();
}
