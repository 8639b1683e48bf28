// Table-1 scale (N = 4096): sparse-VOQ memory ceiling + engine throughput.
//
// The dense N x N VOQ layout made this scale unreachable: ~16.7M deques
// (gigabytes of empty-queue overhead) before the first cell moved. With
// sparse per-node storage the whole 4096-node, 16-lane flow scenario has
// to fit under a hard RSS ceiling, so this bench doubles as the memory
// regression gate: it runs the scenario once and reports peak RSS
// (getrusage ru_maxrss — a process-wide high-water mark) and wall-clock
// slots/sec.
//
//   bench_large_n [--json out.json] [--nodes 4096] [--cliques 64]
//                 [--lanes 16] [--slots 400] [--drain 4000] [--load 2.0]
//                 [--flow-bytes 40960]
//                 [--traffic-backend procedural]
//                 [--max-rss-mb 2048] [--min-slots-per-sec 10]
//                 [--profile] [--profile-json profile.json]
//
// The demand defaults to the procedural backend (O(N) state) — the dense
// matrix would reintroduce the very O(N^2) dominator this bench gates.
// All backends produce byte-identical metrics, so --traffic-backend dense
// only changes the memory column.
//
// With --max-rss-mb / --min-slots-per-sec, exits nonzero when peak RSS
// exceeds the ceiling or the run misses the floor (the CI gates; 0
// disables either). Load is relative to single-lane node bandwidth, so 16
// lanes leave plenty of headroom at the default 2.0.
#include <chrono>
#include <cstdio>
#include <string>

#include "obs/export.h"
#include "scenario/scenario_runner.h"
#include "util/args.h"
#include "util/rusage.h"
#include "util/table.h"

using namespace sorn;

int main(int argc, char** argv) {
  ArgParser args(argc, argv);
  const std::string json_path = args.get_string("--json", "");
  const auto nodes = static_cast<NodeId>(args.get_long("--nodes", 4096, 2));
  const auto cliques =
      static_cast<CliqueId>(args.get_long("--cliques", 64, 1));
  const int lanes = static_cast<int>(args.get_long("--lanes", 16, 1));
  const Slot slots = args.get_long("--slots", 400, 1);
  const Slot drain = args.get_long("--drain", 4000, 0);
  const double load = args.get_double("--load", 2.0, 0.0);
  const std::uint64_t flow_bytes = static_cast<std::uint64_t>(
      args.get_long("--flow-bytes", 40960, 256));
  const std::string backend_name =
      args.get_string("--traffic-backend", "procedural");
  DemandBackend traffic_backend = DemandBackend::kProcedural;
  if (!parse_demand_backend(backend_name, &traffic_backend)) {
    std::fprintf(stderr,
                 "--traffic-backend: unknown backend '%s' "
                 "(dense|sparse|procedural)\n",
                 backend_name.c_str());
    return 2;
  }
  const double max_rss_mb = args.get_double("--max-rss-mb", 0.0, 0.0);
  const double min_slots_per_sec =
      args.get_double("--min-slots-per-sec", 0.0, 0.0);
  const bool profile = args.get_flag("--profile");
  const std::string profile_json = args.get_string("--profile-json", "");
  args.finish();

  std::printf(
      "Large-N scale check: %d nodes, %d cliques, %d lanes, load %.2f, "
      "%lld-slot horizon + %lld drain budget, fixed %llu-byte flows\n\n",
      nodes, cliques, lanes, load, static_cast<long long>(slots),
      static_cast<long long>(drain),
      static_cast<unsigned long long>(flow_bytes));

  ScenarioConfig cfg;
  cfg.design = "sorn";
  cfg.nodes = nodes;
  cfg.cliques = cliques;
  cfg.locality_x = 0.6;
  cfg.traffic_backend = traffic_backend;
  cfg.lanes = lanes;
  cfg.propagation_ns = 0;
  cfg.workload = WorkloadKind::kFlows;
  cfg.load = load;
  cfg.slots = slots;
  cfg.drain_slots = drain;
  cfg.flow_size = FlowSizeKind::kFixed;
  cfg.fixed_flow_bytes = flow_bytes;
  cfg.profile = profile;
  cfg.profile_json_path = profile_json;

  std::string error;
  auto runner = ScenarioRunner::create(cfg, &error);
  if (runner == nullptr) {
    std::fprintf(stderr, "scenario failed: %s\n", error.c_str());
    return 1;
  }
  const auto t0 = std::chrono::steady_clock::now();
  if (!runner->run(&error)) {
    std::fprintf(stderr, "run failed: %s\n", error.c_str());
    return 1;
  }
  const auto t1 = std::chrono::steady_clock::now();
  const double seconds =
      std::chrono::duration_cast<std::chrono::duration<double>>(t1 - t0)
          .count();
  const SimMetrics& m = runner->metrics();
  const double slots_per_sec = static_cast<double>(m.slots_run()) / seconds;
  const double rss_mb = peak_rss_mb();

  TablePrinter table({"seconds", "slots/sec", "delivered", "flows done"});
  table.add_row(
      {format("%.2f", seconds), format("%.0f", slots_per_sec),
       format("%llu", static_cast<unsigned long long>(m.delivered_cells())),
       format("%llu", static_cast<unsigned long long>(m.completed_flows()))});
  table.print();
  std::printf("\npeak RSS: %.0f MB (process high-water mark)\n", rss_mb);

  if (!json_path.empty()) {
    // "metrics" holds the flat numeric gates ci/check_bench.py compares
    // against the committed BENCH_large_n.json baseline: deterministic
    // sim counts (near-exact tolerance) plus timing/memory (loose ratio).
    const std::string metrics =
        "{\"peak_rss_mb\": " + format("%.1f", rss_mb) +
        ", \"delivered_cells\": " +
        format("%llu", static_cast<unsigned long long>(m.delivered_cells())) +
        ", \"completed_flows\": " +
        format("%llu", static_cast<unsigned long long>(m.completed_flows())) +
        ", \"slots_per_sec\": " + format("%.1f", slots_per_sec) + "}";
    const std::string doc =
        "{\"bench\": \"bench_large_n\", \"nodes\": " + format("%d", nodes) +
        ", \"cliques\": " + format("%d", cliques) +
        ", \"lanes\": " + format("%d", lanes) +
        ", \"slots\": " + format("%lld", static_cast<long long>(slots)) +
        ", \"peak_rss_mb\": " + format("%.1f", rss_mb) +
        ", \"metrics\": " + metrics +
        ", \"rows\": " + table.to_json() + "}\n";
    if (!write_text_file(json_path, doc)) {
      std::fprintf(stderr, "cannot write %s\n", json_path.c_str());
      return 1;
    }
    std::printf("wrote %s\n", json_path.c_str());
  }

  if (max_rss_mb > 0.0) {
    std::printf("RSS gate: %.0f MB (ceiling %.0f MB) — %s\n", rss_mb,
                max_rss_mb, rss_mb <= max_rss_mb ? "PASS" : "FAIL");
    if (rss_mb > max_rss_mb) return 1;
  }
  if (min_slots_per_sec > 0.0) {
    std::printf("throughput gate: %.0f slots/sec (floor %.0f) — %s\n",
                slots_per_sec, min_slots_per_sec,
                slots_per_sec >= min_slots_per_sec ? "PASS" : "FAIL");
    if (slots_per_sec < min_slots_per_sec) return 1;
  }
  return 0;
}
