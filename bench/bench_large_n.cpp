// Table-1 scale (N = 4096): sparse-VOQ memory ceiling + engine throughput.
//
// The dense N x N VOQ layout made this scale unreachable: ~16.7M deques
// (gigabytes of empty-queue overhead) before the first cell moved. With
// sparse per-node storage the whole 4096-node, 16-lane flow scenario has
// to fit under a hard RSS ceiling, so this bench doubles as the memory
// regression gate: it runs the scenario at each thread count, reports
// peak RSS (getrusage ru_maxrss — a process-wide high-water mark) and
// wall-clock slots/sec, and byte-compares the metrics JSON across thread
// counts (the parallel engine's equivalence contract at full scale).
//
//   bench_large_n [--json out.json] [--nodes 4096] [--cliques 64]
//                 [--lanes 16] [--slots 400] [--drain 4000] [--load 2.0]
//                 [--flow-bytes 40960] [--threads 1,4]
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
// exceeds the ceiling or the slowest thread count misses the floor (the
// CI gates; 0 disables either). Load is relative to single-lane node
// bandwidth, so 16 lanes leave plenty of headroom at the default 2.0.
// --profile-json is rewritten per thread count; the file left behind is
// the last (most-threaded) run's profile, the one with pool utilization.
#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "obs/export.h"
#include "scenario/scenario_runner.h"
#include "util/args.h"
#include "util/rusage.h"
#include "util/table.h"

namespace {

using namespace sorn;

struct Row {
  int threads = 1;
  double seconds = 0.0;
  double slots_per_sec = 0.0;
  std::uint64_t delivered = 0;
  std::uint64_t dropped = 0;
  std::uint64_t completed_flows = 0;
  std::string metrics_json;
};

}  // namespace

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
  const std::vector<int> thread_counts =
      args.get_int_list("--threads", {1, 4}, 1);
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

  std::vector<Row> rows;
  for (const int t : thread_counts) {
    ScenarioConfig cfg;
    cfg.design = "sorn";
    cfg.nodes = nodes;
    cfg.cliques = cliques;
    cfg.locality_x = 0.6;
    cfg.traffic_backend = traffic_backend;
    cfg.lanes = lanes;
    cfg.propagation_ns = 0;
    cfg.threads = t;
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

    Row row;
    row.threads = t;
    row.seconds =
        std::chrono::duration_cast<std::chrono::duration<double>>(t1 - t0)
            .count();
    row.slots_per_sec =
        static_cast<double>(runner->metrics().slots_run()) / row.seconds;
    row.delivered = runner->metrics().delivered_cells();
    row.dropped = runner->metrics().dropped_cells();
    row.completed_flows = runner->metrics().completed_flows();
    row.metrics_json = runner->metrics_json();
    rows.push_back(row);
  }

  // Full-scale equivalence: every thread count must produce the same
  // metrics document, byte for byte.
  bool equivalent = true;
  for (const Row& row : rows)
    if (row.metrics_json != rows.front().metrics_json) equivalent = false;

  const double rss_mb = peak_rss_mb();
  double slowest = rows.empty() ? 0.0 : rows.front().slots_per_sec;
  for (const Row& row : rows)
    if (row.slots_per_sec < slowest) slowest = row.slots_per_sec;

  TablePrinter table(
      {"threads", "seconds", "slots/sec", "delivered", "flows done"});
  for (const Row& row : rows) {
    table.add_row(
        {format("%d", row.threads), format("%.2f", row.seconds),
         format("%.0f", row.slots_per_sec),
         format("%llu", static_cast<unsigned long long>(row.delivered)),
         format("%llu",
                static_cast<unsigned long long>(row.completed_flows))});
  }
  table.print();
  std::printf("\npeak RSS: %.0f MB (process high-water mark)\n", rss_mb);
  std::printf("equivalence across thread counts: %s\n",
              equivalent ? "OK (identical metrics JSON)" : "FAILED");

  if (!json_path.empty()) {
    // "metrics" holds the flat numeric gates ci/check_bench.py compares
    // against the committed BENCH_large_n.json baseline: deterministic
    // sim counts (near-exact tolerance) plus timing/memory (loose ratio).
    std::string metrics =
        "{\"peak_rss_mb\": " + format("%.1f", rss_mb) +
        ", \"equivalent\": " + (equivalent ? "1" : "0") +
        ", \"delivered_cells\": " +
        format("%llu",
               static_cast<unsigned long long>(
                   rows.empty() ? 0 : rows.front().delivered)) +
        ", \"completed_flows\": " +
        format("%llu",
               static_cast<unsigned long long>(
                   rows.empty() ? 0 : rows.front().completed_flows));
    for (const Row& row : rows)
      metrics += ", \"slots_per_sec_t" + format("%d", row.threads) +
                 "\": " + format("%.1f", row.slots_per_sec);
    metrics += "}";
    const std::string doc =
        "{\"bench\": \"bench_large_n\", \"nodes\": " + format("%d", nodes) +
        ", \"cliques\": " + format("%d", cliques) +
        ", \"lanes\": " + format("%d", lanes) +
        ", \"slots\": " + format("%lld", static_cast<long long>(slots)) +
        ", \"peak_rss_mb\": " + format("%.1f", rss_mb) +
        ", \"equivalent\": " + (equivalent ? "true" : "false") +
        ", \"metrics\": " + metrics +
        ", \"rows\": " + table.to_json() + "}\n";
    if (!write_text_file(json_path, doc)) {
      std::fprintf(stderr, "cannot write %s\n", json_path.c_str());
      return 1;
    }
    std::printf("wrote %s\n", json_path.c_str());
  }

  if (!equivalent) return 1;
  if (max_rss_mb > 0.0) {
    std::printf("RSS gate: %.0f MB (ceiling %.0f MB) — %s\n", rss_mb,
                max_rss_mb, rss_mb <= max_rss_mb ? "PASS" : "FAIL");
    if (rss_mb > max_rss_mb) return 1;
  }
  if (min_slots_per_sec > 0.0) {
    std::printf("throughput gate: %.0f slots/sec (floor %.0f) — %s\n",
                slowest, min_slots_per_sec,
                slowest >= min_slots_per_sec ? "PASS" : "FAIL");
    if (slowest < min_slots_per_sec) return 1;
  }
  return 0;
}
