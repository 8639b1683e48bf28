// Parallel slot-engine scaling: slots/sec at 1/2/4/8 threads.
//
// Scenario: the Fig. 2(f) scale — a 128-node, 8-clique SORN fabric under
// saturation (closed-loop backlogged sources). Each slot, sources are
// pumped outside the timer and only SlottedNetwork::step() is timed, so
// the number reported is engine throughput, not workload-generation
// speed. The engine is byte-equivalent at every thread count, so the
// bench doubles as an equivalence check: delivered-cell counts must match
// across all thread counts or the bench fails.
//
// The fabric and traffic come from the scenario layer (one ScenarioConfig
// per rep); the timing loop itself stays hand-rolled because only
// SlottedNetwork::step() may sit inside the timer.
//
//   bench_parallel_scaling [--json out.json] [--threads 1,2,4,8]
//                          [--slots 20000] [--warmup 2000] [--reps 3]
//                          [--nodes 128] [--cliques 8]
//                          [--min-speedup 1.3] [--gate-threads 4]
//
// With --min-speedup, exits nonzero unless the --gate-threads row reaches
// that speedup over the single-thread row (the CI scaling gate; the
// generous 1.3x floor at 4 threads absorbs shared-runner noise).
//
// After the timed reps each thread count runs one more rep, untimed, with
// a profiler attached, and reports the shards each worker ran (worker 0
// is the calling thread): the rows' "shards per worker" column and the
// metrics shards_t<T>_w<W>. An even split over the workers with no
// speedup means the per-slot work is too small; a lopsided one means the
// workers did not get to run.
#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "obs/export.h"
#include "obs/prof/profiler.h"
#include "scenario/scenario_runner.h"
#include "sim/parallel.h"
#include "sim/saturation.h"
#include "util/args.h"
#include "util/table.h"

namespace {

using namespace sorn;

struct Row {
  int threads = 1;
  double slots_per_sec = 0.0;
  double speedup = 1.0;
  std::uint64_t delivered = 0;
  // From the profiled rep; empty without a pool (one thread).
  std::vector<std::uint64_t> worker_shards;
};

}  // namespace

int main(int argc, char** argv) {
  ArgParser args(argc, argv);
  const std::string json_path = args.get_string("--json", "");
  const std::vector<int> thread_counts =
      args.get_int_list("--threads", {1, 2, 4, 8}, 1);
  const Slot slots = args.get_long("--slots", 20000, 1);
  const Slot warmup = args.get_long("--warmup", 2000, 0);
  const int reps = static_cast<int>(args.get_long("--reps", 3, 1));
  const auto nodes = static_cast<NodeId>(args.get_long("--nodes", 128, 2));
  const auto cliques =
      static_cast<CliqueId>(args.get_long("--cliques", 8, 1));
  const double min_speedup = args.get_double("--min-speedup", 0.0, 0.0);
  const int gate_threads =
      static_cast<int>(args.get_long("--gate-threads", 4, 1));
  args.finish();
  if (thread_counts.empty() || thread_counts.front() != 1) {
    std::fprintf(stderr, "--threads list must start with 1 (the baseline)\n");
    return 2;
  }

  ScenarioConfig cfg;
  cfg.design = "sorn";
  cfg.nodes = nodes;
  cfg.cliques = cliques;
  cfg.locality_x = 0.6;
  cfg.propagation_ns = 0;
  cfg.workload = WorkloadKind::kSaturation;

  std::printf(
      "Parallel slot-engine scaling: %d nodes, %d cliques, saturated, "
      "%lld timed slots, best of %d (host reports %d hardware threads)\n\n",
      nodes, cliques, static_cast<long long>(slots), reps,
      ThreadPool::default_threads());

  // One rep at t threads: warmup, then `slots` slots with only step()
  // inside the timer. Returns false when the scenario fails to build.
  auto run_rep = [&](int t, Profiler* profiler, double* ns,
                     std::uint64_t* delivered) {
    ScenarioConfig run = cfg;
    run.threads = t;
    std::string error;
    auto runner = ScenarioRunner::create(run, &error);
    if (runner == nullptr) {
      std::fprintf(stderr, "scenario failed: %s\n", error.c_str());
      return false;
    }
    SlottedNetwork& sim = runner->network();
    if (profiler != nullptr) sim.set_profiler(profiler);
    SaturationSource source(&runner->traffic(), SaturationConfig{});
    for (Slot s = 0; s < warmup; ++s) {
      source.pump(sim);
      sim.step();
    }
    // Pump outside the timer: only the slot engine is measured.
    *ns = 0.0;
    for (Slot s = 0; s < slots; ++s) {
      source.pump(sim);
      const auto t0 = std::chrono::steady_clock::now();
      sim.step();
      const auto t1 = std::chrono::steady_clock::now();
      *ns += static_cast<double>(
          std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0)
              .count());
    }
    *delivered = sim.metrics().delivered_cells();
    if (profiler != nullptr) {
      sim.snapshot_pool_utilization();
      sim.set_profiler(nullptr);
    }
    return true;
  };

  std::vector<Row> rows;
  bool profiled_equivalent = true;
  for (const int t : thread_counts) {
    if (t < 1) {
      std::fprintf(stderr, "thread counts must be >= 1\n");
      return 2;
    }
    double best_ns = 1e18;
    std::uint64_t delivered = 0;
    for (int rep = 0; rep < reps; ++rep) {
      double ns = 0.0;
      if (!run_rep(t, nullptr, &ns, &delivered)) return 1;
      if (ns < best_ns) best_ns = ns;
    }
    Row row;
    row.threads = t;
    row.slots_per_sec = static_cast<double>(slots) / (best_ns * 1e-9);
    row.delivered = delivered;
    row.speedup = rows.empty() ? 1.0
                               : row.slots_per_sec / rows.front().slots_per_sec;
    // Profiling only reads clocks: the profiled rep must deliver the same.
    Profiler profiler;
    double untimed_ns = 0.0;
    std::uint64_t profiled_delivered = 0;
    if (!run_rep(t, &profiler, &untimed_ns, &profiled_delivered)) return 1;
    if (profiled_delivered != delivered) profiled_equivalent = false;
    if (profiler.has_pool_utilization()) {
      for (const PoolWorkerStats& worker :
           profiler.pool_utilization().workers)
        row.worker_shards.push_back(worker.shards);
    }
    rows.push_back(row);
  }

  // Byte-equivalence spot check: the same seed must deliver the same
  // cells at every thread count.
  bool equivalent = profiled_equivalent;
  for (const Row& row : rows)
    if (row.delivered != rows.front().delivered) equivalent = false;

  TablePrinter table({"threads", "slots/sec", "speedup vs 1", "delivered",
                      "shards per worker"});
  for (const Row& row : rows) {
    std::string shards = row.worker_shards.empty() ? "-" : "";
    for (std::size_t w = 0; w < row.worker_shards.size(); ++w) {
      shards += format(
          w == 0 ? "%llu" : "/%llu",
          static_cast<unsigned long long>(row.worker_shards[w]));
    }
    table.add_row({format("%d", row.threads),
                   format("%.0f", row.slots_per_sec),
                   format("%.2fx", row.speedup),
                   format("%llu",
                          static_cast<unsigned long long>(row.delivered)),
                   shards});
  }
  table.print();
  std::printf("\nequivalence across thread counts: %s\n",
              equivalent ? "OK (identical delivered counts)" : "FAILED");

  if (!json_path.empty()) {
    // Flat numeric gates for ci/check_bench.py: deterministic delivered
    // count (near-exact) plus timing/speedup (loose ratio bounds).
    std::string metrics =
        "{\"equivalent\": " + std::string(equivalent ? "1" : "0") +
        ", \"delivered_cells\": " +
        format("%llu", static_cast<unsigned long long>(
                           rows.front().delivered));
    for (const Row& row : rows) {
      metrics += ", \"slots_per_sec_t" + format("%d", row.threads) +
                 "\": " + format("%.1f", row.slots_per_sec);
      if (row.threads != 1)
        metrics += ", \"speedup_t" + format("%d", row.threads) +
                   "\": " + format("%.3f", row.speedup);
      for (std::size_t w = 0; w < row.worker_shards.size(); ++w) {
        metrics += ", \"shards_t" + format("%d", row.threads) + "_w" +
                   format("%zu", w) + "\": " +
                   format("%llu", static_cast<unsigned long long>(
                                      row.worker_shards[w]));
      }
    }
    metrics += "}";
    const std::string doc =
        "{\"bench\": \"bench_parallel_scaling\", \"nodes\": " +
        format("%d", nodes) + ", \"cliques\": " + format("%d", cliques) +
        ", \"slots\": " + format("%lld", static_cast<long long>(slots)) +
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
  if (min_speedup > 0.0) {
    const Row* gate = nullptr;
    for (const Row& row : rows)
      if (row.threads == gate_threads) gate = &row;
    if (gate == nullptr) gate = &rows.back();
    std::printf("gate: %.2fx at %d threads (floor %.2fx) — %s\n",
                gate->speedup, gate->threads, min_speedup,
                gate->speedup >= min_speedup ? "PASS" : "FAIL");
    if (gate->speedup < min_speedup) return 1;
  }
  return 0;
}
