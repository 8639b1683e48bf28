// Determinism regression: telemetry must not perturb the simulation, and
// two runs of the same seed/config must export byte-identical artifacts
// (JSON summary, CSV time series, JSONL trace). Guards against
// nondeterminism creeping in via hash-map iteration order, uninitialized
// state, or pointer-keyed output.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "control/reconfig.h"
#include "obs/export.h"
#include "sim/workload_driver.h"
#include "traffic/flow_size.h"
#include "traffic/patterns.h"

namespace sorn {
namespace {

struct RunArtifacts {
  std::string metrics_json;
  std::string timeseries_csv;
  std::vector<std::string> trace_lines;
  std::uint64_t delivered = 0;
};

RunArtifacts run_workload(bool with_telemetry) {
  const SornFabric net = build_sorn_fabric(
      CliqueAssignment::contiguous(16, 4), optimal_q(0.5, 12));
  NetworkConfig ncfg;
  ncfg.propagation_per_hop = 0;
  SlottedNetwork sim(net.schedule.get(), net.router.get(), ncfg);

  Telemetry telemetry(TelemetryOptions{.sample_every = 5});
  MemoryTraceSink sink;
  telemetry.set_trace_sink(&sink);
  if (with_telemetry) sim.add_observer(&telemetry);

  const TrafficMatrix tm = patterns::locality_mix(*net.cliques, 0.5);
  const FlowSizeDist sizes = FlowSizeDist::pfabric_web_search();
  const double node_bw =
      static_cast<double>(sim.config().cell_bytes) * 8.0 /
      (static_cast<double>(sim.config().slot_duration) * 1e-12);
  FlowArrivals arrivals(&tm, &sizes, node_bw, /*load=*/0.4, Rng(1));
  WorkloadDriver driver(&arrivals);
  driver.run_until(sim, 3000 * sim.config().slot_duration, 2000);

  RunArtifacts out;
  ExportOptions eopts;
  eopts.nodes = sim.node_count();
  out.metrics_json =
      run_to_json(sim.metrics(), with_telemetry ? &telemetry : nullptr, eopts);
  if (with_telemetry) out.timeseries_csv = telemetry.timeseries()->to_csv();
  out.trace_lines = sink.lines();
  out.delivered = sim.metrics().delivered_cells();
  return out;
}

TEST(DeterminismTest, IdenticalRunsExportByteIdenticalArtifacts) {
  const RunArtifacts a = run_workload(true);
  const RunArtifacts b = run_workload(true);
  ASSERT_GT(a.delivered, 0u);
  EXPECT_EQ(a.metrics_json, b.metrics_json);
  EXPECT_EQ(a.timeseries_csv, b.timeseries_csv);
  ASSERT_FALSE(a.trace_lines.empty());
  EXPECT_EQ(a.trace_lines, b.trace_lines);
}

TEST(DeterminismTest, TelemetryDoesNotPerturbTheSimulation) {
  const RunArtifacts with = run_workload(true);
  const RunArtifacts without = run_workload(false);
  EXPECT_EQ(with.delivered, without.delivered);
}

}  // namespace
}  // namespace sorn
