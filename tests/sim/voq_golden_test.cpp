// Golden N=128 metrics pinned across the VOQ storage migration.
//
// The values below were captured from the dense N x N VoqSet layout
// (one deque per (node, next-hop) pair) immediately before it was
// replaced by the sparse per-node layout. The sparse layout must be
// observationally identical — same FIFO semantics, same capacity
// checks, same max-depth gauge — so every number here is required to
// survive the migration bit-for-bit. Any change to these values means
// the VOQ storage changed simulator behavior, not just its memory
// footprint.
//
// The scenario deliberately exercises every VoqSet entry point: two
// lanes (phase-shifted sweeps), bounded queues under overload
// (size_of capacity refusals, with the apply pass's reconstruction),
// multi-hop relaying (push after pop), and decimated telemetry
// sampling (max_queue_depth).
//
// The full metrics JSON and time-series CSV are pinned too (pins.h),
// captured from the sparse layout.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "control/reconfig.h"
#include "obs/export.h"
#include "sim/telemetry.h"
#include "sim/workload_driver.h"
#include "traffic/flow_size.h"
#include "traffic/patterns.h"
#include "pins.h"

namespace sorn {
namespace {

struct GoldenRun {
  std::uint64_t injected = 0;
  std::uint64_t delivered = 0;
  std::uint64_t dropped = 0;
  std::uint64_t forwarded = 0;
  std::uint64_t completed_flows = 0;
  double mean_hops = 0.0;
  double cell_lat_p50_ps = 0.0;
  std::uint64_t max_depth_seen = 0;  // max over sampled max_voq_depth
  std::vector<std::string> csv_rows;
  std::string timeseries_csv;
  std::string metrics_json;
};

GoldenRun run_n128() {
  const SornFabric net = build_sorn_fabric(
      CliqueAssignment::contiguous(128, 8), optimal_q(0.5, 12));

  NetworkConfig ncfg;
  ncfg.lanes = 2;
  ncfg.propagation_per_hop = 0;
  ncfg.max_queue_cells = 8;  // overload must tail-drop
  SlottedNetwork sim(net.schedule.get(), net.router.get(), ncfg);

  Telemetry telemetry(TelemetryOptions{.sample_every = 25});
  sim.add_observer(&telemetry);

  const TrafficMatrix tm = patterns::locality_mix(*net.cliques, 0.5);
  const FlowSizeDist sizes = FlowSizeDist::fixed(2560);  // 10 cells per flow
  const double node_bw =
      static_cast<double>(sim.config().cell_bytes) * 8.0 /
      (static_cast<double>(sim.config().slot_duration) * 1e-12);
  FlowArrivals arrivals(&tm, &sizes, node_bw, /*load=*/0.9, Rng(3));
  WorkloadDriver driver(&arrivals);
  driver.run_until(sim, 3000 * sim.config().slot_duration, 2000);

  GoldenRun out;
  out.injected = sim.metrics().injected_cells();
  out.delivered = sim.metrics().delivered_cells();
  out.dropped = sim.metrics().dropped_cells();
  out.forwarded = sim.metrics().forwarded_cells();
  out.completed_flows = sim.metrics().completed_flows();
  out.mean_hops = sim.metrics().mean_hops();
  out.cell_lat_p50_ps = sim.metrics().cell_latency_ps().percentile(50.0);
  for (const SlotSample& s : telemetry.timeseries()->samples())
    out.max_depth_seen = std::max(out.max_depth_seen, s.max_voq_depth);
  const std::string csv = telemetry.timeseries()->to_csv();
  out.timeseries_csv = csv;
  std::size_t start = 0;
  while (start < csv.size()) {
    std::size_t end = csv.find('\n', start);
    if (end == std::string::npos) end = csv.size();
    out.csv_rows.push_back(csv.substr(start, end - start));
    start = end + 1;
  }
  ExportOptions eopts;
  eopts.nodes = sim.node_count();
  eopts.lanes = ncfg.lanes;
  out.metrics_json = run_to_json(sim.metrics(), &telemetry, eopts);
  return out;
}

TEST(VoqGoldenTest, N128MetricsMatchDenseLayoutCapture) {
  const GoldenRun run = run_n128();
  EXPECT_EQ(run.injected, 346690u);
  EXPECT_EQ(run.delivered, 295880u);
  EXPECT_EQ(run.dropped, 50480u);
  EXPECT_EQ(run.forwarded, 452467u);
  EXPECT_EQ(run.completed_flows, 10727u);
  EXPECT_NEAR(run.mean_hops, 2.435937, 1e-6);
  EXPECT_DOUBLE_EQ(run.cell_lat_p50_ps, 12600000.0);
  EXPECT_EQ(run.max_depth_seen, 8u);  // queues saturate at the cap
  // Two decimated telemetry rows pinned verbatim: the max_voq_depth
  // column is the O(active)-scan gauge the migration reimplemented.
  ASSERT_GT(run.csv_rows.size(), 60u);
  EXPECT_EQ(run.csv_rows[40], "975,2810,2146,402,3499,26221,8,8448");
  EXPECT_EQ(run.csv_rows[60], "1475,2800,2131,427,3610,32358,8,12922");
}

TEST(VoqGoldenTest, N128ArtifactsMatchPinnedDigests) {
  const GoldenRun run = run_n128();
  ASSERT_GT(run.dropped, 0u) << "scenario must exercise tail drops";
  ASSERT_GT(run.forwarded, 0u);
  EXPECT_EQ(pins::pin_of(run.metrics_json), "9310:b589400c85d7dacf");
  EXPECT_EQ(pins::pin_of(run.timeseries_csv), "6948:f923582740a7a36c");
}

}  // namespace
}  // namespace sorn
