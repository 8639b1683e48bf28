// RNG discipline, pinned.
//
// Every random draw in a simulation — Poisson arrivals, flow sizes, VLB
// waypoint picks, per-cell load balancing — happens at injection time,
// between slots. None may move into a slot's take or apply pass: a draw
// there would consume the stream in a different order and change every
// path after it.
//
// The test pins the exact arrival sequence (flow_inject trace events
// carry flow id, src, dst, bytes and slot) and the routing-draw
// consumption order (the metrics JSON: one moved draw changes paths, hence
// hop counts and latencies) against bytes captured from an earlier build
// (pins.h).
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "control/reconfig.h"
#include "obs/export.h"
#include "sim/workload_driver.h"
#include "traffic/flow_size.h"
#include "traffic/patterns.h"
#include "pins.h"

namespace sorn {
namespace {

using pins::pin_of;

struct InjectLog {
  std::vector<std::string> inject_events;  // flow_inject lines, in order
  std::uint64_t flows_injected = 0;
  std::string metrics_json;
};

InjectLog run() {
  const SornFabric net = build_sorn_fabric(
      CliqueAssignment::contiguous(24, 4), optimal_q(0.4, 12));
  NetworkConfig ncfg;
  ncfg.propagation_per_hop = 0;
  SlottedNetwork sim(net.schedule.get(), net.router.get(), ncfg);

  Telemetry telemetry;
  MemoryTraceSink sink;
  telemetry.set_trace_sink(&sink);
  sim.add_observer(&telemetry);

  const TrafficMatrix tm = patterns::locality_mix(*net.cliques, 0.4);
  const FlowSizeDist sizes = FlowSizeDist::pfabric_web_search();
  const double node_bw =
      static_cast<double>(sim.config().cell_bytes) * 8.0 /
      (static_cast<double>(sim.config().slot_duration) * 1e-12);
  FlowArrivals arrivals(&tm, &sizes, node_bw, /*load=*/0.5, Rng(11));
  WorkloadDriver driver(&arrivals);
  driver.run_until(sim, 1500 * sim.config().slot_duration, 1500);

  InjectLog out;
  for (const std::string& line : sink.lines())
    if (line.find("\"ev\":\"flow_inject\"") != std::string::npos)
      out.inject_events.push_back(line);
  out.flows_injected = driver.flows_injected();
  ExportOptions eopts;
  eopts.nodes = sim.node_count();
  out.metrics_json = run_to_json(sim.metrics(), &telemetry, eopts);
  return out;
}

TEST(ArrivalRngTest, ArrivalSequenceMatchesPinnedArtifacts) {
  const InjectLog log = run();
  ASSERT_GT(log.flows_injected, 0u);
  ASSERT_EQ(log.inject_events.size(), log.flows_injected);
  EXPECT_EQ(pin_of(log.inject_events), "333:16c55f51709a14a7");
  EXPECT_EQ(pin_of(log.metrics_json), "1623:50f61c007b755310");
}

}  // namespace
}  // namespace sorn
