// Integration of the telemetry facade with the simulator and the control
// plane: events land in the trace with the right shape, counters count,
// and the sampler sees the per-slot trajectory.
#include "sim/telemetry.h"

#include <gtest/gtest.h>

#include "control/control_plane.h"
#include "routing/direct.h"
#include "routing/vlb.h"
#include "sim/network.h"
#include "topo/schedule_builder.h"
#include "traffic/trace.h"

namespace sorn {
namespace {

NetworkConfig fast_config() {
  NetworkConfig c;
  c.lanes = 1;
  c.propagation_per_hop = 0;
  return c;
}

bool has_event(const MemoryTraceSink& sink, const std::string& needle) {
  for (const auto& line : sink.lines())
    if (line.find(needle) != std::string::npos) return true;
  return false;
}

TEST(TelemetryIntegrationTest, FlowLifecycleIsTraced) {
  const CircuitSchedule s = ScheduleBuilder::round_robin(4);
  const DirectRouter router;
  SlottedNetwork net(&s, &router, fast_config());
  Telemetry telemetry;
  MemoryTraceSink sink;
  telemetry.set_trace_sink(&sink);
  net.add_observer(&telemetry);

  net.inject_flow(/*flow=*/7, /*src=*/0, /*dst=*/1, /*bytes=*/256,
                  /*flow_class=*/1);
  net.run(5);
  EXPECT_TRUE(has_event(sink, "\"ev\":\"flow_inject\",\"slot\":0,\"flow\":7"));
  EXPECT_TRUE(has_event(sink, "\"ev\":\"flow_complete\""));
  EXPECT_TRUE(has_event(sink, "\"class\":1"));
  EXPECT_EQ(telemetry.counters().flows_injected, 1u);
}

TEST(TelemetryIntegrationTest, DropAndFailureEventsAreTraced) {
  const CircuitSchedule s = ScheduleBuilder::round_robin(4);
  const DirectRouter router;
  NetworkConfig cfg = fast_config();
  cfg.max_queue_cells = 1;
  SlottedNetwork net(&s, &router, cfg);
  Telemetry telemetry;
  MemoryTraceSink sink;
  telemetry.set_trace_sink(&sink);
  net.add_observer(&telemetry);

  // Two cells into the same (0 -> 3) VOQ: the second tail-drops.
  net.inject_cell(0, 3);
  net.inject_cell(0, 3);
  EXPECT_EQ(net.metrics().dropped_cells(), 1u);
  EXPECT_TRUE(has_event(sink, "\"ev\":\"cell_drop\""));
  EXPECT_EQ(telemetry.counters().cells_dropped, 1u);

  net.fail_node(2);
  net.fail_circuit(0, 1);
  net.heal_node(2);
  net.heal_circuit(0, 1);
  EXPECT_TRUE(has_event(sink, "\"ev\":\"node_fail\",\"slot\":0,\"node\":2"));
  EXPECT_TRUE(has_event(sink, "\"ev\":\"circuit_fail\""));
  EXPECT_TRUE(has_event(sink, "\"ev\":\"node_heal\""));
  EXPECT_TRUE(has_event(sink, "\"ev\":\"circuit_heal\""));
  EXPECT_EQ(telemetry.counters().failures, 2u);
}

TEST(TelemetryIntegrationTest, SamplerRecordsDecimatedTrajectory) {
  const CircuitSchedule s = ScheduleBuilder::round_robin(4);
  const DirectRouter router;
  SlottedNetwork net(&s, &router, fast_config());
  Telemetry telemetry(TelemetryOptions{.sample_every = 4});
  net.add_observer(&telemetry);

  net.inject_cell(0, 1);
  net.run(9);  // slots 0..8 -> samples at 0, 4, 8
  ASSERT_NE(telemetry.timeseries(), nullptr);
  const auto& samples = telemetry.timeseries()->samples();
  ASSERT_EQ(samples.size(), 3u);
  EXPECT_EQ(samples[0].slot, 0);
  EXPECT_EQ(samples[1].slot, 4);
  EXPECT_EQ(samples[2].slot, 8);
  // The single cell was injected before slot 0's sample and delivered in
  // slot 0 (circuit 0->1 up at slot 0).
  EXPECT_EQ(samples[0].injected, 1u);
  EXPECT_EQ(samples[0].delivered, 1u);
  EXPECT_EQ(samples[0].queued_cells, 0u);
}

TEST(TelemetryIntegrationTest, ReconfigureIsTraced) {
  const CircuitSchedule s = ScheduleBuilder::round_robin(4);
  const CircuitSchedule s2 = ScheduleBuilder::round_robin(4);
  const DirectRouter router;
  SlottedNetwork net(&s, &router, fast_config());
  Telemetry telemetry;
  MemoryTraceSink sink;
  telemetry.set_trace_sink(&sink);
  net.add_observer(&telemetry);

  net.run(3);
  net.reconfigure(&s2, &router);
  EXPECT_TRUE(has_event(sink, "\"ev\":\"reconfigure\",\"slot\":3"));
  EXPECT_EQ(telemetry.counters().reconfigures, 1u);
}

TEST(TelemetryIntegrationTest, ControlPlaneReplanReasonsAreTraced) {
  SyntheticTrace::Config cfg;
  cfg.nodes = 32;
  cfg.group_size = 8;
  cfg.burst_sigma = 0.2;
  cfg.seed = 9;
  SyntheticTrace trace(cfg);

  ControlPlane::Options opts;
  opts.optimizer.candidate_nc = {4, 8};
  opts.replan_threshold = 0.4;
  ControlPlane cp(32, opts);
  Telemetry telemetry;
  MemoryTraceSink sink;
  telemetry.set_trace_sink(&sink);
  cp.set_tracer(&telemetry.tracer());

  // First epoch plans unconditionally.
  EXPECT_TRUE(cp.on_epoch(trace.epoch_matrix(), 0));
  EXPECT_TRUE(has_event(sink, "\"ev\":\"replan\""));
  EXPECT_TRUE(has_event(sink, "\"reason\":\"first_observation\""));
  EXPECT_TRUE(has_event(sink, "\"ev\":\"reconfig_staged\""));

  // A placement shuffle moves the macro pattern past the threshold.
  cp.on_epoch(trace.epoch_matrix(), 100);
  trace.shuffle_roles();
  bool replanned = false;
  for (int e = 2; e < 6 && !replanned; ++e)
    replanned = cp.on_epoch(trace.epoch_matrix(), e * 100);
  ASSERT_TRUE(replanned);
  EXPECT_TRUE(has_event(sink, "\"reason\":\"threshold\""));

  // Applying the staged swap emits reconfig_applied (and the network's
  // own reconfigure event when the network is instrumented too).
  const CircuitSchedule initial = ScheduleBuilder::round_robin(32);
  const VlbRouter vlb(&initial, LbMode::kRandom);
  NetworkConfig netcfg;
  netcfg.propagation_per_hop = 0;
  SlottedNetwork net(&initial, &vlb, netcfg);
  net.add_observer(&telemetry);
  // Tick well past the staged swap's due slot (epoch slot + update delay).
  EXPECT_TRUE(cp.tick(net, 100000));
  EXPECT_TRUE(has_event(sink, "\"ev\":\"reconfig_applied\""));
  EXPECT_TRUE(has_event(sink, "\"ev\":\"reconfigure\""));
}

}  // namespace
}  // namespace sorn
