// The slot engine against pinned bytes: each scenario's artifacts —
// metrics JSON, per-slot time-series CSV, JSONL trace — must match pins
// captured from an earlier build (pins.h), not a second run of this one.
//
// The scenarios cover the paths where the take and apply passes could
// drift from DESIGN §5's lane-major order: multi-hop relaying (pushes
// after pops), bounded queues with tail drops (queued_ahead's size
// reconstruction), multiple lanes, failures, stochastic faults with
// retransmission, a large-N schedule swap, and a full open-loop workload
// with telemetry attached. The workload, capped, faulted, large-N and
// failure pins were captured from the engine before its thread pool was
// removed; the cross-lane pins from the lane-by-lane sweep the two
// passes replaced; the wake-list pins from the node sweep the wake lists
// replaced.
#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "control/reconfig.h"
#include "fault/fault_injector.h"
#include "obs/export.h"
#include "routing/vlb.h"
#include "scenario/scenario_runner.h"
#include "sim/workload_driver.h"
#include "topo/schedule_builder.h"
#include "traffic/flow_size.h"
#include "traffic/patterns.h"
#include "pins.h"

namespace sorn {
namespace {

using pins::pin_of;
using pins::slurp;

struct Artifacts {
  std::string metrics_json;
  std::string timeseries_csv;
  std::vector<std::string> trace_lines;
  std::uint64_t delivered = 0;
  std::uint64_t dropped = 0;
  std::uint64_t forwarded = 0;
  std::uint64_t in_flight = 0;
};

// Full pipeline: SORN fabric, open-loop pFabric workload, telemetry with
// trace + time series, exported artifacts.
Artifacts run_workload() {
  const SornFabric net = build_sorn_fabric(
      CliqueAssignment::contiguous(32, 8), optimal_q(0.5, 12));
  NetworkConfig ncfg;
  ncfg.propagation_per_hop = 0;
  SlottedNetwork sim(net.schedule.get(), net.router.get(), ncfg);

  Telemetry telemetry(TelemetryOptions{.sample_every = 5});
  MemoryTraceSink sink;
  telemetry.set_trace_sink(&sink);
  sim.add_observer(&telemetry);

  const TrafficMatrix tm = patterns::locality_mix(*net.cliques, 0.5);
  const FlowSizeDist sizes = FlowSizeDist::pfabric_web_search();
  const double node_bw =
      static_cast<double>(sim.config().cell_bytes) * 8.0 /
      (static_cast<double>(sim.config().slot_duration) * 1e-12);
  FlowArrivals arrivals(&tm, &sizes, node_bw, /*load=*/0.4, Rng(1));
  WorkloadDriver driver(&arrivals);
  driver.run_until(sim, 2500 * sim.config().slot_duration, 2000);

  Artifacts out;
  ExportOptions eopts;
  eopts.nodes = sim.node_count();
  out.metrics_json = run_to_json(sim.metrics(), &telemetry, eopts);
  out.timeseries_csv = telemetry.timeseries()->to_csv();
  out.trace_lines = sink.lines();
  out.delivered = sim.metrics().delivered_cells();
  out.dropped = sim.metrics().dropped_cells();
  out.forwarded = sim.metrics().forwarded_cells();
  out.in_flight = sim.cells_in_flight();
  return out;
}

// Bounded queues under sustained overload: relays tail-drop, so the apply
// pass's capacity reconstruction (not just its event replay) is on the
// line. Two lanes shift the schedule per lane.
Artifacts run_capped() {
  const CircuitSchedule s = ScheduleBuilder::round_robin(16);
  const VlbRouter router(&s, LbMode::kRandom);
  NetworkConfig config;
  config.lanes = 2;
  config.propagation_per_hop = 0;
  config.max_queue_cells = 2;
  SlottedNetwork net(&s, &router, config);

  Telemetry telemetry;
  MemoryTraceSink sink;
  telemetry.set_trace_sink(&sink);
  net.add_observer(&telemetry);

  Rng rng(99);
  for (int round = 0; round < 400; ++round) {
    for (int k = 0; k < 6; ++k) {
      const auto src = static_cast<NodeId>(rng.next_below(16));
      auto dst = static_cast<NodeId>(rng.next_below(16));
      if (dst == src) dst = (dst + 1) % 16;
      net.inject_cell(src, dst);
    }
    net.step();
  }
  net.run(64);

  Artifacts out;
  ExportOptions eopts;
  eopts.nodes = 16;
  eopts.lanes = config.lanes;
  out.metrics_json = run_to_json(net.metrics(), &telemetry, eopts);
  out.trace_lines = sink.lines();
  out.delivered = net.metrics().delivered_cells();
  out.dropped = net.metrics().dropped_cells();
  out.forwarded = net.metrics().forwarded_cells();
  out.in_flight = net.cells_in_flight();
  return out;
}

// Failure injection mid-run: failed nodes/circuits skip transmits.
Artifacts run_failures() {
  const CircuitSchedule s = ScheduleBuilder::round_robin(12);
  const VlbRouter router(&s, LbMode::kRandom);
  NetworkConfig config;
  config.propagation_per_hop = 0;
  SlottedNetwork net(&s, &router, config);

  Rng rng(7);
  auto pump = [&](int cells) {
    for (int k = 0; k < cells; ++k) {
      const auto src = static_cast<NodeId>(rng.next_below(12));
      auto dst = static_cast<NodeId>(rng.next_below(12));
      if (dst == src) dst = (dst + 1) % 12;
      net.inject_cell(src, dst);
    }
  };
  pump(200);
  net.run(10);
  net.fail_node(3);
  net.fail_circuit(1, 5);
  pump(100);
  net.run(30);
  net.heal_node(3);
  net.heal_circuit(1, 5);
  net.run(200);

  Artifacts out;
  out.delivered = net.metrics().delivered_cells();
  out.dropped = net.metrics().dropped_cells();
  out.forwarded = net.metrics().forwarded_cells();
  out.in_flight = net.cells_in_flight();
  return out;
}

// Table-1 scale: N = 1024 with bounded queues under a drop-heavy load and
// a mid-run schedule/router swap, which rebuilds the wake lists. The
// sparse VOQ layout (lazily materialized queues, erased on drain) is hit
// with ~10^6 distinct (node, next-hop) queues, and the apply pass's
// capacity reconstruction must still replay the lane-major order exactly.
Artifacts run_large_reconfigure() {
  constexpr NodeId kNodes = 1024;
  const CircuitSchedule rr = ScheduleBuilder::round_robin(kNodes);
  const VlbRouter vlb(&rr, LbMode::kRandom);
  const CircuitSchedule rotor =
      ScheduleBuilder::rotor_random(kNodes, /*dwell_slots=*/1, /*seed=*/77);
  const VlbRouter vlb_rotor(&rotor, LbMode::kRandom);
  NetworkConfig config;
  config.propagation_per_hop = 0;
  config.max_queue_cells = 2;
  SlottedNetwork net(&rr, &vlb, config);

  Telemetry telemetry(TelemetryOptions{.sample_every = 25});
  MemoryTraceSink sink;
  telemetry.set_trace_sink(&sink);
  net.add_observer(&telemetry);

  Rng rng(13);
  for (int round = 0; round < 300; ++round) {
    if (round == 150) net.reconfigure(&rotor, &vlb_rotor);
    // 2x the per-slot service rate: queues build toward the cap and
    // tail-drop, with circuits to any given next hop ~1000 slots apart.
    for (int k = 0; k < 2048; ++k) {
      const auto src = static_cast<NodeId>(rng.next_below(kNodes));
      auto dst = static_cast<NodeId>(rng.next_below(kNodes));
      if (dst == src) dst = (dst + 1) % kNodes;
      net.inject_cell(src, dst);
    }
    net.step();
  }
  net.run(400);

  Artifacts out;
  ExportOptions eopts;
  eopts.nodes = kNodes;
  out.metrics_json = run_to_json(net.metrics(), &telemetry, eopts);
  out.timeseries_csv = telemetry.timeseries()->to_csv();
  out.trace_lines = sink.lines();
  out.delivered = net.metrics().delivered_cells();
  out.dropped = net.metrics().dropped_cells();
  out.forwarded = net.metrics().forwarded_cells();
  out.in_flight = net.cells_in_flight();
  return out;
}

// Stochastic fault injection + failure-aware routing + end-host
// retransmission: the full fault pipeline, with all fault RNG drawn
// between slots (FaultInjector::tick via the driver's slot hook).
Artifacts run_faulted_workload() {
  const SornFabric net = build_sorn_fabric(
      CliqueAssignment::contiguous(32, 8), optimal_q(0.5, 12));
  NetworkConfig ncfg;
  ncfg.propagation_per_hop = 0;
  SlottedNetwork sim(net.schedule.get(), net.router.get(), ncfg);
  net.router->set_failure_view(&sim.failure_view());

  Telemetry telemetry(TelemetryOptions{.sample_every = 5});
  MemoryTraceSink sink;
  telemetry.set_trace_sink(&sink);
  sim.add_observer(&telemetry);

  FaultInjectorOptions fopts;
  fopts.node_mtbf_slots = 900.0;
  fopts.node_mttr_slots = 300.0;
  fopts.seed = 17;
  FaultInjector injector(FaultScript{}, fopts);

  const TrafficMatrix tm = patterns::locality_mix(*net.cliques, 0.5);
  const FlowSizeDist sizes = FlowSizeDist::pfabric_web_search();
  const double node_bw =
      static_cast<double>(sim.config().cell_bytes) * 8.0 /
      (static_cast<double>(sim.config().slot_duration) * 1e-12);
  FlowArrivals arrivals(&tm, &sizes, node_bw, /*load=*/0.4, Rng(1));
  WorkloadDriver driver(&arrivals);
  driver.set_slot_hook(
      [&injector](SlottedNetwork& n, Slot) { injector.tick(n); });
  SlottedNetwork::RetransmitPolicy policy;
  policy.timeout_slots = 64;
  driver.set_retransmit(policy);
  driver.run_until(sim, 2500 * sim.config().slot_duration, 2000);

  EXPECT_GT(injector.faults_applied(), 0u)
      << "the scenario must actually fault";

  Artifacts out;
  ExportOptions eopts;
  eopts.nodes = sim.node_count();
  out.metrics_json = run_to_json(sim.metrics(), &telemetry, eopts);
  out.timeseries_csv = telemetry.timeseries()->to_csv();
  out.trace_lines = sink.lines();
  out.delivered = sim.metrics().delivered_cells();
  out.dropped = sim.metrics().dropped_cells();
  out.forwarded = sim.metrics().forwarded_cells();
  out.in_flight = sim.cells_in_flight();
  return out;
}

// pin_of() of each artifact a run writes.
struct Pins {
  std::string metrics_json;
  std::string trace_jsonl;
  std::string timeseries_csv;
};

void expect_pins(const Artifacts& run, const Pins& golden) {
  EXPECT_EQ(pin_of(run.metrics_json), golden.metrics_json);
  EXPECT_EQ(pin_of(run.trace_lines), golden.trace_jsonl);
  EXPECT_EQ(pin_of(run.timeseries_csv), golden.timeseries_csv);
}

TEST(EnginePinnedTest, WorkloadMatchesPinnedArtifacts) {
  const Artifacts run = run_workload();
  ASSERT_GT(run.delivered, 0u);
  ASSERT_GT(run.forwarded, 0u);  // relayed cells exercise deferred pushes
  ASSERT_FALSE(run.trace_lines.empty());
  expect_pins(run, {"23313:ba7dd59ad807d878", "697:ed13ea1560da1112",
                    "19600:f091c471abfd943d"});
}

TEST(EnginePinnedTest, CappedQueuesMatchPinnedArtifacts) {
  const Artifacts run = run_capped();
  ASSERT_GT(run.dropped, 0u) << "scenario must exercise tail drops";
  ASSERT_GT(run.forwarded, 0u);
  // No time series: the scenario's telemetry samples nothing.
  expect_pins(run, {"1547:dbb621c6ba9f37b7", "9514:35cac278f8e3a8fb",
                    "0:cbf29ce484222325"});
}

TEST(EnginePinnedTest, FaultInjectionMatchesPinnedArtifacts) {
  const Artifacts run = run_faulted_workload();
  ASSERT_GT(run.delivered, 0u);
  ASSERT_FALSE(run.trace_lines.empty());
  bool saw_fault_event = false;
  for (const std::string& line : run.trace_lines)
    if (line.find("\"ev\":\"node_fail\"") != std::string::npos)
      saw_fault_event = true;
  EXPECT_TRUE(saw_fault_event) << "faults must appear in the trace";
  expect_pins(run, {"25045:b0a5b8a9ffe2e11e", "9427:ae354f888c6fccba",
                    "21313:0bc87a28a3fadf95"});
}

TEST(EnginePinnedTest, LargeNReconfigureMatchesPinnedArtifacts) {
  const Artifacts run = run_large_reconfigure();
  ASSERT_GT(run.dropped, 0u) << "scenario must exercise tail drops";
  ASSERT_GT(run.forwarded, 0u);
  ASSERT_GT(run.delivered, 0u);
  expect_pins(run, {"2747:b38b2d1ebbbfc3b7", "4147632:5bbddc3f14530a7a",
                    "1005:5444aeaa28b4f842"});
}

TEST(EnginePinnedTest, FailuresMatchPinnedCounts) {
  const Artifacts run = run_failures();
  EXPECT_EQ(run.delivered, 300u);
  EXPECT_EQ(run.dropped, 0u);
  EXPECT_EQ(run.forwarded, 277u);
  EXPECT_EQ(run.in_flight, 0u);
}

// ---- Cross-lane queue sizing, pinned ----
//
// One slot takes every lane of a node before it applies any of them, so
// the queue size the capacity check and the ECN mark see must count the
// relay's pops on later lanes back in (queued_ahead). These two scenarios
// make that term decide drops and marks: vlb at N = 8 with 16 lanes has
// period 7, so lanes 0-2 share a matching and a node pops one queue up to
// three times a slot; sorn at N = 128 with 3 lanes relays across cliques.
// Both run 5-cell queues with ECN at 2 under DCTCP, through a node
// failure, a lossy circuit and a throttled circuit. The digests were
// captured from the lane-by-lane sweep the two-pass slot replaced.

ScenarioConfig cross_lane_config(const std::string& name) {
  ScenarioConfig cfg;
  if (name == "vlb-n8-16-lanes") {
    cfg.design = "vlb";
    cfg.nodes = 8;
    cfg.lanes = 16;
    cfg.traffic = TrafficKind::kUniform;
    cfg.load = 3.0;
    cfg.fault_script =
        "100 fail-node 3\n100 degrade-circuit 1 2 0.3\n"
        "100 throttle-circuit 5 6 0.4\n300 heal-node 3\n"
        "300 restore-circuit 1 2\n300 restore-circuit 5 6\n";
  } else {
    cfg.design = "sorn";
    cfg.nodes = 128;
    cfg.cliques = 8;
    cfg.locality_x = 0.6;
    cfg.lanes = 3;
    cfg.load = 0.6;
    cfg.fault_script =
        "100 fail-node 17\n100 degrade-circuit 1 2 0.3\n"
        "100 throttle-circuit 40 41 0.4\n300 heal-node 17\n"
        "300 restore-circuit 1 2\n300 restore-circuit 40 41\n";
  }
  cfg.flow_size = FlowSizeKind::kFixed;
  cfg.fixed_flow_bytes = 4096;
  cfg.slots = 400;
  cfg.drain_slots = 20000;
  cfg.max_queue_cells = 5;
  cfg.ecn_threshold_cells = 2;
  cfg.transport = "dctcp";
  cfg.retransmit_timeout = 64;
  cfg.sample_every = 25;
  return cfg;
}

Pins run_cross_lane(const std::string& name) {
  // PID-unique paths: ctest runs each TEST of this binary as its own
  // concurrent process.
  const std::string stem = testing::TempDir() + "cross_lane_" + name + "_" +
                           std::to_string(::getpid());
  ScenarioConfig cfg = cross_lane_config(name);
  cfg.trace_path = stem + ".jsonl";
  cfg.metrics_json_path = stem + ".json";
  cfg.timeseries_csv_path = stem + ".csv";
  std::string error;
  auto runner = ScenarioRunner::create(cfg, &error);
  EXPECT_NE(runner, nullptr) << name << ": " << error;
  if (runner == nullptr) return {};
  EXPECT_TRUE(runner->run(&error)) << name << ": " << error;
  const SimMetrics& m = runner->metrics();
  EXPECT_GT(m.dropped_cells() - m.gray_dropped_cells(), 0u)
      << name << ": the cap must tail-drop";
  EXPECT_GT(m.gray_dropped_cells(), 0u) << name;
  EXPECT_GT(m.ecn_marked_cells(), 0u) << name;
  Pins pins{pin_of(slurp(cfg.metrics_json_path)),
            pin_of(slurp(cfg.trace_path)),
            pin_of(slurp(cfg.timeseries_csv_path))};
  for (const std::string& path :
       {cfg.trace_path, cfg.metrics_json_path, cfg.timeseries_csv_path})
    std::remove(path.c_str());
  return pins;
}

TEST(EnginePinnedTest, CrossLaneQueueSizingMatchesPinnedArtifacts) {
  const std::pair<const char*, Pins> golden[] = {
      {"vlb-n8-16-lanes",
       {"3478:2436a4179d445650", "268845:ed5ee12131ec4857",
        "1213:a92e2b4aef0d2b0e"}},
      {"sorn-n128-3-lanes",
       {"4960:8247f488eaea9e46", "440340:0e32c98893078647",
        "2557:0c25b0f9424b06b0"}},
  };
  for (const auto& [name, pins] : golden) {
    SCOPED_TRACE(name);
    const Pins run = run_cross_lane(name);
    EXPECT_EQ(run.metrics_json, pins.metrics_json);
    EXPECT_EQ(run.trace_jsonl, pins.trace_jsonl);
    EXPECT_EQ(run.timeseries_csv, pins.timeseries_csv);
  }
}

// ---- Wake lists, pinned ----
//
// A pinned run through what the sornbench workloads never do to the take
// pass's wake lists:
//
//  - weighted SORN, whose BvN inter slots carry one circuit in several
//    distinct matchings, so one queue sits in several lists;
//  - a mid-run schedule swap to a round robin whose period (15) is below
//    the lane count (16), so lanes share a matching and walk one list
//    twice a slot, and a swap back;
//  - a node failure, a circuit failure, a lossy and a throttled circuit;
//  - 5-cell queues with ECN at 2 under DCTCP, so queued_ahead() decides
//    drops and marks.
//
// The digests were captured from the node sweep the wake lists replaced.

ScenarioConfig pinned_config() {
  ScenarioConfig cfg;
  cfg.design = "sorn";
  cfg.nodes = 16;
  cfg.cliques = 4;
  cfg.locality_x = 0.5;
  for (CliqueId a = 0; a < 4; ++a)
    for (CliqueId b = 0; b < 4; ++b)
      cfg.inter_clique_weights.push_back(a == b ? 0.0 : 1.0 + a * 4 + b);
  cfg.lanes = 16;
  cfg.load = 2.0;
  cfg.flow_size = FlowSizeKind::kFixed;
  cfg.fixed_flow_bytes = 4096;
  cfg.slots = 400;
  cfg.drain_slots = 20000;
  cfg.max_queue_cells = 5;
  cfg.ecn_threshold_cells = 2;
  cfg.transport = "dctcp";
  cfg.retransmit_timeout = 64;
  cfg.sample_every = 25;
  cfg.fault_script =
      "90 fail-node 3\n100 fail-circuit 4 9\n110 degrade-circuit 1 6 0.3\n"
      "110 throttle-circuit 5 12 0.4\n200 heal-node 3\n"
      "230 heal-circuit 4 9\n300 restore-circuit 1 6\n"
      "300 restore-circuit 5 12\n";
  return cfg;
}

Pins run_pinned() {
  // PID-unique paths: ctest runs each TEST of this binary as its own
  // concurrent process.
  const std::string stem =
      testing::TempDir() + "wake_list_" + std::to_string(::getpid());
  ScenarioConfig cfg = pinned_config();
  cfg.trace_path = stem + ".jsonl";
  cfg.metrics_json_path = stem + ".json";
  cfg.timeseries_csv_path = stem + ".csv";
  std::string error;
  auto runner = ScenarioRunner::create(cfg, &error);
  EXPECT_NE(runner, nullptr) << error;
  if (runner == nullptr) return {};

  const CircuitSchedule round_robin = ScheduleBuilder::round_robin(16);
  VlbRouter vlb(&round_robin, LbMode::kRandom);
  vlb.set_failure_view(&runner->network().failure_view());
  const CircuitSchedule* sorn_schedule = nullptr;
  const Router* sorn_router = nullptr;
  std::uint64_t queued_at_swap = 0;
  runner->set_slot_hook([&](SlottedNetwork& net, Slot slot) {
    if (slot == 150) {
      queued_at_swap = net.cells_in_flight();
      sorn_schedule = net.schedule();
      sorn_router = net.router();
      net.reconfigure(&round_robin, &vlb);
    }
    if (slot == 260) net.reconfigure(sorn_schedule, sorn_router);
  });
  EXPECT_TRUE(runner->run(&error)) << error;
  EXPECT_GT(queued_at_swap, 0u) << "swap schedules with queues occupied";
  // Some circuit of the weighted schedule rides several BvN slots, so its
  // queue sits in several wake lists.
  const CircuitSchedule& weighted = *runner->network().schedule();
  EXPECT_EQ(&weighted, sorn_schedule);
  std::vector<std::uint32_t> carriers;
  int shared = 0;
  for (NodeId i = 0; i < 16; ++i) {
    for (NodeId h = 0; h < 16; ++h) {
      weighted.carriers(i, h, &carriers);
      shared += carriers.size() > 1 ? 1 : 0;
    }
  }
  EXPECT_GT(shared, 0);
  const SimMetrics& m = runner->metrics();
  EXPECT_GT(m.dropped_cells() - m.gray_dropped_cells(), 0u)
      << "the cap must tail-drop";
  EXPECT_GT(m.gray_dropped_cells(), 0u);
  EXPECT_GT(m.ecn_marked_cells(), 0u);
  Pins pins{pin_of(slurp(cfg.metrics_json_path)),
            pin_of(slurp(cfg.trace_path)),
            pin_of(slurp(cfg.timeseries_csv_path))};
  for (const std::string& path :
       {cfg.trace_path, cfg.metrics_json_path, cfg.timeseries_csv_path})
    std::remove(path.c_str());
  return pins;
}

TEST(WakeListPinnedTest, WeightedSwapAndFaultsMatchPinnedArtifacts) {
  const Pins golden{"2982:55498f6c4210145a", "313644:d2c5a3817ce9c52b",
                    "792:5a834b8b44ace56c"};
  const Pins run = run_pinned();
  EXPECT_EQ(run.metrics_json, golden.metrics_json);
  EXPECT_EQ(run.trace_jsonl, golden.trace_jsonl);
  EXPECT_EQ(run.timeseries_csv, golden.timeseries_csv);
}

}  // namespace
}  // namespace sorn
