// Parallel engine equivalence: for the same seed, the sharded slot engine
// must produce byte-identical artifacts — metrics JSON, per-slot
// time-series CSV, JSONL trace — at any thread count, including thread
// counts that do not divide the node count and exceed the host's cores.
//
// Scenarios deliberately cover the paths where a sharded take pass could
// diverge from one shard: multi-hop relaying (deferred pushes), bounded
// queues with tail drops (queued_ahead's size reconstruction), multiple
// lanes, failures, and a full open-loop workload with telemetry attached.
// One case also pins artifacts captured from the lane-by-lane sweep, and
// one pins a run through what the take pass's wake lists must survive.
#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdio>
#include <fstream>
#include <sstream>
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

namespace sorn {
namespace {

constexpr int kThreadCounts[] = {1, 2, 7};

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
Artifacts run_workload(int threads) {
  const SornFabric net = build_sorn_fabric(
      CliqueAssignment::contiguous(32, 8), optimal_q(0.5, 12));
  NetworkConfig ncfg;
  ncfg.propagation_per_hop = 0;
  SlottedNetwork sim(net.schedule.get(), net.router.get(), ncfg);
  sim.set_threads(threads);

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

// Bounded queues under sustained overload: relays tail-drop, so the merge
// phase's capacity reconstruction (not just its event replay) is on the
// line. Two lanes shift the schedule per lane.
Artifacts run_capped(int threads) {
  const CircuitSchedule s = ScheduleBuilder::round_robin(16);
  const VlbRouter router(&s, LbMode::kRandom);
  NetworkConfig config;
  config.lanes = 2;
  config.propagation_per_hop = 0;
  config.max_queue_cells = 2;
  SlottedNetwork net(&s, &router, config);
  net.set_threads(threads);

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

// Failure injection mid-run: failed nodes/circuits skip transmits, which
// must shard identically.
Artifacts run_failures(int threads) {
  const CircuitSchedule s = ScheduleBuilder::round_robin(12);
  const VlbRouter router(&s, LbMode::kRandom);
  NetworkConfig config;
  config.propagation_per_hop = 0;
  SlottedNetwork net(&s, &router, config);
  net.set_threads(threads);

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

// Table-1-scale sharding: N = 1024 with bounded queues under a drop-heavy
// load and a mid-run schedule/router swap. At this size every thread count
// carves the node range into different shard boundaries than the small-N
// scenarios, and the sparse VOQ layout (lazily materialized queues, erased
// on drain) is hit with ~10^6 distinct (node, next-hop) queues — the merge
// phase's capacity reconstruction must still replay the sequential order
// exactly.
Artifacts run_large_reconfigure(int threads) {
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
  net.set_threads(threads);

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
// retransmission, the full fault pipeline of this PR. All fault RNG is
// drawn on the coordinating thread (FaultInjector::tick via the driver's
// slot hook), so the artifacts must stay byte-identical at any thread
// count even with faults firing mid-run.
Artifacts run_faulted_workload(int threads) {
  const SornFabric net = build_sorn_fabric(
      CliqueAssignment::contiguous(32, 8), optimal_q(0.5, 12));
  NetworkConfig ncfg;
  ncfg.propagation_per_hop = 0;
  SlottedNetwork sim(net.schedule.get(), net.router.get(), ncfg);
  sim.set_threads(threads);
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
  WorkloadDriver::RetransmitOptions ropts;
  ropts.timeout_slots = 64;
  driver.set_retransmit(ropts);
  driver.run_until(sim, 2500 * sim.config().slot_duration, 2000);

  EXPECT_GT(injector.faults_applied(), 0u)
      << "the scenario must actually fault (threads=" << threads << ")";

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

void expect_identical(const Artifacts& base, const Artifacts& other,
                      int threads) {
  EXPECT_EQ(base.metrics_json, other.metrics_json) << "threads=" << threads;
  EXPECT_EQ(base.timeseries_csv, other.timeseries_csv)
      << "threads=" << threads;
  EXPECT_EQ(base.trace_lines, other.trace_lines) << "threads=" << threads;
  EXPECT_EQ(base.delivered, other.delivered) << "threads=" << threads;
  EXPECT_EQ(base.dropped, other.dropped) << "threads=" << threads;
  EXPECT_EQ(base.forwarded, other.forwarded) << "threads=" << threads;
  EXPECT_EQ(base.in_flight, other.in_flight) << "threads=" << threads;
}

TEST(ParallelEquivalenceTest, WorkloadArtifactsAreByteIdentical) {
  const Artifacts base = run_workload(1);
  ASSERT_GT(base.delivered, 0u);
  ASSERT_GT(base.forwarded, 0u);  // relayed cells exercise deferred pushes
  ASSERT_FALSE(base.trace_lines.empty());
  for (const int threads : kThreadCounts) {
    if (threads == 1) continue;
    expect_identical(base, run_workload(threads), threads);
  }
}

TEST(ParallelEquivalenceTest, CappedQueuesDropIdentically) {
  const Artifacts base = run_capped(1);
  ASSERT_GT(base.dropped, 0u) << "scenario must exercise tail drops";
  ASSERT_GT(base.forwarded, 0u);
  for (const int threads : kThreadCounts) {
    if (threads == 1) continue;
    expect_identical(base, run_capped(threads), threads);
  }
}

// Acceptance criterion of the fault-injection PR: stochastic faults plus
// retransmission, byte-identical at 1 vs 4 threads (and a non-dividing
// count for good measure).
TEST(ParallelEquivalenceTest, FaultInjectionArtifactsAreByteIdentical) {
  const Artifacts base = run_faulted_workload(1);
  ASSERT_GT(base.delivered, 0u);
  ASSERT_FALSE(base.trace_lines.empty());
  bool saw_fault_event = false;
  for (const std::string& line : base.trace_lines)
    if (line.find("\"ev\":\"node_fail\"") != std::string::npos)
      saw_fault_event = true;
  EXPECT_TRUE(saw_fault_event) << "faults must appear in the trace";
  for (const int threads : {4, 7})
    expect_identical(base, run_faulted_workload(threads), threads);
}

// Acceptance criterion of the sparse-VOQ PR: large-N artifacts (drops +
// mid-run reconfigure) byte-identical at 1 vs 2 vs 7 threads.
TEST(ParallelEquivalenceTest, LargeNReconfigureArtifactsAreByteIdentical) {
  const Artifacts base = run_large_reconfigure(1);
  ASSERT_GT(base.dropped, 0u) << "scenario must exercise tail drops";
  ASSERT_GT(base.forwarded, 0u);
  ASSERT_GT(base.delivered, 0u);
  for (const int threads : kThreadCounts) {
    if (threads == 1) continue;
    expect_identical(base, run_large_reconfigure(threads), threads);
  }
}

TEST(ParallelEquivalenceTest, FailuresShardIdentically) {
  const Artifacts base = run_failures(1);
  ASSERT_GT(base.delivered, 0u);
  for (const int threads : kThreadCounts) {
    if (threads == 1) continue;
    expect_identical(base, run_failures(threads), threads);
  }
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

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

// FNV-1a 64 of an artifact, with its length: equal pins stand for equal
// bytes.
std::string pin_of(const std::string& text) {
  std::uint64_t h = 14695981039346656037ULL;
  for (const unsigned char c : text) {
    h ^= c;
    h *= 1099511628211ULL;
  }
  char buf[48];
  std::snprintf(buf, sizeof(buf), "%zu:%016llx", text.size(),
                static_cast<unsigned long long>(h));
  return buf;
}

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

// pin_of() of each artifact a run writes.
struct Pins {
  std::string metrics_json;
  std::string trace_jsonl;
  std::string timeseries_csv;
};

Pins run_cross_lane(const std::string& name, int threads) {
  // PID-unique paths: ctest runs each TEST of this binary as its own
  // concurrent process.
  const std::string stem = testing::TempDir() + "cross_lane_" + name + "_" +
                           std::to_string(::getpid()) + "_" +
                           std::to_string(threads);
  ScenarioConfig cfg = cross_lane_config(name);
  cfg.threads = threads;
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

TEST(ParallelEquivalenceTest, CrossLaneQueueSizingMatchesPinnedArtifacts) {
  const std::pair<const char*, Pins> golden[] = {
      {"vlb-n8-16-lanes",
       {"3478:2436a4179d445650", "268845:ed5ee12131ec4857",
        "1213:a92e2b4aef0d2b0e"}},
      {"sorn-n128-3-lanes",
       {"4960:8247f488eaea9e46", "440340:0e32c98893078647",
        "2557:0c25b0f9424b06b0"}},
  };
  for (const auto& [name, pins] : golden) {
    for (const int threads : {1, 2, 3}) {
      SCOPED_TRACE(std::string(name) + " threads=" + std::to_string(threads));
      const Pins run = run_cross_lane(name, threads);
      EXPECT_EQ(run.metrics_json, pins.metrics_json);
      EXPECT_EQ(run.trace_jsonl, pins.trace_jsonl);
      EXPECT_EQ(run.timeseries_csv, pins.timeseries_csv);
    }
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
//  - a thread-count switch while queues are occupied, and a switch back;
//  - a node failure, a circuit failure, a lossy and a throttled circuit;
//  - 5-cell queues with ECN at 2 under DCTCP, so queued_ahead() decides
//    drops and marks.
//
// The digests were captured from the node sweep the wake lists replaced,
// and every thread count must reproduce them.

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

Pins run_pinned(int threads) {
  // PID-unique paths: ctest runs each TEST of this binary as its own
  // concurrent process.
  const std::string stem = testing::TempDir() + "wake_list_" +
                           std::to_string(::getpid()) + "_" +
                           std::to_string(threads);
  ScenarioConfig cfg = pinned_config();
  cfg.threads = threads;
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
  std::uint64_t queued_at_switch = 0;
  std::uint64_t queued_at_swap = 0;
  runner->set_slot_hook([&](SlottedNetwork& net, Slot slot) {
    if (slot == 120 || slot == 300) {
      if (slot == 120) queued_at_switch = net.cells_in_flight();
      net.set_threads(slot == 120 ? threads % 3 + 1 : threads);
    }
    if (slot == 150) {
      queued_at_swap = net.cells_in_flight();
      sorn_schedule = net.schedule();
      sorn_router = net.router();
      net.reconfigure(&round_robin, &vlb);
    }
    if (slot == 260) net.reconfigure(sorn_schedule, sorn_router);
  });
  EXPECT_TRUE(runner->run(&error)) << error;
  EXPECT_GT(queued_at_switch, 0u) << "switch threads with queues occupied";
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

TEST(WakeListPinnedTest, WeightedSwapReshardAndFaultsMatchPinnedArtifacts) {
  const Pins golden{"2982:55498f6c4210145a", "313644:d2c5a3817ce9c52b",
                    "792:5a834b8b44ace56c"};
  for (const int threads : {1, 2, 3}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    const Pins run = run_pinned(threads);
    EXPECT_EQ(run.metrics_json, golden.metrics_json);
    EXPECT_EQ(run.trace_jsonl, golden.trace_jsonl);
    EXPECT_EQ(run.timeseries_csv, golden.timeseries_csv);
  }
}

TEST(ParallelEquivalenceTest, SwitchingThreadCountsMidRunIsSeamless) {
  // One network, thread count changed between (not within) slots: the
  // trajectory must match an all-sequential run.
  const CircuitSchedule s = ScheduleBuilder::round_robin(8);
  const VlbRouter router(&s, LbMode::kRandom);
  NetworkConfig config;
  config.propagation_per_hop = 0;

  auto run = [&](bool reshard) {
    SlottedNetwork net(&s, &router, config);
    Rng rng(5);
    for (int round = 0; round < 120; ++round) {
      if (reshard && round % 30 == 0) net.set_threads(1 + (round / 30) % 4);
      const auto src = static_cast<NodeId>(rng.next_below(8));
      auto dst = static_cast<NodeId>(rng.next_below(8));
      if (dst == src) dst = (dst + 1) % 8;
      net.inject_cell(src, dst);
      net.step();
    }
    net.run(50);
    return net.metrics().delivered_cells();
  };
  EXPECT_EQ(run(false), run(true));
}

}  // namespace
}  // namespace sorn
