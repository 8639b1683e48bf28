// Golden metrics: one small pinned scenario per registered design. The
// exact flow counts, delivered cells, mean hops and median cell latency
// are part of the determinism contract — any change to schedules,
// routing, the slot engine or the scenario wiring that moves these
// numbers must be intentional and update them here.
#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <numeric>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "control/control_plane.h"
#include "fault/fault_injector.h"
#include "scenario/scenario_runner.h"
#include "sim/saturation.h"
#include "traffic/patterns.h"

namespace sorn {
namespace {

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

// FNV-1a with sornbench's offset basis (its digest_of), so a pin here
// reads the same as a digest computed there.
std::string digest_of(const std::string& text) {
  std::uint64_t h = 1469598103934665603ULL;
  for (const unsigned char c : text) {
    h ^= c;
    h *= 1099511628211ULL;
  }
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(h));
  return buf;
}

// 16 nodes fits every design: even (opera), 4^2 (orn-hd), 4x4
// (orn-mixed), 4 cliques (sorn), 2 clusters x 2 pods (hier).
ScenarioConfig pinned_config(const std::string& design) {
  ScenarioConfig cfg;
  cfg.design = design;
  cfg.nodes = 16;
  cfg.cliques = 4;
  cfg.clusters = 2;
  cfg.pods_per_cluster = 2;
  cfg.orn_dims = 2;
  cfg.dwell_slots = 10;
  cfg.slots = 2000;
  cfg.load = 0.3;
  cfg.flow_size = FlowSizeKind::kFixed;
  cfg.fixed_flow_bytes = 2560;  // 10 cells per flow
  return cfg;
}

struct Golden {
  const char* design;
  std::uint64_t flows;
  std::uint64_t delivered_cells;
  double mean_hops;
  double cell_lat_p50_ps;
};

// Captured from a run of pinned_config().
constexpr Golden kGolden[] = {
    {"hier", 961u, 9610u, 2.256400, 4550000},
    {"opera", 961u, 9610u, 1.000000, 13000000},
    {"orn-hd", 961u, 9610u, 2.998231, 11100000},
    {"orn-mixed", 961u, 9610u, 3.483247, 48900000},
    {"rotor", 961u, 9610u, 1.934131, 14300000},
    {"sorn", 961u, 9610u, 2.121228, 4200000},
    {"vlb", 961u, 9610u, 1.934131, 4200000},
};

std::unique_ptr<ScenarioRunner> run_pinned(const ScenarioConfig& cfg) {
  std::string error;
  auto runner = ScenarioRunner::create(cfg, &error);
  EXPECT_NE(runner, nullptr) << cfg.design << ": " << error;
  if (runner == nullptr) return nullptr;
  EXPECT_TRUE(runner->run(&error)) << cfg.design << ": " << error;
  return runner;
}

TEST(GoldenMetricsTest, EveryDesignMatchesPinnedMetrics) {
  // The golden table covers exactly the registered designs.
  const std::vector<std::string> names = DesignRegistry::instance().names();
  ASSERT_EQ(names.size(), std::size(kGolden));

  for (const Golden& g : kGolden) {
    auto runner = run_pinned(pinned_config(g.design));
    ASSERT_NE(runner, nullptr);
    EXPECT_EQ(runner->flows_injected(), g.flows) << g.design;
    EXPECT_EQ(runner->metrics().delivered_cells(), g.delivered_cells)
        << g.design;
    EXPECT_NEAR(runner->metrics().mean_hops(), g.mean_hops, 1e-6) << g.design;
    EXPECT_DOUBLE_EQ(runner->metrics().cell_latency_ps().percentile(50.0),
                     g.cell_lat_p50_ps)
        << g.design;
    EXPECT_EQ(runner->metrics().dropped_cells(), 0u) << g.design;
  }
}

TEST(GoldenMetricsTest, EveryDesignMatchesPinnedMetricsJson) {
  // The full exported document — every counter, histogram and percentile
  // — of each design's pinned_config() run, captured from an earlier
  // build.
  const std::pair<const char*, const char*> golden[] = {
      {"hier", "d4689522fb2e5d83"},
      {"opera", "8a4ede56ab4d8688"},
      {"orn-hd", "11d68528b9418834"},
      {"orn-mixed", "74837c58493d3539"},
      {"rotor", "c340a20b0534e9db"},
      {"sorn", "11194ca4748e4d9d"},
      {"vlb", "48ed700be04c1bf4"},
  };
  ASSERT_EQ(std::size(golden), std::size(kGolden));
  for (const auto& [design, digest] : golden) {
    auto runner = run_pinned(pinned_config(design));
    ASSERT_NE(runner, nullptr);
    EXPECT_EQ(digest_of(runner->metrics_json()), digest) << design;
  }
}

TEST(GoldenMetricsTest, RunnerMatchesHandBuiltSorn) {
  // The scenario path must be observationally identical to building the
  // same fabric by hand, the way pre-scenario callers did.
  ScenarioConfig cfg = pinned_config("sorn");
  cfg.workload = WorkloadKind::kSaturation;
  cfg.warmup_slots = 1000;
  cfg.measure_slots = 2000;
  auto runner = run_pinned(cfg);
  ASSERT_NE(runner, nullptr);

  const SornFabric net = build_sorn_fabric(
      CliqueAssignment::contiguous(cfg.nodes, cfg.cliques),
      optimal_q(cfg.locality_x, cfg.max_q_denominator));
  NetworkConfig ncfg;
  ncfg.slot_duration = cfg.slot_ns * 1000;
  ncfg.propagation_per_hop = cfg.propagation_ns * 1000;
  SlottedNetwork sim(net.schedule.get(), net.router.get(), ncfg);
  const TrafficMatrix tm = patterns::locality_mix(*net.cliques,
                                                  cfg.locality_x);
  SaturationSource source(&tm, SaturationConfig{});
  const double by_hand = source.measure(sim, 1000, 2000);

  EXPECT_DOUBLE_EQ(runner->saturation_r(), by_hand);
  EXPECT_EQ(runner->metrics().delivered_cells(),
            sim.metrics().delivered_cells());
}

// ---- The control loop, pinned across commits ----
//
// ci/scenarios/control_replan.json: N = 96 with a noisy (0.5) estimate
// every 200 slots, two nodes failing at slot 500 and healing at 1000, so
// three replans. Its trace's replan events carry the
// estimator's macro_change, locality_estimate and planned_locality at
// full precision, so any change to the estimator, the noise filter, the
// failure mask or the optimizer that moves one bit moves these digests.

ScenarioConfig ci_scenario(const std::string& file) {
  ScenarioConfig cfg;
  std::string error;
  EXPECT_TRUE(ScenarioConfig::load_file(
      std::string(SORN_SOURCE_DIR) + "/ci/scenarios/" + file, &cfg, &error))
      << error;
  return cfg;
}

// A run of `cfg` with its metrics JSON and trace written to temporary
// files, and the digests of both.
struct DigestedRun {
  std::unique_ptr<ScenarioRunner> runner;
  std::string metrics;
  std::string trace;
};

DigestedRun run_digested(ScenarioConfig cfg, const std::string& name) {
  const std::string stem =
      testing::TempDir() + name + "_" + std::to_string(::getpid());
  cfg.trace_path = stem + ".jsonl";
  cfg.metrics_json_path = stem + ".json";
  DigestedRun run;
  run.runner = run_pinned(cfg);
  run.metrics = digest_of(slurp(cfg.metrics_json_path));
  run.trace = digest_of(slurp(cfg.trace_path));
  std::remove(cfg.trace_path.c_str());
  std::remove(cfg.metrics_json_path.c_str());
  return run;
}

TEST(GoldenMetricsTest, ControlReplanScenarioMatchesPinnedArtifacts) {
  const DigestedRun run =
      run_digested(ci_scenario("control_replan.json"), "control_replan");
  ASSERT_NE(run.runner, nullptr);
  EXPECT_EQ(run.runner->control()->replans(), 3u);
  EXPECT_EQ(run.metrics, "fb023c3530f92e18");
  EXPECT_EQ(run.trace, "802437345e85a80c");
}

// ---- The closed-loop transport, pinned across commits ----
//
// DctcpTransport::pump() decides every injection of a DCTCP run, and so
// every router RNG draw and every queue the ECN mark and the cap see.
// These digests compare it with the commit they were captured at. Both
// runs drop cells at a capped queue, ECN-mark others and retransmit the
// drops, so each part of the loop feeds the next.

TEST(GoldenMetricsTest, IncastDctcpScenarioMatchesPinnedArtifacts) {
  // ci/scenarios/incast_dctcp.json: 32:1 incast into 32-cell queues,
  // marking at 8 cells, a 256-slot retransmit timeout.
  const DigestedRun run =
      run_digested(ci_scenario("incast_dctcp.json"), "incast_dctcp");
  ASSERT_NE(run.runner, nullptr);
  const SimMetrics& m = run.runner->metrics();
  EXPECT_GT(m.dropped_cells(), 0u);
  EXPECT_GT(m.ecn_marked_cells(), 0u);
  EXPECT_GT(m.retransmitted_cells(), 0u);
  EXPECT_EQ(run.metrics, "aa7b1e259644d1f2");
  EXPECT_EQ(run.trace, "b15409b45d0a42ee");
}

TEST(GoldenMetricsTest, WebSearchDctcpRunMatchesPinnedArtifacts) {
  // 204 web-search flows (capped at 64 KiB) among 32 nodes on two lanes,
  // into 8-cell queues marking at 4 cells: many windows open at once, cut
  // and regrow, and the 128-slot stall timeout re-sends what the cap
  // dropped.
  ScenarioConfig cfg;
  std::string error;
  ASSERT_TRUE(ScenarioConfig::from_json(
      R"({"design": "sorn", "nodes": 32, "cliques": 4, "locality": 0.6,
          "lanes": 2, "propagation_ns": 0, "workload": "flows",
          "flow_size": "pfabric-web-search", "flow_size_cap": 65536,
          "load": 10, "slots": 3000, "drain_slots": 20000,
          "max_queue_cells": 8, "ecn_threshold_cells": 4,
          "transport": "dctcp", "init_cwnd_cells": 8, "max_cwnd_cells": 64,
          "retransmit_timeout": 128, "retransmit_max_attempts": 16})",
      &cfg, &error))
      << error;
  const DigestedRun run = run_digested(cfg, "websearch_dctcp");
  ASSERT_NE(run.runner, nullptr);
  const SimMetrics& m = run.runner->metrics();
  EXPECT_GT(m.dropped_cells(), 0u);
  EXPECT_GT(m.ecn_marked_cells(), 0u);
  EXPECT_GT(m.retransmitted_cells(), 0u);
  EXPECT_EQ(run.metrics, "7ebc2dd84da72e47");
  EXPECT_EQ(run.trace, "72ea96630a1cd238");
}

// ---- Closed-loop workloads run the one slot loop ----
//
// WorkloadDriver advances a saturation run's warmup and measured slots
// with the body every workload's slots get, so the user slot hook, the
// fault injector and the control loop all tick there.

TEST(GoldenMetricsTest, SlotHookRunsOnEveryClosedLoopSlot) {
  for (const WorkloadKind workload :
       {WorkloadKind::kSaturation, WorkloadKind::kFlowSaturation}) {
    ScenarioConfig cfg = pinned_config("sorn");
    cfg.workload = workload;
    cfg.warmup_slots = 300;
    cfg.measure_slots = 500;
    std::string error;
    const auto runner = ScenarioRunner::create(cfg, &error);
    ASSERT_NE(runner, nullptr) << error;
    std::vector<Slot> seen;
    runner->set_slot_hook([&seen](SlottedNetwork& net, Slot slot) {
      EXPECT_EQ(slot, net.now());
      seen.push_back(slot);
    });
    ASSERT_TRUE(runner->run(&error)) << error;
    std::vector<Slot> every_slot(800);
    std::iota(every_slot.begin(), every_slot.end(), Slot{0});
    EXPECT_EQ(seen, every_slot);
  }
}

// A saturation run under a node, circuit and gray fault script and the
// control loop on a noisy estimate, checking every slot's invariants
// across the warmup's metrics reset. CI runs the same scenario through
// sorn_tool twice and compares the artifacts.
TEST(GoldenMetricsTest, FaultedControlledSaturationMatchesPinnedArtifacts) {
  ScenarioConfig cfg;
  std::string error;
  ASSERT_TRUE(ScenarioConfig::from_json(
      R"({"design": "sorn", "nodes": 64, "cliques": 8, "locality": 0.6,
          "workload": "saturation", "warmup_slots": 600,
          "measure_slots": 900, "epoch_slots": 300, "estimate_noise": 0.5,
          "sample_every": 25, "check_invariants": true,
          "fault_script": "200 fail-node 5\n200 fail-circuit 9 20\n400 degrade-circuit 12 40 0.3\n400 throttle-circuit 33 2 0.5\n700 heal-node 5\n900 heal-circuit 9 20\n1000 restore-circuit 12 40\n1000 restore-circuit 33 2\n"})",
      &cfg, &error))
      << error;
  const DigestedRun first = run_digested(cfg, "faulted_saturation");
  const DigestedRun second = run_digested(cfg, "faulted_saturation");
  ASSERT_NE(first.runner, nullptr);
  ASSERT_NE(second.runner, nullptr);
  const InvariantChecker* checker = first.runner->invariant_checker();
  ASSERT_NE(checker, nullptr);
  EXPECT_TRUE(checker->ok());
  EXPECT_EQ(checker->slots_checked(), 1500u);
  EXPECT_EQ(first.runner->injector()->faults_applied(), 8u);
  EXPECT_GT(first.runner->control()->replans(), 0u);
  EXPECT_GT(first.runner->saturation_r(), 0.0);
  EXPECT_EQ(first.metrics, second.metrics);
  EXPECT_EQ(first.trace, second.trace);
  EXPECT_EQ(first.metrics, "4f95e29b31e72fd3");
  EXPECT_EQ(first.trace, "d3d884745c51ab55");
}

}  // namespace
}  // namespace sorn
