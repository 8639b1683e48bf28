// Backend equivalence at the scenario level: the demand backend is a
// memory-layout choice, never a semantics choice. The same scenario run
// with dense, sparse, and procedural demand — with a fault blast, a
// mid-run reconfigure, and the closed-loop control plane
// (including the degraded-estimate filter) in play — must produce
// byte-identical metrics JSON, time-series CSV and trace JSONL.
#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "scenario/scenario_runner.h"

namespace sorn {
namespace {

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

struct Artifacts {
  std::string metrics_json;
  std::string timeseries_csv;
  std::string trace_jsonl;
  std::uint64_t delivered = 0;
};

Artifacts run_scenario(DemandBackend backend) {
  // PID-unique path: ctest runs each TEST of this binary as its own
  // concurrent process, so a fixed name would collide.
  const std::string trace_path = testing::TempDir() + "backend_eq_" +
                                 std::to_string(::getpid()) + "_" +
                                 demand_backend_name(backend) + ".jsonl";

  ScenarioConfig cfg;
  cfg.design = "sorn";
  cfg.nodes = 64;
  cfg.cliques = 8;
  cfg.locality_x = 0.6;
  cfg.traffic_backend = backend;
  cfg.propagation_ns = 0;
  cfg.load = 0.4;
  cfg.slots = 400;
  cfg.drain_slots = 2000;
  cfg.sample_every = 10;
  cfg.retransmit_timeout = 64;
  // Fault blast mid-run, while the control loop replans over a stale,
  // noisy estimate — the paths where a backend could smuggle in a
  // different fold order or RNG consumption.
  cfg.fault_script = "100 fail-node 3\n100 fail-node 17\n"
                     "220 heal-node 3\n220 heal-node 17\n";
  cfg.epoch_slots = 100;
  cfg.estimate_stale_epochs = 1;
  cfg.estimate_noise = 0.1;
  cfg.trace_path = trace_path;

  std::string error;
  auto runner = ScenarioRunner::create(cfg, &error);
  EXPECT_NE(runner, nullptr) << error;
  EXPECT_EQ(runner->traffic().backend(), backend);
  // Mid-run reconfigure from the slot hook: a schedule swap on top of the
  // fault window.
  const BuiltDesign& design = runner->design();
  runner->set_slot_hook([&design](SlottedNetwork& net, Slot slot) {
    if (slot == 150) net.reconfigure(design.schedule, design.router);
  });
  EXPECT_TRUE(runner->run(&error)) << error;

  Artifacts out;
  out.metrics_json = runner->metrics_json();
  out.timeseries_csv = runner->timeseries_csv();
  out.trace_jsonl = slurp(trace_path);
  out.delivered = runner->metrics().delivered_cells();
  std::remove(trace_path.c_str());
  return out;
}

TEST(BackendEquivalenceTest, ArtifactsAreByteIdenticalAcrossBackends) {
  const Artifacts want = run_scenario(DemandBackend::kDense);
  EXPECT_GT(want.delivered, 0u);
  EXPECT_FALSE(want.trace_jsonl.empty());
  for (const DemandBackend backend :
       {DemandBackend::kSparse, DemandBackend::kProcedural}) {
    const Artifacts got = run_scenario(backend);
    const char* label = demand_backend_name(backend);
    EXPECT_EQ(got.metrics_json, want.metrics_json) << label;
    EXPECT_EQ(got.timeseries_csv, want.timeseries_csv) << label;
    EXPECT_EQ(got.trace_jsonl, want.trace_jsonl) << label;
  }
}

TEST(BackendEquivalenceTest, SaturationWorkloadMatchesAcrossBackends) {
  // The closed-loop saturation sources draw destinations straight from
  // the demand (sample_dst) — cover that RNG path too.
  auto run_sat = [](DemandBackend backend) {
    ScenarioConfig cfg;
    cfg.design = "sorn";
    cfg.nodes = 32;
    cfg.cliques = 4;
    cfg.locality_x = 0.7;
    cfg.traffic_backend = backend;
    cfg.propagation_ns = 0;
    cfg.workload = WorkloadKind::kSaturation;
    cfg.warmup_slots = 500;
    cfg.measure_slots = 1000;
    std::string error;
    auto runner = ScenarioRunner::create(cfg, &error);
    EXPECT_NE(runner, nullptr) << error;
    EXPECT_TRUE(runner->run(&error)) << error;
    return std::pair<double, std::string>(runner->saturation_r(),
                                          runner->metrics_json());
  };
  const auto want = run_sat(DemandBackend::kDense);
  const auto sparse = run_sat(DemandBackend::kSparse);
  const auto proc = run_sat(DemandBackend::kProcedural);
  EXPECT_GT(want.first, 0.0);
  EXPECT_EQ(sparse.first, want.first);
  EXPECT_EQ(proc.first, want.first);
  EXPECT_EQ(sparse.second, want.second);
  EXPECT_EQ(proc.second, want.second);
}

TEST(BackendEquivalenceTest, TrafficAccessorAssertsBeforeCreate) {
  // Satellite of the handle refactor: the runner exposes the demand only
  // after create() built it; there is no placeholder matrix to read.
  std::string error;
  ScenarioConfig cfg;
  cfg.nodes = 16;
  cfg.cliques = 4;
  auto runner = ScenarioRunner::create(cfg, &error);
  ASSERT_NE(runner, nullptr) << error;
  EXPECT_EQ(runner->traffic().node_count(), 16);
}

}  // namespace
}  // namespace sorn
