#include "control/control_plane.h"

#include <gtest/gtest.h>

#include "obs/json_parse.h"
#include "routing/vlb.h"
#include "scenario/scenario_runner.h"
#include "topo/schedule_builder.h"
#include "traffic/trace.h"

namespace sorn {
namespace {

ControlPlane::Options test_options() {
  ControlPlane::Options opts;
  opts.optimizer.candidate_nc = {4, 8};
  opts.replan_threshold = 0.3;
  return opts;
}

TEST(ControlPlaneTest, FirstEpochAlwaysPlans) {
  SyntheticTrace::Config cfg;
  cfg.nodes = 32;
  cfg.group_size = 8;
  SyntheticTrace trace(cfg);
  ControlPlane cp(32, test_options());
  EXPECT_TRUE(cp.on_epoch(trace.epoch_matrix(), 0));
  EXPECT_EQ(cp.replans(), 1u);
  EXPECT_TRUE(cp.reconfig().swap_pending());
}

TEST(ControlPlaneTest, StableEpochsDoNotReplan) {
  SyntheticTrace::Config cfg;
  cfg.nodes = 32;
  cfg.group_size = 8;
  cfg.burst_sigma = 0.3;
  SyntheticTrace trace(cfg);
  ControlPlane cp(32, test_options());
  cp.on_epoch(trace.epoch_matrix(), 0);
  int replans = 0;
  for (int e = 1; e <= 6; ++e)
    if (cp.on_epoch(trace.epoch_matrix(), e * 100)) ++replans;
  EXPECT_EQ(replans, 0);
}

TEST(ControlPlaneTest, WorkloadShiftTriggersReplan) {
  SyntheticTrace::Config cfg;
  cfg.nodes = 32;
  cfg.group_size = 8;
  cfg.burst_sigma = 0.2;
  cfg.seed = 9;
  SyntheticTrace trace(cfg);
  ControlPlane::Options opts = test_options();
  opts.replan_threshold = 0.4;
  ControlPlane cp(32, opts);
  cp.on_epoch(trace.epoch_matrix(), 0);
  cp.on_epoch(trace.epoch_matrix(), 100);
  trace.shuffle_roles();
  bool replanned = false;
  for (int e = 2; e < 5 && !replanned; ++e)
    replanned = cp.on_epoch(trace.epoch_matrix(), e * 100);
  EXPECT_TRUE(replanned);
  EXPECT_GE(cp.replans(), 2u);
}

TEST(ControlPlaneTest, EndToEndSwapIntoNetwork) {
  SyntheticTrace::Config cfg;
  cfg.nodes = 32;
  cfg.group_size = 8;
  SyntheticTrace trace(cfg);

  const CircuitSchedule initial = ScheduleBuilder::round_robin(32);
  const VlbRouter vlb(&initial, LbMode::kRandom);
  NetworkConfig netcfg;
  netcfg.propagation_per_hop = 0;
  SlottedNetwork net(&initial, &vlb, netcfg);

  ControlPlane cp(32, test_options());
  cp.on_epoch(trace.epoch_matrix(), net.now());
  EXPECT_TRUE(cp.tick(net, net.now()));
  // The plan's locality should reflect the trace's planted structure.
  EXPECT_GT(cp.last_plan().locality_x, 0.2);
  net.inject_cell(0, 31);
  net.run(200);
  EXPECT_EQ(net.metrics().delivered_cells(), 1u);
}

std::uint64_t gauge_bytes(Profiler& profiler, const std::string& name) {
  profiler.memory().sample();
  for (const auto& g : profiler.memory().snapshot())
    if (g.name == name) return g.bytes;
  ADD_FAILURE() << "no gauge named " << name;
  return 0;
}

TEST(ControlPlaneTest, ControlStateGaugeCountsStandbyGenerations) {
  SyntheticTrace::Config cfg;
  cfg.nodes = 32;
  cfg.group_size = 8;
  SyntheticTrace trace(cfg);
  const CircuitSchedule initial = ScheduleBuilder::round_robin(32);
  const VlbRouter vlb(&initial, LbMode::kRandom);
  NetworkConfig netcfg;
  netcfg.propagation_per_hop = 0;
  SlottedNetwork net(&initial, &vlb, netcfg);

  ControlPlane cp(32, test_options());
  cp.set_failure_view(&net.failure_view());
  Profiler profiler;
  cp.set_profiler(&profiler);
  EXPECT_EQ(gauge_bytes(profiler, "control_state"),
            cp.estimator().memory_bytes());

  // A staged swap holds the pending generation.
  cp.on_epoch(trace.epoch_matrix(), 0);
  const std::uint64_t estimator = cp.estimator().memory_bytes();
  EXPECT_GT(estimator, 0u);
  EXPECT_GT(gauge_bytes(profiler, "control_state"), estimator);
  // Once applied it is the current generation, counted by the network's
  // schedule_matchings gauge; the previous one was empty.
  ASSERT_TRUE(cp.tick(net, 0));
  EXPECT_EQ(gauge_bytes(profiler, "control_state"), estimator);
  // A failure forces a second swap, which keeps the first generation
  // alive as the previous one.
  net.fail_node(3);
  ASSERT_TRUE(cp.on_epoch(trace.epoch_matrix(), 1));
  ASSERT_TRUE(cp.tick(net, 1));
  EXPECT_GT(gauge_bytes(profiler, "control_state"),
            cp.estimator().memory_bytes() +
                cp.reconfig().schedule()->memory_bytes() / 2);
}

TEST(ControlPlaneTest, ControlStateGaugeIsInProfileJson) {
  ScenarioConfig cfg;
  cfg.design = "sorn";
  cfg.nodes = 32;
  cfg.cliques = 8;
  cfg.locality_x = 0.6;
  cfg.load = 0.2;
  cfg.epoch_slots = 100;
  cfg.slots = 400;
  cfg.drain_slots = 100;
  cfg.profile = true;
  std::string error;
  auto runner = ScenarioRunner::create(cfg, &error);
  ASSERT_NE(runner, nullptr) << error;
  ASSERT_TRUE(runner->run(&error)) << error;
  ASSERT_GE(runner->control()->reconfig().swaps_applied(), 1u);

  JsonValue doc;
  ASSERT_TRUE(json_parse(runner->profile_json(), &doc, &error)) << error;
  const JsonValue* gauges = doc.find("memory")->find("gauges");
  ASSERT_NE(gauges, nullptr);
  const JsonValue* control_state = nullptr;
  for (const JsonValue& g : gauges->items())
    if (g.find("name")->as_string() == "control_state") control_state = &g;
  ASSERT_NE(control_state, nullptr);
  EXPECT_GT(control_state->find("bytes")->as_int(), 0);
  EXPECT_GT(control_state->find("peak_bytes")->as_int(), 0);
}

}  // namespace
}  // namespace sorn
