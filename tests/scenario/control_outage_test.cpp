// End-to-end control-plane fault scenarios: a gray-failure blast plus a
// controller outage window whose epochs fall mid-outage (a reconfigure
// attempt while the controller is dark), checked against pinned metrics
// (pins.h) with invariants on every slot; retransmit-jitter determinism;
// and a chaos-campaign smoke run.
#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "control/control_faults.h"
#include "control/control_plane.h"
#include "control/safe_mode.h"
#include "scenario/chaos.h"
#include "scenario/scenario_runner.h"
#include "sim/invariants.h"
#include "pins.h"

namespace sorn {
namespace {

// A 16-node SORN fabric in a bad week: two gray circuits and a fail-stop
// flap in the first half, then the controller dies across two epoch
// boundaries (600 and 800 never replan) and recovers at 900.
ScenarioConfig stress_config() {
  ScenarioConfig cfg;
  cfg.design = "sorn";
  cfg.nodes = 16;
  cfg.cliques = 4;
  cfg.locality_x = 0.6;
  cfg.propagation_ns = 0;
  cfg.load = 0.3;
  cfg.slots = 1200;
  cfg.epoch_slots = 200;
  cfg.flow_size = FlowSizeKind::kFixed;
  cfg.fixed_flow_bytes = 2560;
  cfg.control_outages = {500, 900};
  cfg.safe_mode = "vlb";
  cfg.check_invariants = true;
  cfg.retransmit_timeout = 64;
  cfg.retransmit_jitter = 0.25;
  cfg.fault_script =
      "300 degrade-circuit 0 5 0.3\n"
      "300 throttle-circuit 2 9 0.5\n"
      "350 fail-circuit 1 8\n"
      "600 heal-circuit 1 8\n"
      "700 restore-circuit 0 5\n"
      "700 restore-circuit 2 9\n";
  return cfg;
}

std::unique_ptr<ScenarioRunner> run_config(const ScenarioConfig& cfg) {
  std::string error;
  auto runner = ScenarioRunner::create(cfg, &error);
  EXPECT_NE(runner, nullptr) << error;
  if (runner == nullptr) return nullptr;
  EXPECT_TRUE(runner->run(&error)) << error;
  return runner;
}

TEST(ControlOutageTest, OutageSuppressesEpochsAndSafeModeEngages) {
  auto runner = run_config(stress_config());
  ASSERT_NE(runner, nullptr);

  ASSERT_NE(runner->control_faults(), nullptr);
  EXPECT_EQ(runner->control_faults()->outages_started(), 1u);
  EXPECT_EQ(runner->control_faults()->outage_slots(), 400u);
  // Epochs at 600 and 800 fall inside [500, 900): both reconfigure
  // attempts must be suppressed, not queued.
  EXPECT_EQ(runner->control_faults()->suppressed_epochs(), 2u);

  ASSERT_NE(runner->safe_mode(), nullptr);
  EXPECT_EQ(runner->safe_mode()->policy(), SafeModePolicy::kVlb);
  EXPECT_EQ(runner->safe_mode()->activations(), 1u);
  EXPECT_FALSE(runner->safe_mode()->active());  // restored at 900

  ASSERT_NE(runner->control(), nullptr);
  EXPECT_GT(runner->control()->replans(), 0u);  // epochs outside the outage

  ASSERT_NE(runner->invariant_checker(), nullptr);
  EXPECT_TRUE(runner->invariant_checker()->ok());
  EXPECT_GT(runner->invariant_checker()->slots_checked(), 1200u);

  // Gray losses happened and retransmission recovered them: every
  // injected flow completes despite a lossy first half.
  EXPECT_GT(runner->metrics().gray_dropped_cells(), 0u);
  EXPECT_GT(runner->metrics().retransmit_events(), 0u);
  EXPECT_EQ(runner->metrics().completed_flows(), runner->flows_injected());
}

TEST(ControlOutageTest, StressRunMatchesPinnedMetrics) {
  auto runner = run_config(stress_config());
  ASSERT_NE(runner, nullptr);
  EXPECT_EQ(pins::pin_of(runner->metrics_json()), "1704:d3ae1700ed5ffdac");
}

TEST(ControlOutageTest, HoldPolicyAlsoHoldsTheContract) {
  ScenarioConfig cfg = stress_config();
  cfg.safe_mode = "hold";
  auto one = run_config(cfg);
  ASSERT_NE(one, nullptr);
  EXPECT_EQ(one->safe_mode()->policy(), SafeModePolicy::kHold);
  EXPECT_EQ(one->safe_mode()->activations(), 1u);
  EXPECT_EQ(one->metrics().completed_flows(), one->flows_injected());
  EXPECT_EQ(pins::pin_of(one->metrics_json()), "1697:9328bab3c3c60b9f");
}

TEST(ControlOutageTest, RetransmitJitterIsSeededAndReproducible) {
  // Same seed, same jitter amplitude: the whole degraded timeline —
  // backoff factors included — must reproduce exactly.
  const ScenarioConfig cfg = stress_config();
  auto a = run_config(cfg);
  auto b = run_config(cfg);
  ASSERT_NE(a, nullptr);
  ASSERT_NE(b, nullptr);
  EXPECT_GT(a->metrics().retransmit_events(), 0u);
  EXPECT_EQ(a->metrics_json(), b->metrics_json());

  // Jitter off is a different (also valid) timeline: the knob is wired
  // through, not ignored.
  ScenarioConfig no_jitter = cfg;
  no_jitter.retransmit_jitter = 0.0;
  auto c = run_config(no_jitter);
  ASSERT_NE(c, nullptr);
  EXPECT_NE(a->metrics_json(), c->metrics_json());
}

TEST(ChaosCampaignTest, SmokeSeedPassesWithReplayRecipe) {
  ChaosKnobs knobs;
  knobs.nodes = 16;
  knobs.slots = 1500;
  const ChaosResult r = run_chaos(3, knobs);
  EXPECT_TRUE(r.ok) << r.error << "\nreplay: " << r.replay;
  EXPECT_GT(r.invariant_slots, 1500u);
  EXPECT_NE(r.replay.find("--seed 3"), std::string::npos);
  EXPECT_NE(r.replay.find("chaos"), std::string::npos);
}

TEST(ChaosCampaignTest, ConfigGenerationIsPureInTheSeed) {
  ChaosKnobs knobs;
  knobs.nodes = 16;
  knobs.slots = 1500;
  EXPECT_EQ(make_chaos_config(9, knobs).to_json(),
            make_chaos_config(9, knobs).to_json());
  EXPECT_NE(make_chaos_config(9, knobs).to_json(),
            make_chaos_config(10, knobs).to_json());
}

}  // namespace
}  // namespace sorn
