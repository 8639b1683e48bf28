// Fault-injection harness: script grammar, scripted timeline application,
// and the determinism of the stochastic MTBF/MTTR model.
#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "fault/fault_injector.h"
#include "fuzz/mutants.h"
#include "routing/vlb.h"
#include "sim/network.h"
#include "topo/schedule_builder.h"
#include "util/rng.h"

namespace sorn {
namespace {

NetworkConfig fast_config() {
  NetworkConfig c;
  c.propagation_per_hop = 0;
  return c;
}

TEST(FaultScriptTest, ParsesAllEventKindsAndSortsBySlot) {
  const char* text =
      "# blast at 100, heal later\n"
      "200 heal-node 3\n"
      "\n"
      "100 fail-node 3\n"
      "100 fail-circuit 1 5\n"
      "250 heal-circuit 1 5\n";
  FaultScript script;
  std::string error;
  ASSERT_TRUE(FaultScript::parse(text, 0, &script, &error)) << error;
  ASSERT_EQ(script.events().size(), 4u);
  // Stable-sorted by slot; same-slot events keep file order.
  EXPECT_EQ(script.events()[0].slot, 100);
  EXPECT_EQ(script.events()[0].kind, FaultKind::kFailNode);
  EXPECT_EQ(script.events()[0].a, 3);
  EXPECT_EQ(script.events()[1].kind, FaultKind::kFailCircuit);
  EXPECT_EQ(script.events()[1].a, 1);
  EXPECT_EQ(script.events()[1].b, 5);
  EXPECT_EQ(script.events()[2].slot, 200);
  EXPECT_EQ(script.events()[2].kind, FaultKind::kHealNode);
  EXPECT_EQ(script.events()[3].slot, 250);
  EXPECT_EQ(script.events()[3].kind, FaultKind::kHealCircuit);
}

TEST(FaultScriptTest, ParsesGrayActionsAndExpandsFlaps) {
  const char* text =
      "10 degrade-circuit 1 5 0.25\n"
      "20 throttle-circuit 2 6 0.5\n"
      "30 restore-circuit 1 5\n"
      "40 flap-circuit 0 3 2 5 10\n";
  FaultScript script;
  std::string error;
  ASSERT_TRUE(FaultScript::parse(text, 8, &script, &error)) << error;
  // 3 gray events + 2 flap cycles x (fail, heal).
  ASSERT_EQ(script.events().size(), 7u);
  EXPECT_EQ(script.events()[0].kind, FaultKind::kDegradeCircuit);
  EXPECT_DOUBLE_EQ(script.events()[0].value, 0.25);
  EXPECT_EQ(script.events()[1].kind, FaultKind::kThrottleCircuit);
  EXPECT_DOUBLE_EQ(script.events()[1].value, 0.5);
  EXPECT_EQ(script.events()[2].kind, FaultKind::kRestoreCircuit);
  // flap: fail@40, heal@45, fail@55, heal@60.
  EXPECT_EQ(script.events()[3].slot, 40);
  EXPECT_EQ(script.events()[3].kind, FaultKind::kFailCircuit);
  EXPECT_EQ(script.events()[4].slot, 45);
  EXPECT_EQ(script.events()[4].kind, FaultKind::kHealCircuit);
  EXPECT_EQ(script.events()[5].slot, 55);
  EXPECT_EQ(script.events()[6].slot, 60);
  EXPECT_EQ(script.events()[6].b, 3);
}

TEST(FaultScriptTest, RejectsMalformedLinesNamingTheLine) {
  const struct {
    const char* text;
    NodeId nodes;      // topology size for range validation (0 = skip)
    const char* line;  // expected substring of the error
  } cases[] = {
      {"10 melt-node 3\n", 0, "line 1"},          // unknown action
      {"\n10 fail-node\n", 0, "line 2"},          // missing argument
      {"10 fail-node 3 4\n", 0, "line 1"},        // extra argument
      {"ten fail-node 3\n", 0, "line 1"},         // non-numeric slot
      {"-5 fail-node 3\n", 0, "line 1"},          // negative slot
      {"10 fail-circuit 2 2\n", 0, "line 1"},     // degenerate circuit
      {"10 fail-node 3x\n", 0, "line 1"},         // trailing garbage
      {"10 fail-node 8\n", 8, "line 1"},          // node id out of range
      {"\n\n10 fail-circuit 0 9\n", 8, "line 3"}, // dst out of range
      {"10 degrade-circuit 0 1 1.5\n", 8, "line 1"},   // loss_p > 1
      {"10 degrade-circuit 0 1 -0.1\n", 8, "line 1"},  // loss_p < 0
      {"10 throttle-circuit 0 1 two\n", 8, "line 1"},  // non-numeric value
      {"10 degrade-circuit 0 1\n", 8, "line 1"},       // missing value
      {"10 flap-circuit 0 1 0 5 5\n", 8, "line 1"},    // zero cycles
      {"10 flap-circuit 0 1 2 5\n", 8, "line 1"},      // missing up_slots
      // Integers past long long, and flaps past the Slot range.
      {"99999999999999999999 fail-node 1\n", 0, "line 1"},
      {"\n10 fail-node 4294967296\n", 0, "line 2"},
      {"100 flap-circuit 0 1 3 5000000000000000000 5000000000000000000\n", 8,
       "line 1"},
      {"9223372036854775807 flap-circuit 0 1 2 1 1\n", 8, "line 1"},
  };
  for (const auto& c : cases) {
    FaultScript script;
    std::string error;
    EXPECT_FALSE(FaultScript::parse(c.text, c.nodes, &script, &error))
        << c.text;
    EXPECT_NE(error.find(c.line), std::string::npos)
        << "error for \"" << c.text << "\" was: " << error;
    EXPECT_TRUE(script.empty()) << "out must be untouched on failure";
  }
}

// One line per event in the script grammar; parsing it back must give the
// same events.
std::string script_text(const FaultScript& script) {
  std::string text;
  char line[160];
  for (const FaultEvent& ev : script.events()) {
    const char* action = "";
    switch (ev.kind) {
      case FaultKind::kFailNode: action = "fail-node"; break;
      case FaultKind::kHealNode: action = "heal-node"; break;
      case FaultKind::kFailCircuit: action = "fail-circuit"; break;
      case FaultKind::kHealCircuit: action = "heal-circuit"; break;
      case FaultKind::kDegradeCircuit: action = "degrade-circuit"; break;
      case FaultKind::kThrottleCircuit: action = "throttle-circuit"; break;
      case FaultKind::kRestoreCircuit: action = "restore-circuit"; break;
    }
    const bool node = ev.kind == FaultKind::kFailNode ||
                      ev.kind == FaultKind::kHealNode;
    const bool valued = ev.kind == FaultKind::kDegradeCircuit ||
                        ev.kind == FaultKind::kThrottleCircuit;
    if (node) {
      std::snprintf(line, sizeof(line), "%lld %s %d\n",
                    static_cast<long long>(ev.slot), action, ev.a);
    } else if (valued) {
      std::snprintf(line, sizeof(line), "%lld %s %d %d %.17g\n",
                    static_cast<long long>(ev.slot), action, ev.a, ev.b,
                    ev.value);
    } else {
      std::snprintf(line, sizeof(line), "%lld %s %d %d\n",
                    static_cast<long long>(ev.slot), action, ev.a, ev.b);
    }
    text += line;
  }
  return text;
}

// Seeded mutants of a script using every action. Each must either fail
// with a line-numbered error and leave *out untouched, or parse into
// events that read back the same from their own text.
TEST(FaultScriptTest, MutantsFailCleanlyOrRoundTrip) {
  const std::string doc =
      "# blast and recovery\n"
      "100 fail-node 3\n"
      "100 fail-circuit 1 5\n"
      "150 degrade-circuit 2 6 0.25\n"
      "175 throttle-circuit 6 2 0.5\n"
      "200 heal-node 3\n"
      "250 heal-circuit 1 5\n"
      "300 restore-circuit 2 6\n"
      "400 flap-circuit 0 7 3 5 10\n";
  constexpr NodeId kNodes = 8;
  FaultScript sentinel;
  std::string error;
  ASSERT_TRUE(FaultScript::parse("1 fail-node 0\n", kNodes, &sentinel,
                                 &error));
  const std::string sentinel_text = script_text(sentinel);

  Rng rng(0x5eed);
  int parsed = 0;
  for (int i = 0; i < 3000; ++i) {
    const std::string m = mutant(doc, rng);
    FaultScript out = sentinel;
    error.clear();
    if (!FaultScript::parse(m, kNodes, &out, &error)) {
      EXPECT_NE(error.find("line "), std::string::npos) << m;
      EXPECT_EQ(script_text(out), sentinel_text) << m;
      continue;
    }
    ++parsed;
    const std::string once = script_text(out);
    FaultScript again;
    ASSERT_TRUE(FaultScript::parse(once, kNodes, &again, &error))
        << error << "\nmutant: " << m;
    EXPECT_EQ(script_text(again), once) << "mutant: " << m;
  }
  // Some mutants must reach the event readers, not only the tokenizer.
  EXPECT_GT(parsed, 100);
}

TEST(FaultScriptTest, ValidatesIdsAgainstTopologyAtParseTime) {
  FaultScript script;
  std::string error;
  // In range for 16 nodes: fine.
  ASSERT_TRUE(
      FaultScript::parse("10 fail-node 15\n", 16, &script, &error));
  // Same script against an 8-node topology: parse-time error naming both
  // the line and the topology size, not a runtime assert.
  EXPECT_FALSE(FaultScript::parse("10 fail-node 15\n", 8, &script, &error));
  EXPECT_NE(error.find("line 1"), std::string::npos) << error;
  EXPECT_NE(error.find("out of range"), std::string::npos) << error;
  EXPECT_NE(error.find("8-node"), std::string::npos) << error;
  // nodes = 0 skips the range check (programmatic use).
  EXPECT_TRUE(FaultScript::parse("10 fail-node 15\n", 0, &script, &error));
}

TEST(FaultInjectorTest, ScriptedTimelineAppliesAtTheRightSlots) {
  const CircuitSchedule s = ScheduleBuilder::round_robin(8);
  const VlbRouter router(&s, LbMode::kFirstAvailable);
  SlottedNetwork net(&s, &router, fast_config());

  FaultScript script;
  std::string error;
  ASSERT_TRUE(FaultScript::parse(
      "5 fail-node 2\n5 fail-circuit 0 4\n12 heal-node 2\n", 8, &script,
      &error))
      << error;
  FaultInjector injector(std::move(script));

  for (Slot t = 0; t < 20; ++t) {
    injector.tick(net);
    if (t < 5) {
      EXPECT_FALSE(net.is_failed(2)) << "slot " << t;
    } else if (t < 12) {
      EXPECT_TRUE(net.is_failed(2)) << "slot " << t;
      EXPECT_TRUE(net.is_circuit_failed(0, 4)) << "slot " << t;
    } else {
      EXPECT_FALSE(net.is_failed(2)) << "slot " << t;
      EXPECT_TRUE(net.is_circuit_failed(0, 4)) << "never healed";
    }
    net.step();
  }
  EXPECT_EQ(injector.scripted_applied(), 3u);
  EXPECT_EQ(injector.first_fault_slot(), 5);
  EXPECT_FALSE(injector.stochastic());
}

TEST(FaultInjectorTest, RedundantScriptedEventsAreSilentNoOps) {
  const CircuitSchedule s = ScheduleBuilder::round_robin(4);
  const VlbRouter router(&s, LbMode::kFirstAvailable);
  SlottedNetwork net(&s, &router, fast_config());

  FaultScript script;
  std::string error;
  ASSERT_TRUE(FaultScript::parse("1 fail-node 0\n2 fail-node 0\n", 4, &script,
                                 &error));
  FaultInjector injector(std::move(script));
  for (Slot t = 0; t < 5; ++t) {
    injector.tick(net);
    net.step();
  }
  // Only the first event changed state.
  EXPECT_EQ(injector.scripted_applied(), 1u);
  EXPECT_TRUE(net.is_failed(0));
}

// The stochastic model's timeline is a function of the injector seed
// alone: two runs with the same seed produce the identical failure-state
// trajectory, a different seed a different one.
std::vector<std::pair<std::uint64_t, std::uint64_t>> stochastic_trajectory(
    std::uint64_t seed) {
  const CircuitSchedule s = ScheduleBuilder::round_robin(16);
  const VlbRouter router(&s, LbMode::kFirstAvailable);
  SlottedNetwork net(&s, &router, fast_config());
  FaultInjectorOptions opts;
  opts.node_mtbf_slots = 400.0;
  opts.node_mttr_slots = 100.0;
  opts.circuit_mtbf_slots = 40000.0;
  opts.circuit_mttr_slots = 200.0;
  opts.seed = seed;
  FaultInjector injector(FaultScript{}, opts);
  EXPECT_TRUE(injector.stochastic());

  std::vector<std::pair<std::uint64_t, std::uint64_t>> trajectory;
  for (Slot t = 0; t < 4000; ++t) {
    injector.tick(net);
    trajectory.emplace_back(net.failure_view().failed_node_count(),
                            net.failure_view().failed_circuit_count());
    net.step();
  }
  // The MTBF/MTTR above make both directions near-certain in 4000 slots.
  EXPECT_GT(injector.stochastic_failures(), 0u);
  EXPECT_GT(injector.stochastic_heals(), 0u);
  return trajectory;
}

TEST(FaultInjectorTest, StochasticTimelineIsSeedDeterministic) {
  const auto a = stochastic_trajectory(7);
  const auto b = stochastic_trajectory(7);
  EXPECT_EQ(a, b);
  const auto c = stochastic_trajectory(8);
  EXPECT_NE(a, c) << "different seeds should yield different timelines";
}

TEST(FaultInjectorTest, MttrHealsWhatMtbfBreaks) {
  const CircuitSchedule s = ScheduleBuilder::round_robin(8);
  const VlbRouter router(&s, LbMode::kFirstAvailable);
  SlottedNetwork net(&s, &router, fast_config());
  FaultInjectorOptions opts;
  opts.node_mtbf_slots = 200.0;
  opts.node_mttr_slots = 50.0;
  opts.seed = 3;
  FaultInjector injector(FaultScript{}, opts);
  for (Slot t = 0; t < 20000; ++t) {
    injector.tick(net);
    net.step();
  }
  // Steady state: MTTR/(MTBF+MTTR) = 20% of nodes down on average, so
  // over 20k slots the fleet cannot be entirely dead or entirely pristine.
  EXPECT_GT(injector.stochastic_failures(), 10u);
  EXPECT_GT(injector.stochastic_heals(), 10u);
  EXPECT_LT(net.failure_view().failed_node_count(), 8u);
}

}  // namespace
}  // namespace sorn
