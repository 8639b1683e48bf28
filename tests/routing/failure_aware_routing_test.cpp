// Failure-aware routing: the FailureView's semantics, its exposure on
// SlottedNetwork, and the routers' detours around failed intermediates.
#include <gtest/gtest.h>

#include <set>
#include <utility>
#include <vector>

#include "routing/failure_view.h"
#include "routing/sorn_routing.h"
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

TEST(FailureViewTest, MutatorsAreIdempotentAndVersioned) {
  FailureView view(8);
  EXPECT_FALSE(view.any_failures());
  const std::uint64_t v0 = view.version();

  EXPECT_TRUE(view.fail_node(3));
  EXPECT_FALSE(view.fail_node(3));  // already failed: no-op
  EXPECT_TRUE(view.any_failures());
  EXPECT_TRUE(view.is_node_failed(3));
  EXPECT_EQ(view.failed_node_count(), 1u);
  const std::uint64_t v1 = view.version();
  EXPECT_GT(v1, v0);
  EXPECT_EQ(view.version(), v1) << "no-op must not bump the version";

  EXPECT_TRUE(view.fail_circuit(1, 5));
  EXPECT_FALSE(view.fail_circuit(1, 5));
  EXPECT_TRUE(view.is_circuit_failed(1, 5));
  EXPECT_FALSE(view.is_circuit_failed(5, 1)) << "circuits are directed";
  EXPECT_EQ(view.failed_circuit_count(), 1u);

  // usable() folds endpoint and circuit state together.
  EXPECT_FALSE(view.usable(0, 3));  // dst failed
  EXPECT_FALSE(view.usable(3, 0));  // src failed
  EXPECT_FALSE(view.usable(1, 5));  // circuit failed
  EXPECT_TRUE(view.usable(0, 1));

  EXPECT_TRUE(view.heal_node(3));
  EXPECT_FALSE(view.heal_node(3));
  EXPECT_TRUE(view.heal_circuit(1, 5));
  EXPECT_FALSE(view.any_failures());
}

TEST(FailureViewTest, SeededFailHealSequenceMatchesSetModel) {
  // A seeded mix of node and circuit fails/heals, many of them repeats,
  // checked after every step against a std::set model of the failed
  // state: every query, the sorted list, the counts and the version.
  constexpr NodeId kNodes = 7;
  FailureView view(kNodes);
  std::set<NodeId> nodes;
  std::set<std::pair<NodeId, NodeId>> circuits;
  std::uint64_t changes = 0;
  Rng rng(17);
  for (int step = 0; step < 2000; ++step) {
    const auto a = static_cast<NodeId>(rng.next_below(kNodes));
    const auto b = static_cast<NodeId>(rng.next_below(kNodes));
    bool changed = false;
    switch (rng.next_below(4)) {
      case 0:
        changed = nodes.insert(a).second;
        EXPECT_EQ(view.fail_node(a), changed);
        break;
      case 1:
        changed = nodes.erase(a) > 0;
        EXPECT_EQ(view.heal_node(a), changed);
        break;
      case 2:
        changed = circuits.insert({a, b}).second;
        EXPECT_EQ(view.fail_circuit(a, b), changed);
        break;
      default:
        changed = circuits.erase({a, b}) > 0;
        EXPECT_EQ(view.heal_circuit(a, b), changed);
        break;
    }
    changes += changed ? 1 : 0;
    ASSERT_EQ(view.version(), changes) << "step " << step;
    ASSERT_EQ(view.failed_node_count(), nodes.size()) << "step " << step;
    ASSERT_EQ(view.failed_circuit_count(), circuits.size())
        << "step " << step;
    ASSERT_EQ(view.any_failures(), !nodes.empty() || !circuits.empty());
    const std::vector<std::pair<NodeId, NodeId>> sorted(circuits.begin(),
                                                        circuits.end());
    ASSERT_EQ(view.failed_circuits(), sorted) << "step " << step;
    for (NodeId s = 0; s < kNodes; ++s) {
      for (NodeId d = 0; d < kNodes; ++d) {
        const bool circuit_down = circuits.count({s, d}) > 0;
        ASSERT_EQ(view.is_circuit_failed(s, d), circuit_down)
            << "step " << step << " circuit " << s << "->" << d;
        ASSERT_EQ(view.usable(s, d), !circuit_down && nodes.count(s) == 0 &&
                                         nodes.count(d) == 0)
            << "step " << step << " circuit " << s << "->" << d;
      }
    }
  }
  EXPECT_GT(changes, 500u) << "the sequence must exercise real changes";
}

TEST(FailureViewTest, NetworkExposesCircuitStateAndHealAll) {
  const CircuitSchedule s = ScheduleBuilder::round_robin(8);
  const VlbRouter router(&s, LbMode::kFirstAvailable);
  SlottedNetwork net(&s, &router, fast_config());

  EXPECT_TRUE(net.fail_circuit(2, 6));
  EXPECT_FALSE(net.fail_circuit(2, 6)) << "idempotent";
  EXPECT_TRUE(net.is_circuit_failed(2, 6));
  EXPECT_FALSE(net.is_circuit_failed(6, 2));
  EXPECT_TRUE(net.fail_node(1));
  EXPECT_EQ(&net.failure_view(), &net.failure_view()) << "stable reference";
  EXPECT_EQ(net.heal_all(), 2u);
  EXPECT_FALSE(net.is_circuit_failed(2, 6));
  EXPECT_FALSE(net.is_failed(1));
}

TEST(FailureAwareRoutingTest, VlbAvoidsFailedIntermediates) {
  const CircuitSchedule s = ScheduleBuilder::round_robin(8);
  FailureView view(8);
  view.fail_node(3);

  for (const LbMode mode : {LbMode::kRandom, LbMode::kFirstAvailable}) {
    VlbRouter router(&s, mode);
    router.set_failure_view(&view);
    Rng rng(42);
    for (int i = 0; i < 200; ++i) {
      const Path p = router.route(0, 5, i % 8, rng);
      EXPECT_FALSE(p.contains(3))
          << "failed node used as intermediate (mode "
          << static_cast<int>(mode) << ")";
    }
  }
}

TEST(FailureAwareRoutingTest, VlbWithoutFailuresMatchesLegacyDraws) {
  // An attached view with nothing failed must not perturb the RNG
  // consumption: paths are identical to a router with no view at all.
  const CircuitSchedule s = ScheduleBuilder::round_robin(8);
  const VlbRouter plain(&s, LbMode::kRandom);
  VlbRouter viewed(&s, LbMode::kRandom);
  FailureView view(8);
  viewed.set_failure_view(&view);
  Rng rng_a(7);
  Rng rng_b(7);
  for (int i = 0; i < 100; ++i) {
    const Path a = plain.route(1, 6, i, rng_a);
    const Path b = viewed.route(1, 6, i, rng_b);
    ASSERT_EQ(a.size(), b.size());
    for (int h = 0; h < a.size(); ++h) EXPECT_EQ(a.at(h), b.at(h));
  }
}

TEST(FailureAwareRoutingTest, SornAvoidsFailedLoadBalancerAndLanding) {
  const auto cliques = CliqueAssignment::contiguous(16, 4);
  const CircuitSchedule s = ScheduleBuilder::sorn(cliques, Rational{2, 1});
  FailureView view(16);
  view.fail_node(1);  // clique 0: candidate LB hop for src 0
  view.fail_node(5);  // clique 1: candidate landing for dst 6
  SornRouter router(&s, &cliques, LbMode::kRandom);
  router.set_failure_view(&view);
  Rng rng(11);
  for (int i = 0; i < 300; ++i) {
    const Path p = router.route(0, 6, i % s.period(), rng);
    EXPECT_FALSE(p.contains(1)) << "failed LB candidate used";
    EXPECT_FALSE(p.contains(5)) << "failed landing candidate used";
  }
}

TEST(FailureAwareRoutingTest, SornFallsBackWhenAllCandidatesAreFailed) {
  // Every node of the destination clique is down: there is no usable
  // landing. The router must degrade gracefully (legacy pick, no assert)
  // rather than crash — the cells will simply wait out the outage.
  const auto cliques = CliqueAssignment::contiguous(16, 4);
  const CircuitSchedule s = ScheduleBuilder::sorn(cliques, Rational{2, 1});
  FailureView view(16);
  for (NodeId v = 4; v < 8; ++v) view.fail_node(v);  // all of clique 1
  SornRouter router(&s, &cliques, LbMode::kRandom);
  router.set_failure_view(&view);
  Rng rng(13);
  for (int i = 0; i < 50; ++i) {
    const Path p = router.route(0, 6, i % s.period(), rng);
    EXPECT_EQ(p.src(), 0);
    EXPECT_EQ(p.dst(), 6);
    EXPECT_GE(p.size(), 2);
  }
}

TEST(FailureAwareRoutingTest, DetoursKeepTrafficFlowingDuringOutage) {
  // End-to-end: with the view attached, an outage of a relay node leaves
  // zero cells stranded on it — every injected cell still delivers.
  const CircuitSchedule s = ScheduleBuilder::round_robin(8);
  VlbRouter router(&s, LbMode::kRandom);
  SlottedNetwork net(&s, &router, fast_config());
  router.set_failure_view(&net.failure_view());

  net.fail_node(3);
  Rng rng(21);
  for (int round = 0; round < 200; ++round) {
    const auto src = static_cast<NodeId>(rng.next_below(8));
    auto dst = static_cast<NodeId>(rng.next_below(8));
    if (dst == src) dst = (dst + 1) % 8;
    if (src == 3 || dst == 3) continue;  // endpoints on the failed node
    net.inject_cell(src, dst);
    net.step();
  }
  net.run(100);
  EXPECT_EQ(net.cells_in_flight(), 0u)
      << "failure-aware routing must not strand cells on the failed relay";
  EXPECT_GT(net.metrics().delivered_cells(), 0u);
}

}  // namespace
}  // namespace sorn
