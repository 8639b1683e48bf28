#include "control/reconfig.h"

#include <gtest/gtest.h>

#include "routing/vlb.h"
#include "topo/schedule_builder.h"
#include "traffic/patterns.h"

namespace sorn {
namespace {

SornPlan make_plan(NodeId n, CliqueId nc, double x) {
  const auto cliques = CliqueAssignment::contiguous(n, nc);
  const TrafficMatrix tm = patterns::locality_mix(cliques, x);
  SornOptimizer optimizer;
  return optimizer.plan_for_nc(tm, nc);
}

TEST(ReconfigTest, SwapAppliesAfterDelay) {
  const CircuitSchedule initial = ScheduleBuilder::round_robin(16);
  const VlbRouter vlb(&initial, LbMode::kRandom);
  NetworkConfig nc;
  nc.propagation_per_hop = 0;
  SlottedNetwork net(&initial, &vlb, nc);

  ReconfigManager::Options opts;
  opts.update_delay_slots = 5;
  ReconfigManager mgr(opts);
  EXPECT_FALSE(mgr.swap_pending());

  mgr.request_swap(make_plan(16, 4, 0.5), net.now());
  EXPECT_TRUE(mgr.swap_pending());
  for (int i = 0; i < 5; ++i) {
    EXPECT_FALSE(mgr.tick(net, net.now()));
    net.step();
  }
  EXPECT_TRUE(mgr.tick(net, net.now()));
  EXPECT_FALSE(mgr.swap_pending());
  EXPECT_EQ(mgr.swaps_applied(), 1u);
  ASSERT_NE(mgr.schedule(), nullptr);
  EXPECT_EQ(mgr.cliques()->clique_count(), 4);
}

// A swap replaces the running fabric's cliques and q: the current
// generation has the plan's clique count and slot shares, and carries
// traffic.
TEST(ReconfigTest, SwapRebuildsCliquesAndQ) {
  const SornFabric initial = build_sorn_fabric(
      CliqueAssignment::contiguous(16, 4), Rational{4, 1});
  NetworkConfig cfg;
  cfg.propagation_per_hop = 0;
  SlottedNetwork net(initial.schedule.get(), initial.router.get(), cfg);

  SornPlan plan;
  plan.cliques = CliqueAssignment::contiguous(16, 2);
  plan.q = Rational{5, 1};
  ReconfigManager mgr;
  mgr.request_swap(std::move(plan), net.now());
  ASSERT_TRUE(mgr.tick(net, net.now()));
  EXPECT_EQ(mgr.cliques()->clique_count(), 2);
  // q = 5: five intra slots to each inter slot.
  EXPECT_NEAR(mgr.schedule()->kind_fraction(SlotKind::kIntra), 5.0 / 6.0,
              1e-12);
  EXPECT_NE(mgr.schedule()->period(), initial.schedule->period());

  net.inject_cell(0, 9);
  net.run(300);
  EXPECT_EQ(net.metrics().delivered_cells(), 1u);
}

TEST(ReconfigTest, InFlightCellsSurviveSwap) {
  const CircuitSchedule initial = ScheduleBuilder::round_robin(16);
  const VlbRouter vlb(&initial, LbMode::kRandom);
  NetworkConfig cfg;
  cfg.propagation_per_hop = 0;
  SlottedNetwork net(&initial, &vlb, cfg);
  Rng rng(1);
  for (int i = 0; i < 100; ++i) {
    const auto src = static_cast<NodeId>(rng.next_below(16));
    auto dst = static_cast<NodeId>(rng.next_below(16));
    if (dst == src) dst = (dst + 1) % 16;
    net.inject_cell(src, dst);
  }
  ReconfigManager mgr;
  mgr.request_swap(make_plan(16, 4, 0.6), net.now());
  mgr.tick(net, net.now());
  net.run(500);
  EXPECT_EQ(net.metrics().delivered_cells(), 100u);
  EXPECT_EQ(net.cells_in_flight(), 0u);
}

TEST(ReconfigTest, NicRolloutTracked) {
  const CircuitSchedule initial = ScheduleBuilder::round_robin(16);
  const VlbRouter vlb(&initial, LbMode::kRandom);
  NetworkConfig cfg;
  cfg.propagation_per_hop = 0;
  SlottedNetwork net(&initial, &vlb, cfg);

  ReconfigManager::Options opts;
  opts.track_nic_rollout = true;
  ReconfigManager mgr(opts);
  // First swap bootstraps the NIC fleet (no staged rollout to report).
  mgr.request_swap(make_plan(16, 4, 0.5), net.now());
  mgr.tick(net, net.now());
  ASSERT_TRUE(mgr.last_rollout().has_value());
  EXPECT_EQ(mgr.last_rollout()->nodes, 16u);
  EXPECT_EQ(mgr.last_rollout()->total_entries, 0u);

  // Second swap stages every NIC's table; the SORN-to-SORN drain set is
  // empty (fixed neighbor superset).
  mgr.request_swap(make_plan(16, 2, 0.7), net.now());
  mgr.tick(net, net.now());
  ASSERT_TRUE(mgr.last_rollout().has_value());
  EXPECT_EQ(mgr.last_rollout()->nodes, 16u);
  EXPECT_GT(mgr.last_rollout()->total_entries, 0u);
  EXPECT_EQ(mgr.last_rollout()->drain_neighbors_total, 0u);
  EXPECT_GT(mgr.last_rollout()->total_update_us, 0.0);
}

TEST(ReconfigTest, RolloutNotTrackedByDefault) {
  const CircuitSchedule initial = ScheduleBuilder::round_robin(16);
  const VlbRouter vlb(&initial, LbMode::kRandom);
  NetworkConfig cfg;
  cfg.propagation_per_hop = 0;
  SlottedNetwork net(&initial, &vlb, cfg);
  ReconfigManager mgr;
  mgr.request_swap(make_plan(16, 4, 0.5), net.now());
  mgr.tick(net, net.now());
  EXPECT_FALSE(mgr.last_rollout().has_value());
}

TEST(ReconfigTest, SecondSwapKeepsPreviousGenerationAlive) {
  const CircuitSchedule initial = ScheduleBuilder::round_robin(16);
  const VlbRouter vlb(&initial, LbMode::kRandom);
  NetworkConfig cfg;
  cfg.propagation_per_hop = 0;
  SlottedNetwork net(&initial, &vlb, cfg);
  ReconfigManager mgr;
  mgr.request_swap(make_plan(16, 4, 0.5), net.now());
  mgr.tick(net, net.now());
  const CircuitSchedule* first_gen = mgr.schedule();
  net.inject_cell(0, 9);
  mgr.request_swap(make_plan(16, 2, 0.7), net.now());
  mgr.tick(net, net.now());
  EXPECT_NE(mgr.schedule(), first_gen);
  EXPECT_EQ(mgr.swaps_applied(), 2u);
  net.run(300);
  EXPECT_EQ(net.metrics().delivered_cells(), 1u);
}

}  // namespace
}  // namespace sorn
