// Failure-injection semantics (paper Sec. 6): failed nodes/circuits stop
// carrying traffic, unaffected pairs keep flowing, and healing resumes
// stranded cells.
#include <gtest/gtest.h>

#include <utility>
#include <vector>

#include "routing/sorn_routing.h"
#include "routing/vlb.h"
#include "sim/network.h"
#include "topo/schedule_builder.h"

namespace sorn {
namespace {

class DirectRouter : public Router {
 public:
  Path route(NodeId src, NodeId dst, Slot, Rng&) const override {
    return Path::of({src, dst});
  }
  int max_hops() const override { return 1; }
};

NetworkConfig fast_config() {
  NetworkConfig c;
  c.propagation_per_hop = 0;
  return c;
}

TEST(FailureTest, FailedCircuitBlocksOnlyThatEdge) {
  const CircuitSchedule s = ScheduleBuilder::round_robin(4);
  const DirectRouter router;
  SlottedNetwork net(&s, &router, fast_config());
  net.fail_circuit(0, 1);
  net.inject_cell(0, 1);  // blocked
  net.inject_cell(2, 3);  // same matching slot, unaffected
  net.run(10);
  EXPECT_EQ(net.metrics().delivered_cells(), 1u);
  EXPECT_EQ(net.cells_in_flight(), 1u);
}

TEST(FailureTest, HealResumesStrandedCells) {
  const CircuitSchedule s = ScheduleBuilder::round_robin(4);
  const DirectRouter router;
  SlottedNetwork net(&s, &router, fast_config());
  net.fail_circuit(0, 2);
  net.inject_cell(0, 2);
  net.run(10);
  EXPECT_EQ(net.metrics().delivered_cells(), 0u);
  net.heal_circuit(0, 2);
  net.run(10);
  EXPECT_EQ(net.metrics().delivered_cells(), 1u);
}

TEST(FailureTest, FailedCircuitListMirrorsBitmap) {
  // FailureView keeps the failed circuits as a sorted, duplicate-free list
  // so consumers (heal_all, recovery sweeps) can iterate exactly the
  // failed set instead of scanning all N^2 pairs.
  FailureView view(6);
  EXPECT_TRUE(view.failed_circuits().empty());

  // Insert out of sorted order; the list must come back sorted by (s, d).
  view.fail_circuit(4, 1);
  view.fail_circuit(0, 3);
  view.fail_circuit(4, 0);
  const std::vector<std::pair<NodeId, NodeId>> expected{
      {0, 3}, {4, 0}, {4, 1}};
  EXPECT_EQ(view.failed_circuits(), expected);

  // Idempotent re-failure must not duplicate the entry.
  EXPECT_FALSE(view.fail_circuit(0, 3));
  EXPECT_EQ(view.failed_circuits().size(), 3u);

  view.heal_circuit(4, 0);
  const std::vector<std::pair<NodeId, NodeId>> after{{0, 3}, {4, 1}};
  EXPECT_EQ(view.failed_circuits(), after);
  EXPECT_FALSE(view.is_circuit_failed(4, 0));
  EXPECT_TRUE(view.is_circuit_failed(4, 1));

  view.heal_circuit(0, 3);
  view.heal_circuit(4, 1);
  EXPECT_TRUE(view.failed_circuits().empty());
  EXPECT_FALSE(view.any_failures());
}

TEST(FailureTest, HealAllHealsEveryEntityAndResumesTraffic) {
  const CircuitSchedule s = ScheduleBuilder::round_robin(6);
  const DirectRouter router;
  SlottedNetwork net(&s, &router, fast_config());
  net.fail_node(3);
  net.fail_circuit(0, 2);
  net.fail_circuit(4, 5);
  net.inject_cell(0, 2);
  net.inject_cell(4, 5);
  net.inject_cell(1, 3);
  net.run(20);
  EXPECT_EQ(net.metrics().delivered_cells(), 0u);
  EXPECT_EQ(net.cells_in_flight(), 3u);

  EXPECT_EQ(net.heal_all(), 3u) << "one node + two circuits";
  EXPECT_FALSE(net.is_failed(3));
  EXPECT_FALSE(net.is_circuit_failed(0, 2));
  EXPECT_FALSE(net.is_circuit_failed(4, 5));
  net.run(20);
  EXPECT_EQ(net.metrics().delivered_cells(), 3u);
  EXPECT_EQ(net.heal_all(), 0u) << "idempotent on a healthy network";
}

TEST(FailureTest, FailedNodeNeitherSendsNorReceives) {
  const CircuitSchedule s = ScheduleBuilder::round_robin(4);
  const DirectRouter router;
  SlottedNetwork net(&s, &router, fast_config());
  net.fail_node(1);
  net.inject_cell(1, 2);  // cannot send
  net.inject_cell(0, 1);  // cannot be received
  net.inject_cell(2, 0);  // unaffected
  net.run(10);
  EXPECT_EQ(net.metrics().delivered_cells(), 1u);
  EXPECT_EQ(net.cells_in_flight(), 2u);
  net.heal_node(1);
  net.run(10);
  EXPECT_EQ(net.metrics().delivered_cells(), 3u);
}

TEST(FailureTest, RelayFailureStrandsMultiHopCells) {
  const CircuitSchedule s = ScheduleBuilder::round_robin(8);
  const VlbRouter router(&s, LbMode::kFirstAvailable);
  SlottedNetwork net(&s, &router, fast_config());
  // At slot 0, node 0's first available neighbor is 1: route 0 -> 1 -> 5.
  net.fail_node(1);
  net.inject_cell(0, 5);
  net.run(50);
  EXPECT_EQ(net.metrics().delivered_cells(), 0u);
  net.heal_node(1);
  net.run(50);
  EXPECT_EQ(net.metrics().delivered_cells(), 1u);
}

// Simulation counterpart of the blast-radius analysis: an inter-clique
// circuit failure in SORN affects only pairs between those two cliques.
TEST(FailureTest, SornInterCliqueFailureIsContained) {
  const auto cliques = CliqueAssignment::contiguous(16, 4);
  const CircuitSchedule s = ScheduleBuilder::sorn(cliques, Rational{2, 1});
  const SornRouter router(&s, &cliques, LbMode::kRandom);
  SlottedNetwork net(&s, &router, fast_config());
  // Fail every circuit from clique 0 into clique 1 (nodes 0-3 -> 4-7).
  for (NodeId a = 0; a < 4; ++a)
    for (NodeId b = 4; b < 8; ++b) net.fail_circuit(a, b);

  // Pairs not involving clique0 -> clique1 still complete.
  net.inject_cell(0, 2);    // intra clique 0
  net.inject_cell(8, 13);   // clique 2 -> 3
  net.inject_cell(4, 1);    // clique 1 -> 0 (reverse direction unaffected)
  net.run(400);
  EXPECT_EQ(net.metrics().delivered_cells(), 3u);

  // clique 0 -> clique 1 pairs are stuck at the inter hop.
  net.inject_cell(1, 6);
  net.run(400);
  EXPECT_EQ(net.metrics().delivered_cells(), 3u);
  EXPECT_EQ(net.cells_in_flight(), 1u);
}

TEST(FailureTest, ReconfigureAroundFailedNodeRestoresOtherTraffic) {
  // The control plane can also route around persistent failures by
  // re-cliquing; here we just verify a swap with failures in place works.
  const CircuitSchedule rr = ScheduleBuilder::round_robin(8);
  const VlbRouter vlb(&rr, LbMode::kRandom);
  SlottedNetwork net(&rr, &vlb, fast_config());
  net.fail_node(7);
  const auto cliques = CliqueAssignment::contiguous(8, 2);
  const CircuitSchedule sorn_sched = ScheduleBuilder::sorn(cliques, {3, 1});
  const auto router =
      SornRouter(&sorn_sched, &cliques, LbMode::kRandom);
  net.reconfigure(&sorn_sched, &router);
  net.inject_cell(0, 3);
  net.run(100);
  EXPECT_EQ(net.metrics().delivered_cells(), 1u);
}

}  // namespace
}  // namespace sorn
