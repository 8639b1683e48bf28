#include "sim/metrics.h"

#include <gtest/gtest.h>

#include "routing/direct.h"
#include "sim/network.h"
#include "topo/schedule_builder.h"

namespace sorn {
namespace {

constexpr Picoseconds kSlot = 100 * 1000;  // 100 ns

Cell make_cell(FlowId flow, std::initializer_list<NodeId> path,
               Slot inject_slot, std::uint32_t seq = 0) {
  return Cell(flow, seq, Path::of(path), inject_slot);
}

TEST(SimMetricsTest, UnseenFlowClassYieldsEmptyPercentiles) {
  SimMetrics m(kSlot, 0);
  const Cell c = make_cell(1, {0, 1}, 0);
  m.on_inject(c, 0, 1, 256, /*flow_class=*/2);
  m.on_deliver(c, 3);
  EXPECT_EQ(m.fct_ps_class(2).count(), 1u);
  EXPECT_EQ(m.fct_ps_class(99).count(), 0u);
  EXPECT_DOUBLE_EQ(m.fct_ps_class(99).percentile(50.0), 0.0);
  EXPECT_EQ(m.flow_classes(), std::vector<int>{2});
}

TEST(SimMetricsTest, MeanHopsAveragesDeliveredCells) {
  SimMetrics m(kSlot, 0);
  EXPECT_DOUBLE_EQ(m.mean_hops(), 0.0);  // no deliveries yet
  const Cell one_hop = make_cell(kNoFlow, {0, 1}, 0);
  const Cell two_hop = make_cell(kNoFlow, {0, 2, 1}, 0);
  m.on_inject(one_hop, 0, 1, 256);
  m.on_inject(two_hop, 0, 1, 256);
  m.on_deliver(one_hop, 1);
  m.on_deliver(two_hop, 2);
  EXPECT_DOUBLE_EQ(m.mean_hops(), 1.5);
}

TEST(SimMetricsTest, ResetCountersKeepsOpenFlows) {
  SimMetrics m(kSlot, 0);
  // A two-cell flow: one cell delivered before the reset, one after.
  const Cell a = make_cell(5, {0, 1}, 0);
  // A distinct cell of the same flow, not a retransmitted copy.
  const Cell b = make_cell(5, {0, 1}, 0, /*seq=*/1);
  m.on_inject(a, 0, 2, 512, /*flow_class=*/1);
  m.on_inject(b, 0, 2, 512, /*flow_class=*/1);
  m.on_deliver(a, 1);
  EXPECT_EQ(m.open_flows(), 1u);

  m.reset_counters();
  EXPECT_EQ(m.injected_cells(), 0u);
  EXPECT_EQ(m.delivered_cells(), 0u);
  EXPECT_EQ(m.completed_flows(), 0u);
  EXPECT_EQ(m.open_flows(), 1u);  // the straddling flow survives

  m.on_deliver(b, 10);
  EXPECT_EQ(m.completed_flows(), 1u);
  EXPECT_EQ(m.open_flows(), 0u);
  // FCT spans the reset: 10 slots from the true inject slot.
  EXPECT_DOUBLE_EQ(m.fct_ps().percentile(50.0),
                   static_cast<double>(10 * kSlot));
  EXPECT_EQ(m.fct_ps_class(1).count(), 1u);
}

// The same property end-to-end: a flow in flight across
// SlottedNetwork::reset_metrics() (warmup exclusion) still completes and
// is counted after the reset.
TEST(SimMetricsTest, NetworkResetMetricsPreservesInFlightFlows) {
  const CircuitSchedule s = ScheduleBuilder::round_robin(4);
  const DirectRouter router;
  NetworkConfig cfg;
  cfg.propagation_per_hop = 0;
  SlottedNetwork net(&s, &router, cfg);
  // 4 cells to node 3; the 0->3 circuit is up once per 3-slot period, so
  // the flow cannot finish before the reset below.
  net.inject_flow(/*flow=*/1, /*src=*/0, /*dst=*/3, /*bytes=*/4 * 256);
  net.run(3);
  ASSERT_GT(net.cells_in_flight(), 0u);
  net.reset_metrics();
  EXPECT_EQ(net.metrics().completed_flows(), 0u);
  EXPECT_EQ(net.metrics().open_flows(), 1u);
  net.run(12);
  EXPECT_EQ(net.metrics().completed_flows(), 1u);
  EXPECT_EQ(net.metrics().open_flows(), 0u);
}

TEST(SimMetricsTest, DropAccountingUnderQueueCap) {
  const CircuitSchedule s = ScheduleBuilder::round_robin(4);
  const DirectRouter router;
  NetworkConfig cfg;
  cfg.propagation_per_hop = 0;
  cfg.max_queue_cells = 2;
  SlottedNetwork net(&s, &router, cfg);
  // 5 cells into the same (0 -> 3) VOQ with capacity 2: 3 tail-drops.
  for (int i = 0; i < 5; ++i) net.inject_cell(0, 3);
  EXPECT_EQ(net.metrics().injected_cells(), 5u);
  EXPECT_EQ(net.metrics().dropped_cells(), 3u);
  EXPECT_EQ(net.cells_in_flight(), 2u);
  // The queued cells still deliver; drops never do.
  net.run(12);
  EXPECT_EQ(net.metrics().delivered_cells(), 2u);
  EXPECT_EQ(net.metrics().dropped_cells(), 3u);
}

}  // namespace
}  // namespace sorn
