// Gray (partial) circuit failures: the stateless seeded verdicts must
// track the configured probabilities, stay deterministic across
// identically-seeded views, and the network must count a gray drop as a
// drop (recoverable by retransmission) while a throttle queues instead.
#include "sim/gray_failures.h"

#include <gtest/gtest.h>

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
  c.lanes = 1;
  c.slot_duration = 100 * 1000;
  c.propagation_per_hop = 0;
  return c;
}

Cell make_cell(FlowId flow, std::uint32_t seq) {
  return Cell(flow, seq, Path::of({0, 1}), 0);
}

TEST(GrayFailureViewTest, LossVerdictsTrackProbabilityDeterministically) {
  GrayFailureView view(8);
  view.set_seed(42);
  view.degrade_circuit(0, 1, 0.3);
  GrayFailureView twin(8);
  twin.set_seed(42);
  twin.degrade_circuit(0, 1, 0.3);
  const GrayCircuit* g = view.find(0, 1);
  const GrayCircuit* tg = twin.find(0, 1);
  ASSERT_NE(g, nullptr);
  ASSERT_NE(tg, nullptr);

  const int kTrials = 20000;
  int lost = 0;
  for (int i = 0; i < kTrials; ++i) {
    const Cell cell = make_cell(i % 7, static_cast<std::uint32_t>(i));
    const bool verdict = view.cell_lost(i, 0, 1, *g, cell);
    // Same (seed, slot, circuit, cell) => same verdict, in any view.
    EXPECT_EQ(verdict, twin.cell_lost(i, 0, 1, *tg, cell));
    lost += verdict ? 1 : 0;
  }
  const double rate = static_cast<double>(lost) / kTrials;
  EXPECT_NEAR(rate, 0.3, 0.02);
}

TEST(GrayFailureViewTest, LossHashKeysOnFlowSeqAndFullPathHop) {
  // Verdict bits over 64 slots, captured when a cell stored its flow id in
  // 64 bits and its whole path: the compact cell must feed the hash the
  // same flow, seq and hop (the index in the full path, source = 0).
  GrayFailureView view(8);
  view.set_seed(99);
  view.degrade_circuit(3, 5, 0.5);
  const GrayCircuit* g = view.find(3, 5);
  ASSERT_NE(g, nullptr);
  const struct {
    FlowId flow;
    std::uint64_t bits[3];  // per hop 0, 1, 2
  } pins[] = {
      {7, {0x6b33d85f35d00a8e, 0xca1d9c0f830bf1f8, 0xc777d6e32766d7b6}},
      {Cell::kMaxFlow,
       {0x9a64001c67c90d55, 0x94319cfb962ceddf, 0x2c97c40641a7e99b}},
      {kNoFlow, {0xdc31ed607d3e19d9, 0x851cfca511734642, 0xead3b5fda04cde88}},
  };
  for (const auto& pin : pins) {
    Cell cell(pin.flow, 4000000000u, Path::of({0, 3, 5, 6}), 0);
    for (int hop = 0; hop < 3; ++hop) {
      std::uint64_t bits = 0;
      for (Slot slot = 0; slot < 64; ++slot)
        if (view.cell_lost(slot, 3, 5, *g, cell)) bits |= 1ULL << slot;
      EXPECT_EQ(bits, pin.bits[hop]) << "flow " << pin.flow << " hop " << hop;
      cell.advance();
    }
  }
}

TEST(GrayFailureViewTest, RetransmittedCopyRerollsItsFate) {
  // The loss hash keys on the slot, so a retransmitted copy of the same
  // cell crossing the same circuit in a later slot is a fresh coin flip —
  // losses are not sticky per cell.
  GrayFailureView view(8);
  view.set_seed(7);
  view.degrade_circuit(0, 1, 0.5);
  const GrayCircuit* g = view.find(0, 1);
  const Cell cell = make_cell(3, 11);
  bool saw_lost = false, saw_kept = false;
  for (Slot slot = 0; slot < 64; ++slot) {
    (view.cell_lost(slot, 0, 1, *g, cell) ? saw_lost : saw_kept) = true;
  }
  EXPECT_TRUE(saw_lost);
  EXPECT_TRUE(saw_kept);
}

TEST(GrayFailureViewTest, ThrottleActiveFractionTracksCapacity) {
  GrayFailureView view(8);
  view.set_seed(5);
  view.throttle_circuit(2, 3, 0.4);
  const GrayCircuit* g = view.find(2, 3);
  ASSERT_NE(g, nullptr);
  int active = 0;
  const int kSlots = 20000;
  for (Slot slot = 0; slot < kSlots; ++slot)
    active += view.slot_active(slot, 2, 3, *g) ? 1 : 0;
  EXPECT_NEAR(static_cast<double>(active) / kSlots, 0.4, 0.02);
}

TEST(GrayFailureViewTest, HealthyPointPrunesFromTheView) {
  GrayFailureView view(8);
  EXPECT_FALSE(view.any());
  EXPECT_TRUE(view.degrade_circuit(0, 1, 0.25));
  EXPECT_TRUE(view.any());
  // Degrading back to the healthy point removes the entry entirely, so
  // the sweep's any() fast path stays exact.
  view.degrade_circuit(0, 1, 0.0);
  EXPECT_FALSE(view.any());
  EXPECT_EQ(view.find(0, 1), nullptr);

  view.throttle_circuit(4, 5, 0.5);
  EXPECT_TRUE(view.restore_circuit(4, 5));
  EXPECT_FALSE(view.restore_circuit(4, 5));  // idempotent
  EXPECT_FALSE(view.any());
}

TEST(GrayFailureNetworkTest, FullLossDropsAndCountsCells) {
  const CircuitSchedule s = ScheduleBuilder::round_robin(4);
  const DirectRouter router;
  SlottedNetwork net(&s, &router, fast_config());
  net.degrade_circuit(0, 1, 1.0);
  net.inject_cell(0, 1);  // circuit 0->1 is up at slot 0
  net.step();
  EXPECT_EQ(net.metrics().delivered_cells(), 0u);
  EXPECT_EQ(net.metrics().gray_dropped_cells(), 1u);
  EXPECT_EQ(net.metrics().dropped_cells(), 1u);
  EXPECT_EQ(net.cells_in_flight(), 0u);  // lost, not queued
}

TEST(GrayFailureNetworkTest, ZeroCapacityThrottleQueuesThenRestores) {
  const CircuitSchedule s = ScheduleBuilder::round_robin(4);
  const DirectRouter router;
  SlottedNetwork net(&s, &router, fast_config());
  net.throttle_circuit(0, 1, 0.0);
  net.inject_cell(0, 1);
  net.run(8);  // two periods: the circuit never serves a slot
  EXPECT_EQ(net.metrics().delivered_cells(), 0u);
  EXPECT_EQ(net.metrics().gray_dropped_cells(), 0u);
  EXPECT_EQ(net.cells_in_flight(), 1u);  // still queued, not lost
  net.restore_circuit(0, 1);
  net.run(4);  // the 0->1 slot comes around again
  EXPECT_EQ(net.metrics().delivered_cells(), 1u);
}

TEST(GrayFailureViewTest, DegradedCircuitsReportSorted) {
  GrayFailureView view(8);
  view.degrade_circuit(5, 2, 0.1);
  view.throttle_circuit(1, 7, 0.6);
  view.degrade_circuit(1, 3, 0.2);
  const auto list = view.degraded_circuits();
  ASSERT_EQ(list.size(), 3u);
  EXPECT_EQ(std::get<0>(list[0]), 1);
  EXPECT_EQ(std::get<1>(list[0]), 3);
  EXPECT_EQ(std::get<0>(list[1]), 1);
  EXPECT_EQ(std::get<1>(list[1]), 7);
  EXPECT_EQ(std::get<0>(list[2]), 5);
  EXPECT_DOUBLE_EQ(std::get<2>(list[1]).capacity, 0.6);
}

}  // namespace
}  // namespace sorn
