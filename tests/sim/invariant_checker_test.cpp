// The invariant checker fires: each invariant class is fed one broken
// event stream through the checker's observer hooks, and the recorded
// message names the slot. The checker is driven directly, not attached,
// so the network's own (correct) events never reach it.
#include "sim/invariants.h"

#include <gtest/gtest.h>

#include <string>

#include "routing/direct.h"
#include "sim/network.h"
#include "topo/schedule_builder.h"

namespace sorn {
namespace {

class InvariantCheckerTest : public ::testing::Test {
 protected:
  InvariantCheckerTest()
      : schedule_(ScheduleBuilder::round_robin(8)),
        net_(&schedule_, &router_, NetworkConfig{}) {}

  // The single recorded violation, after checking there is exactly one.
  std::string only_violation() const {
    EXPECT_EQ(checker_.violation_count(), 1u);
    return checker_.violations().empty() ? std::string()
                                         : checker_.violations().front();
  }

  const CircuitSchedule schedule_;
  const DirectRouter router_;
  SlottedNetwork net_;
  InvariantChecker checker_;
};

bool starts_with(const std::string& s, const std::string& prefix) {
  return s.rfind(prefix, 0) == 0;
}

TEST_F(InvariantCheckerTest, CleanStreamHasNoViolations) {
  checker_.on_attach(net_);
  checker_.on_flow_inject(0, /*flow=*/3, 0, 1, 512, /*cells=*/2, 0);
  checker_.on_transmit(0, 0, 1);
  const Cell cell(/*flow=*/3, /*seq=*/1, Path::of({0, 1}), 0);
  checker_.on_deliver(0, cell, true);
  checker_.on_deliver(0, cell, false);  // a duplicate copy is legal
  checker_.on_slot_end(0, net_);
  EXPECT_TRUE(checker_.ok());
  EXPECT_EQ(checker_.transmits_checked(), 1u);
  EXPECT_EQ(checker_.delivers_checked(), 2u);
  EXPECT_EQ(checker_.slots_checked(), 1u);
}

TEST_F(InvariantCheckerTest, FlagsTransmitFromFailedNode) {
  checker_.on_attach(net_);
  net_.fail_node(2);
  checker_.on_transmit(7, 2, 5);
  const std::string v = only_violation();
  EXPECT_TRUE(starts_with(v, "slot 7: ")) << v;
  EXPECT_NE(v.find("from failed node 2"), std::string::npos) << v;
}

TEST_F(InvariantCheckerTest, FlagsTransmitAcrossFailedCircuit) {
  checker_.on_attach(net_);
  net_.fail_circuit(1, 4);
  checker_.on_transmit(3, 4, 1);  // the reverse direction is up
  EXPECT_TRUE(checker_.ok());
  checker_.on_transmit(9, 1, 4);
  const std::string v = only_violation();
  EXPECT_TRUE(starts_with(v, "slot 9: ")) << v;
  EXPECT_NE(v.find("failed circuit 1->4"), std::string::npos) << v;
}

TEST_F(InvariantCheckerTest, FlagsDeliveredSeqBeyondFlowTotal) {
  checker_.on_attach(net_);
  checker_.on_flow_inject(0, /*flow=*/5, 0, 1, 512, /*cells=*/2, 0);
  const Cell cell(/*flow=*/5, /*seq=*/2, Path::of({0, 1}), 0);
  checker_.on_deliver(11, cell, true);
  const std::string v = only_violation();
  EXPECT_TRUE(starts_with(v, "slot 11: ")) << v;
  EXPECT_NE(v.find("flow 5 delivered seq 2 beyond its 2 cells"),
            std::string::npos)
      << v;
}

TEST_F(InvariantCheckerTest, FlagsSlotEndThatBreaksConservation) {
  net_.inject_cell(0, 1);
  checker_.on_attach(net_);
  checker_.on_slot_end(12, net_);
  EXPECT_TRUE(checker_.ok()) << "attach anchors the cell already queued";
  // A drop no cell left the queues for: the counts no longer balance.
  net_.metrics().on_drop();
  checker_.on_slot_end(13, net_);
  const std::string v = only_violation();
  EXPECT_TRUE(starts_with(v, "slot 13: ")) << v;
  EXPECT_NE(v.find("cell conservation broken"), std::string::npos) << v;
}

TEST_F(InvariantCheckerTest, RecordingStopsAtMaxRecorded) {
  checker_.on_attach(net_);
  net_.fail_node(6);
  const Slot total = InvariantChecker::kMaxRecorded + 10;
  for (Slot slot = 0; slot < total; ++slot) checker_.on_transmit(slot, 6, 0);
  EXPECT_EQ(checker_.violation_count(), static_cast<std::uint64_t>(total));
  ASSERT_EQ(checker_.violations().size(), InvariantChecker::kMaxRecorded);
  const std::string last =
      "slot " + std::to_string(InvariantChecker::kMaxRecorded - 1) + ": ";
  EXPECT_TRUE(starts_with(checker_.violations().front(), "slot 0: "));
  EXPECT_TRUE(starts_with(checker_.violations().back(), last));
}

TEST_F(InvariantCheckerTest, CounterResetReanchorsThroughAttach) {
  // Attached for real: cells queued across reset_metrics() must not read
  // as a conservation break, because the reset re-sends attach.
  net_.add_observer(&checker_);
  for (NodeId src = 1; src < 8; ++src) net_.inject_cell(src, 0);
  net_.step();
  ASSERT_GT(net_.cells_in_flight(), 0u);
  net_.reset_metrics();
  net_.run(16);
  EXPECT_TRUE(checker_.ok()) << checker_.violations().front();
  EXPECT_EQ(net_.cells_in_flight(), 0u);
  EXPECT_EQ(checker_.slots_checked(), 17u);
}

}  // namespace
}  // namespace sorn
