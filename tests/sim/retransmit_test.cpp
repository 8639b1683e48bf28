// End-host retransmission and outage recovery semantics.
//
// Regression suite for the fault-injection PR's acceptance criteria:
// cells queued behind a failed node resume after heal with FCT measured
// from the true inject slot (including across a mid-outage reconfig
// swap); flows whose cells were lost outright complete via retransmission
// with exponential backoff; and receiver dedup keeps the accounting exact
// when both an original and its retransmitted copy arrive.
#include <gtest/gtest.h>

#include <cstdint>

#include "routing/sorn_routing.h"
#include "routing/vlb.h"
#include "sim/network.h"
#include "sim/workload_driver.h"
#include "topo/schedule_builder.h"
#include "traffic/arrivals.h"
#include "traffic/flow_size.h"
#include "traffic/patterns.h"

namespace sorn {
namespace {

NetworkConfig fast_config() {
  NetworkConfig c;
  c.propagation_per_hop = 0;
  return c;
}

class DirectRouter : public Router {
 public:
  Path route(NodeId src, NodeId dst, Slot, Rng&) const override {
    return Path::of({src, dst});
  }
  int max_hops() const override { return 1; }
};

// Delegates to an inner router and tallies route() calls, so tests can
// prove which path class served an injection or a retransmission.
class CountingRouter : public Router {
 public:
  explicit CountingRouter(const Router* inner) : inner_(inner) {}
  Path route(NodeId src, NodeId dst, Slot now, Rng& rng) const override {
    ++calls_;
    return inner_->route(src, dst, now, rng);
  }
  int max_hops() const override { return inner_->max_hops(); }
  std::uint64_t calls() const { return calls_; }

 private:
  const Router* inner_;
  mutable std::uint64_t calls_ = 0;
};

// Step `slots` slots, running the stall detector every `check` slots.
void run_with_retransmit(SlottedNetwork& net, Slot slots, Slot timeout,
                         Slot check) {
  for (Slot t = 0; t < slots; ++t) {
    if (net.now() % check == 0)
      net.retransmit_stalled({timeout, /*max_attempts=*/8});
    net.step();
  }
}

TEST(RetransmitTest, QueuedCellsResumeAfterHealWithTrueFct) {
  const CircuitSchedule s = ScheduleBuilder::round_robin(4);
  const DirectRouter router;
  SlottedNetwork net(&s, &router, fast_config());

  net.fail_node(2);
  net.inject_flow(/*flow=*/1, /*src=*/0, /*dst=*/2, /*bytes=*/512);  // 2 cells
  constexpr Slot kOutage = 200;
  net.run(kOutage);
  EXPECT_EQ(net.metrics().delivered_cells(), 0u);
  EXPECT_EQ(net.metrics().completed_flows(), 0u);
  EXPECT_EQ(net.cells_in_flight(), 2u) << "outage queues, never drops";

  net.heal_node(2);
  net.run(50);
  EXPECT_EQ(net.metrics().completed_flows(), 1u);
  EXPECT_EQ(net.cells_in_flight(), 0u);
  // FCT spans the outage: at least kOutage slots of wall time, measured
  // from the true inject slot, not from the heal.
  const double fct = net.metrics().fct_ps().percentile(50.0);
  EXPECT_GE(fct, static_cast<double>(kOutage) *
                     static_cast<double>(net.config().slot_duration));
}

TEST(RetransmitTest, MidOutageReconfigSwapKeepsFctAccounting) {
  // The flow is injected, the destination fails, and while it is down the
  // control plane swaps the schedule/router generation. The stranded
  // cells keep their old paths; after the heal they deliver under the new
  // generation and the FCT still spans the whole episode.
  const CircuitSchedule rr = ScheduleBuilder::round_robin(8);
  const VlbRouter vlb(&rr, LbMode::kFirstAvailable);
  SlottedNetwork net(&rr, &vlb, fast_config());

  net.inject_flow(/*flow=*/9, /*src=*/0, /*dst=*/5, /*bytes=*/1024);
  net.fail_node(5);
  constexpr Slot kOutage = 300;
  net.run(kOutage);
  EXPECT_EQ(net.metrics().completed_flows(), 0u);

  const auto cliques = CliqueAssignment::contiguous(8, 2);
  const CircuitSchedule sorn_sched = ScheduleBuilder::sorn(cliques, {3, 1});
  const SornRouter sorn_router(&sorn_sched, &cliques, LbMode::kRandom);
  net.reconfigure(&sorn_sched, &sorn_router);

  net.heal_node(5);
  net.run(400);
  EXPECT_EQ(net.metrics().completed_flows(), 1u);
  EXPECT_EQ(net.metrics().open_flows(), 0u);
  const double fct = net.metrics().fct_ps().percentile(50.0);
  EXPECT_GE(fct, static_cast<double>(kOutage) *
                     static_cast<double>(net.config().slot_duration));
}

TEST(RetransmitTest, RetransmissionRecoversCellsLostToDrops) {
  // A bounded source queue tail-drops most of a burst at injection: those
  // cells are gone, not queued, so only retransmission can complete the
  // flow. The stall detector must fire (with backoff) until every missing
  // seq has been re-admitted and delivered.
  const CircuitSchedule s = ScheduleBuilder::round_robin(4);
  const DirectRouter router;
  NetworkConfig config = fast_config();
  config.max_queue_cells = 4;
  SlottedNetwork net(&s, &router, config);

  net.inject_flow(/*flow=*/3, /*src=*/0, /*dst=*/1, /*bytes=*/20 * 256);
  EXPECT_GT(net.metrics().dropped_cells(), 0u) << "burst must overflow";

  run_with_retransmit(net, /*slots=*/4000, /*timeout=*/16, /*check=*/4);
  EXPECT_EQ(net.metrics().completed_flows(), 1u);
  EXPECT_EQ(net.metrics().open_flows(), 0u);
  EXPECT_GT(net.metrics().retransmit_events(), 0u);
  EXPECT_GT(net.metrics().retransmitted_cells(), 0u);
  EXPECT_EQ(net.metrics().recovered_flows(), 1u);
  EXPECT_GT(net.metrics().mean_recovery_slots(), 0.0);
  // Conservation: every injected cell (originals + retransmitted copies)
  // is accounted for.
  EXPECT_EQ(net.metrics().injected_cells(),
            net.metrics().delivered_cells() + net.metrics().dropped_cells() +
                net.cells_in_flight());
}

TEST(RetransmitTest, ReceiverDedupKeepsFlowAccountingExact) {
  // Outage semantics keep the originals queued; retransmission re-admits
  // copies of the same seqs. After the heal both generations deliver —
  // the receiver must count the flow complete exactly once and tally the
  // surplus as duplicates.
  const CircuitSchedule s = ScheduleBuilder::round_robin(4);
  const DirectRouter router;
  SlottedNetwork net(&s, &router, fast_config());

  net.fail_node(2);
  net.inject_flow(/*flow=*/5, /*src=*/0, /*dst=*/2, /*bytes=*/4 * 256);
  // Let the stall detector fire at least once while the originals are
  // stuck: copies pile up behind the same failed node.
  run_with_retransmit(net, /*slots=*/200, /*timeout=*/32, /*check=*/8);
  EXPECT_GT(net.metrics().retransmitted_cells(), 0u);

  net.heal_node(2);
  run_with_retransmit(net, /*slots=*/400, /*timeout=*/32, /*check=*/8);
  EXPECT_EQ(net.metrics().completed_flows(), 1u);
  EXPECT_EQ(net.metrics().open_flows(), 0u);
  EXPECT_GT(net.metrics().duplicate_cells(), 0u)
      << "both the original and the copy of some seq must have arrived";
  // delivered counts every arriving copy; exactly 4 of them were firsts.
  EXPECT_EQ(net.metrics().delivered_cells(),
            4u + net.metrics().duplicate_cells());
  EXPECT_EQ(net.metrics().injected_cells(),
            net.metrics().delivered_cells() + net.metrics().dropped_cells() +
                net.cells_in_flight());
}

TEST(RetransmitTest, BulkFlowsRetransmitThroughBulkRouter) {
  // Regression: retransmit_stalled used to re-route every stalled flow
  // through the primary router, even flows that were injected through the
  // bulk router (Opera's short/bulk split). Bulk flows must retransmit
  // through the bulk path class.
  const CircuitSchedule s = ScheduleBuilder::round_robin(4);
  const DirectRouter direct;
  const CountingRouter primary(&direct);
  const CountingRouter bulk(&direct);
  SlottedNetwork net(&s, &primary, fast_config());
  net.set_bulk_router(&bulk);

  // Both destinations are down, so both flows stall and retransmit.
  net.fail_node(2);
  net.fail_node(3);
  net.inject_flow_with(bulk, /*flow=*/1, /*src=*/0, /*dst=*/2,
                       /*bytes=*/2 * 256);
  net.inject_flow(/*flow=*/2, /*src=*/0, /*dst=*/3, /*bytes=*/2 * 256);
  EXPECT_EQ(bulk.calls(), 2u);
  EXPECT_EQ(primary.calls(), 2u);

  // One retransmission round: 2 missing cells per flow re-routed.
  net.run(64);
  const std::uint64_t readmitted =
      net.retransmit_stalled({/*timeout_slots=*/16, /*max_attempts=*/1});
  EXPECT_EQ(readmitted, 4u);
  EXPECT_EQ(bulk.calls(), 4u) << "bulk flow must re-route via bulk router";
  EXPECT_EQ(primary.calls(), 4u)
      << "short flow must re-route via primary router";
}

TEST(RetransmitTest, OperaSplitFaultBlastRetransmitsBulkViaBulkPaths) {
  // Driver-level flavor of the same regression: an Opera-style split where
  // every flow classifies as bulk (cutoff below the fixed flow size), plus
  // a mid-run fault blast that strands traffic and triggers the stall
  // detector. The primary router must never be consulted — not at
  // injection, and (the regression) not at retransmission either.
  const CircuitSchedule s = ScheduleBuilder::round_robin(8);
  const VlbRouter vlb(&s, LbMode::kFirstAvailable);
  const DirectRouter direct;
  const CountingRouter primary(&vlb);
  const CountingRouter bulk(&direct);
  NetworkConfig config = fast_config();
  SlottedNetwork net(&s, &primary, config);

  const TrafficMatrix tm = patterns::uniform(8);
  const FlowSizeDist sizes = FlowSizeDist::fixed(4 * 256);
  const double node_bw =
      static_cast<double>(config.cell_bytes) * 8.0 /
      (static_cast<double>(config.slot_duration) * 1e-12);
  FlowArrivals arrivals(&tm, &sizes, node_bw, /*load=*/0.2, Rng(11));
  WorkloadDriver driver(&arrivals);
  driver.set_bulk_router(&bulk, /*cutoff_bytes=*/1);
  driver.set_retransmit({/*timeout_slots=*/32, /*max_attempts=*/8},
                        /*check_every=*/8);
  // Fault blast: node 5 dies early and heals late, so flows toward it
  // stall long enough for at least one retransmission round.
  driver.set_slot_hook([](SlottedNetwork& n, Slot now) {
    if (now == 50) n.fail_node(5);
    if (now == 800) n.heal_node(5);
  });
  driver.run_until(net, 1000 * config.slot_duration, 4000);

  EXPECT_EQ(net.bulk_router(), &bulk) << "driver must register the split";
  EXPECT_GT(net.metrics().retransmit_events(), 0u) << "blast must stall flows";
  EXPECT_GT(bulk.calls(), 0u);
  EXPECT_EQ(primary.calls(), 0u)
      << "all-bulk traffic must never touch the primary router, including "
         "retransmissions";
  EXPECT_EQ(net.metrics().open_flows(), 0u) << "every flow recovers";
}

TEST(RetransmitTest, StallDetectorSkipsCellsNeverSent) {
  // Satellite audit pin: with a windowed transport only part of a flow
  // has been released when the stall detector fires. collect_retransmits
  // used to scan every seq below total_cells and "retransmit" cells that
  // were never injected, inflating injected/delivered accounting. The
  // scan must stop at the send frontier (FlowRecord::cells_sent).
  const CircuitSchedule s = ScheduleBuilder::round_robin(4);
  const DirectRouter router;
  SlottedNetwork net(&s, &router, fast_config());

  // 8-cell flow, but only the first 2 cells have been sent (a window).
  net.fail_node(2);
  net.inject_flow_segment(router, /*flow=*/1, /*src=*/0, /*dst=*/2,
                          /*bytes=*/8 * 256, /*first_cell=*/0,
                          /*cell_count=*/2);
  EXPECT_EQ(net.metrics().injected_cells(), 2u);
  net.run(64);
  const std::uint64_t readmitted =
      net.retransmit_stalled({/*timeout_slots=*/16, /*max_attempts=*/1});
  EXPECT_EQ(readmitted, 2u)
      << "only the sent window may be re-admitted, never unsent seqs";
  EXPECT_EQ(net.metrics().injected_cells(), 4u);

  // Deliver everything (sending the rest of the flow too) and pin the
  // completion accounting: one flow, one FCT sample, exact dedup math.
  net.heal_node(2);
  net.inject_flow_segment(router, /*flow=*/1, /*src=*/0, /*dst=*/2,
                          /*bytes=*/8 * 256, /*first_cell=*/2,
                          /*cell_count=*/6);
  net.run(400);
  EXPECT_EQ(net.metrics().completed_flows(), 1u);
  EXPECT_EQ(net.metrics().open_flows(), 0u);
  EXPECT_EQ(net.metrics().fct_ps().count(), 1u) << "one FCT per flow";
  EXPECT_EQ(net.metrics().delivered_cells(),
            8u + net.metrics().duplicate_cells());
  EXPECT_EQ(net.metrics().injected_cells(),
            net.metrics().delivered_cells() + net.metrics().dropped_cells() +
                net.cells_in_flight());
}

TEST(RetransmitTest, BackoffCapsAttempts) {
  // An unhealable outage: the destination stays down forever. The stall
  // detector must stop re-admitting after max_attempts rounds instead of
  // flooding the queues.
  const CircuitSchedule s = ScheduleBuilder::round_robin(4);
  const DirectRouter router;
  SlottedNetwork net(&s, &router, fast_config());

  net.fail_node(2);
  net.inject_flow(/*flow=*/7, /*src=*/0, /*dst=*/2, /*bytes=*/256);
  for (Slot t = 0; t < 3000; ++t) {
    net.retransmit_stalled({/*timeout_slots=*/4, /*max_attempts=*/3});
    net.step();
  }
  EXPECT_EQ(net.metrics().retransmit_events(), 3u);
  EXPECT_EQ(net.metrics().completed_flows(), 0u);
  EXPECT_EQ(net.metrics().open_flows(), 1u);
}

}  // namespace
}  // namespace sorn
