// DctcpTransport integration with the slotted network: windowed release
// through inject_flow_segment, first-copy ack echo, ECN feedback closing
// the loop, bulk-router path classes, and exact completion accounting.
#include <gtest/gtest.h>

#include <cstdint>

#include "routing/vlb.h"
#include "sim/network.h"
#include "sim/workload_driver.h"
#include "topo/schedule_builder.h"
#include "transport/transport.h"

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

// Drive the transport the way the WorkloadDriver does: pump between
// slots on the coordinating thread.
void run_pumped(DctcpTransport& transport, SlottedNetwork& net, Slot slots) {
  for (Slot t = 0; t < slots; ++t) {
    transport.pump(net);
    net.step();
  }
}

TEST(TransportTest, WindowPacesInjection) {
  const CircuitSchedule s = ScheduleBuilder::round_robin(4);
  const DirectRouter router;
  SlottedNetwork net(&s, &router, fast_config());

  DctcpTransport::Options opts;
  opts.congestion.init_cwnd_cells = 4;
  opts.congestion.max_cwnd_cells = 4;
  DctcpTransport transport(opts);
  net.add_observer(&transport);

  // 16 cells, window 4: the first pump must release exactly the window,
  // not the whole flow (the open-loop behavior this layer replaces).
  transport.open_flow(net, nullptr, /*flow=*/1, /*src=*/0, /*dst=*/1,
                      /*bytes=*/16 * 256, /*flow_class=*/0);
  EXPECT_EQ(net.metrics().injected_cells(), 0u) << "open_flow injects nothing";
  EXPECT_TRUE(transport.has_backlog());

  EXPECT_EQ(transport.pump(net), 4u);
  EXPECT_EQ(net.metrics().injected_cells(), 4u);
  EXPECT_EQ(transport.pump(net), 0u) << "window full, nothing more to send";

  run_pumped(transport, net, 200);
  EXPECT_EQ(net.metrics().injected_cells(), 16u);
  EXPECT_EQ(net.metrics().completed_flows(), 1u);
  EXPECT_FALSE(transport.has_backlog()) << "completed flow is erased";

  const TransportStats stats = transport.stats();
  EXPECT_EQ(stats.flows_opened, 1u);
  EXPECT_EQ(stats.flows_completed, 1u);
  EXPECT_EQ(stats.cells_sent, 16u);
  EXPECT_EQ(stats.acked_cells, 16u);
  EXPECT_EQ(stats.ecn_acked_cells, 0u) << "no threshold, no marks";
}

TEST(TransportTest, EcnMarksCloseTheLoop) {
  // Tiny ECN threshold on a fan-in hotspot: marks must flow back through
  // acks and shrink the windows below their unmarked trajectory.
  const CircuitSchedule s = ScheduleBuilder::round_robin(8);
  const VlbRouter router(&s, LbMode::kRandom);
  NetworkConfig config = fast_config();
  config.ecn_threshold_cells = 2;
  SlottedNetwork net(&s, &router, config);

  DctcpTransport::Options opts;
  opts.congestion.init_cwnd_cells = 8;
  opts.congestion.gain = 0.5;
  DctcpTransport transport(opts);
  net.add_observer(&transport);

  // 7:1 incast into node 0; every sender's cells pile into the same VOQs.
  for (NodeId src = 1; src < 8; ++src) {
    transport.open_flow(net, nullptr, static_cast<FlowId>(src), src,
                        /*dst=*/0, /*bytes=*/64 * 256, /*flow_class=*/0);
  }
  run_pumped(transport, net, 4000);

  EXPECT_EQ(net.metrics().completed_flows(), 7u);
  EXPECT_GT(net.metrics().ecn_marked_cells(), 0u);
  const TransportStats stats = transport.stats();
  EXPECT_GT(stats.ecn_acked_cells, 0u) << "marks must echo back as acks";
  EXPECT_EQ(stats.acked_cells, 7u * 64u);
  EXPECT_LT(stats.cwnd_cells.min(), 8.0)
      << "sustained marking must shrink some window below its start";
}

TEST(TransportTest, AcksIgnoreDuplicateDeliveries) {
  // Stall retransmission re-admits copies of windowed cells; the receiver
  // acks only first copies, so the transport's inflight accounting must
  // stay exact and the flow completes exactly once.
  const CircuitSchedule s = ScheduleBuilder::round_robin(4);
  const DirectRouter router;
  SlottedNetwork net(&s, &router, fast_config());

  DctcpTransport::Options opts;
  opts.congestion.init_cwnd_cells = 4;
  DctcpTransport transport(opts);
  net.add_observer(&transport);

  net.fail_node(2);
  transport.open_flow(net, nullptr, /*flow=*/1, /*src=*/0, /*dst=*/2,
                      /*bytes=*/4 * 256, /*flow_class=*/0);
  transport.pump(net);
  // Originals are stranded behind the failed node; force one
  // retransmission round so copies of the same seqs join them.
  net.run(64);
  EXPECT_GT(net.retransmit_stalled({/*timeout_slots=*/16,
                                    /*max_attempts=*/8}),
            0u);
  net.heal_node(2);
  run_pumped(transport, net, 400);

  EXPECT_EQ(net.metrics().completed_flows(), 1u);
  EXPECT_GT(net.metrics().duplicate_cells(), 0u)
      << "both generations must arrive for the dedup path to be on trial";
  const TransportStats stats = transport.stats();
  EXPECT_EQ(stats.acked_cells, 4u) << "one ack per seq, not per copy";
  EXPECT_EQ(stats.flows_completed, 1u);
  EXPECT_FALSE(transport.has_backlog());
}

TEST(TransportTest, BulkFlowsInjectThroughBulkRouter) {
  const CircuitSchedule s = ScheduleBuilder::round_robin(4);
  const DirectRouter direct;
  const CountingRouter primary(&direct);
  const CountingRouter bulk(&direct);
  SlottedNetwork net(&s, &primary, fast_config());
  net.set_bulk_router(&bulk);

  DctcpTransport transport{DctcpTransport::Options{}};
  net.add_observer(&transport);

  transport.open_flow(net, &bulk, /*flow=*/1, /*src=*/0, /*dst=*/1,
                      /*bytes=*/2 * 256, /*flow_class=*/1);
  transport.open_flow(net, nullptr, /*flow=*/2, /*src=*/0, /*dst=*/2,
                      /*bytes=*/2 * 256, /*flow_class=*/0);
  transport.pump(net);
  EXPECT_EQ(bulk.calls(), 2u) << "bulk flow routes via the bulk path class";
  EXPECT_EQ(primary.calls(), 2u) << "short flow routes via the primary";
}

TEST(TransportTest, DriverWiresTransportEndToEnd) {
  // Through the WorkloadDriver: arrivals become open_flow calls, pump runs
  // once per slot, and the drain loop waits for the transport backlog.
  const CircuitSchedule s = ScheduleBuilder::round_robin(4);
  const DirectRouter router;
  SlottedNetwork net(&s, &router, fast_config());

  DctcpTransport::Options opts;
  opts.congestion.init_cwnd_cells = 2;
  opts.congestion.max_cwnd_cells = 2;
  DctcpTransport transport(opts);

  // Three bursts of 8 cells each at t=0; window 2 forces multi-slot
  // pacing, so completion depends on the drain loop pumping the backlog.
  struct BurstStream : ArrivalStream {
    int emitted = 0;
    FlowArrival next() override {
      if (emitted >= 3) return {kNoMoreArrivals, 0, 1, 1};
      const auto src = static_cast<NodeId>(emitted++);
      return {0, src, 3, 8 * 256};
    }
  } arrivals;

  WorkloadDriver driver(&arrivals);
  driver.set_transport(&transport);
  driver.run_until(net, 1 * net.config().slot_duration, /*drain_slots=*/2000);

  EXPECT_EQ(driver.flows_injected(), 3u);
  EXPECT_EQ(net.metrics().completed_flows(), 3u);
  EXPECT_EQ(transport.stats().flows_completed, 3u);
  EXPECT_FALSE(transport.has_backlog());
}

}  // namespace
}  // namespace sorn
