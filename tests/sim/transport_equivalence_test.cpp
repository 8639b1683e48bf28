// Thread-count byte-equivalence for the closed-loop transport: DCTCP
// windows + ECN marking + stall retransmission under a gray-failure blast
// must produce byte-identical artifacts at 1, 4 and 7 engine threads.
// This puts the queue-size reconstruction behind the capacity check and
// the ECN mark (the merge phase's popped_ bookkeeping) on the line
// together with the ack echo, which must happen on the coordinating
// thread only. Each sizing mode runs: cap + ECN, ECN alone, cap alone.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "control/reconfig.h"
#include "obs/export.h"
#include "sim/workload_driver.h"
#include "traffic/flow_size.h"
#include "traffic/patterns.h"
#include "traffic/workloads.h"
#include "transport/transport.h"

namespace sorn {
namespace {

struct Artifacts {
  std::string metrics_json;
  std::vector<std::string> trace_lines;
  std::uint64_t delivered = 0;
  std::uint64_t dropped = 0;
  std::uint64_t tail_dropped = 0;
  std::uint64_t ecn_marked = 0;
  std::uint64_t acked = 0;
  std::uint64_t in_flight = 0;
};

// Incast waves through DCTCP on a SORN fabric, with the given queue cap
// and ECN threshold (0 disables either), stall retransmission, and a
// mid-run gray-failure blast (lossy + throttled circuits) that heals
// before the drain.
Artifacts run_gray_blast(int threads, std::uint64_t max_queue_cells,
                         std::uint64_t ecn_threshold_cells) {
  const SornFabric net = build_sorn_fabric(
      CliqueAssignment::contiguous(32, 8), optimal_q(0.5, 12));
  NetworkConfig net_cfg;
  net_cfg.propagation_per_hop = 0;
  net_cfg.max_queue_cells = max_queue_cells;
  net_cfg.ecn_threshold_cells = ecn_threshold_cells;
  SlottedNetwork sim(net.schedule.get(), net.router.get(), net_cfg);
  sim.set_threads(threads);

  Telemetry telemetry(TelemetryOptions{.sample_every = 10});
  MemoryTraceSink sink;
  telemetry.set_trace_sink(&sink);
  sim.add_observer(&telemetry);

  DctcpTransport::Options topts;
  topts.congestion.init_cwnd_cells = 8;
  topts.congestion.gain = 0.25;
  DctcpTransport transport(topts);

  IncastArrivals arrivals(sim.node_count(), /*fanin=*/12,
                          /*bytes_per_sender=*/8192, /*period_slots=*/200,
                          sim.config().slot_duration, Rng(21));
  WorkloadDriver driver(&arrivals);
  driver.set_transport(&transport);
  driver.set_retransmit({/*timeout_slots=*/128, /*max_attempts=*/8,
                         /*check_every=*/16});
  driver.set_slot_hook([](SlottedNetwork& n, Slot now) {
    if (now == 300) {
      n.degrade_circuit(1, 2, /*loss_p=*/0.5);
      n.degrade_circuit(5, 9, /*loss_p=*/0.25);
      n.throttle_circuit(3, 7, /*capacity=*/0.3);
    }
    if (now == 1500) n.restore_all_gray();
  });
  driver.run_until(sim, 2000 * sim.config().slot_duration, 30000);

  Artifacts out;
  ExportOptions eopts;
  eopts.nodes = sim.node_count();
  const TransportStats tstats = transport.stats();
  eopts.transport = &tstats;
  out.metrics_json = run_to_json(sim.metrics(), &telemetry, eopts);
  out.trace_lines = sink.lines();
  out.delivered = sim.metrics().delivered_cells();
  out.dropped = sim.metrics().dropped_cells();
  out.tail_dropped =
      out.dropped - sim.metrics().gray_dropped_cells();
  out.ecn_marked = sim.metrics().ecn_marked_cells();
  out.acked = tstats.acked_cells;
  out.in_flight = sim.cells_in_flight();
  return out;
}

// The 1-thread artifacts, after checking that 4 and 7 threads reproduce
// them byte for byte.
Artifacts expect_identical_across_threads(std::uint64_t max_queue_cells,
                                          std::uint64_t ecn_threshold_cells) {
  const Artifacts base = run_gray_blast(1, max_queue_cells,
                                        ecn_threshold_cells);
  for (const int threads : {4, 7}) {
    const Artifacts other =
        run_gray_blast(threads, max_queue_cells, ecn_threshold_cells);
    EXPECT_EQ(base.metrics_json, other.metrics_json) << "threads=" << threads;
    EXPECT_EQ(base.trace_lines, other.trace_lines) << "threads=" << threads;
    EXPECT_EQ(base.delivered, other.delivered) << "threads=" << threads;
    EXPECT_EQ(base.dropped, other.dropped) << "threads=" << threads;
    EXPECT_EQ(base.ecn_marked, other.ecn_marked) << "threads=" << threads;
    EXPECT_EQ(base.acked, other.acked) << "threads=" << threads;
    EXPECT_EQ(base.in_flight, other.in_flight) << "threads=" << threads;
  }
  return base;
}

TEST(TransportEquivalenceTest, GrayBlastArtifactsAreByteIdentical) {
  const Artifacts base = expect_identical_across_threads(24, 6);
  EXPECT_GT(base.delivered, 0u);
  EXPECT_GT(base.ecn_marked, 0u) << "the blast must actually mark cells";
  EXPECT_GT(base.acked, 0u);
}

TEST(TransportEquivalenceTest, EcnWithoutCapIsByteIdentical) {
  const Artifacts base = expect_identical_across_threads(0, 6);
  EXPECT_GT(base.ecn_marked, 0u) << "the blast must actually mark cells";
  EXPECT_EQ(base.tail_dropped, 0u) << "unbounded queues never tail-drop";
  EXPECT_GT(base.acked, 0u);
}

TEST(TransportEquivalenceTest, CapWithoutEcnIsByteIdentical) {
  const Artifacts base = expect_identical_across_threads(4, 0);
  EXPECT_EQ(base.ecn_marked, 0u);
  EXPECT_GT(base.tail_dropped, 0u) << "the cap must actually drop cells";
  EXPECT_GT(base.acked, 0u);
}

}  // namespace
}  // namespace sorn
