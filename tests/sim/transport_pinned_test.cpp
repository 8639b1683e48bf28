// The closed-loop transport against pinned bytes: DCTCP windows + ECN
// marking + stall retransmission under a gray-failure blast must
// reproduce the metrics JSON and trace captured from an earlier build
// (pins.h). This puts the queue-size reconstruction behind the capacity
// check and the ECN mark (the apply pass's popped_ bookkeeping) on the
// line together with the ack echo. Each sizing mode runs: cap + ECN, ECN
// alone, cap alone.
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
#include "pins.h"

namespace sorn {
namespace {

using pins::pin_of;

struct Artifacts {
  std::string metrics_json;
  std::vector<std::string> trace_lines;
  std::uint64_t delivered = 0;
  std::uint64_t tail_dropped = 0;
  std::uint64_t ecn_marked = 0;
  std::uint64_t acked = 0;
};

// Incast waves through DCTCP on a SORN fabric, with the given queue cap
// and ECN threshold (0 disables either), stall retransmission, and a
// mid-run gray-failure blast (lossy + throttled circuits) that heals
// before the drain.
Artifacts run_gray_blast(std::uint64_t max_queue_cells,
                         std::uint64_t ecn_threshold_cells) {
  const SornFabric net = build_sorn_fabric(
      CliqueAssignment::contiguous(32, 8), optimal_q(0.5, 12));
  NetworkConfig net_cfg;
  net_cfg.propagation_per_hop = 0;
  net_cfg.max_queue_cells = max_queue_cells;
  net_cfg.ecn_threshold_cells = ecn_threshold_cells;
  SlottedNetwork sim(net.schedule.get(), net.router.get(), net_cfg);

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
  out.tail_dropped =
      sim.metrics().dropped_cells() - sim.metrics().gray_dropped_cells();
  out.ecn_marked = sim.metrics().ecn_marked_cells();
  out.acked = tstats.acked_cells;
  return out;
}

// The run's artifacts, after checking its metrics JSON and trace against
// their pins.
Artifacts expect_pinned(std::uint64_t max_queue_cells,
                        std::uint64_t ecn_threshold_cells,
                        const std::string& metrics_pin,
                        const std::string& trace_pin) {
  const Artifacts run = run_gray_blast(max_queue_cells, ecn_threshold_cells);
  EXPECT_EQ(pin_of(run.metrics_json), metrics_pin);
  EXPECT_EQ(pin_of(run.trace_lines), trace_pin);
  return run;
}

TEST(TransportPinnedTest, GrayBlastMatchesPinnedArtifacts) {
  // A cap of 8 over a mark at 6: both read the same reconstructed depth,
  // and both bite.
  const Artifacts base = expect_pinned(8, 6, "12293:b9ae8dc50ae92005",
                                       "35995:ab1d6275d837cfc8");
  EXPECT_GT(base.delivered, 0u);
  EXPECT_GT(base.ecn_marked, 0u) << "the blast must actually mark cells";
  EXPECT_GT(base.tail_dropped, 0u) << "the cap must actually drop cells";
  EXPECT_GT(base.acked, 0u);
}

TEST(TransportPinnedTest, EcnWithoutCapMatchesPinnedArtifacts) {
  const Artifacts base = expect_pinned(0, 6, "13547:52c4fa9c2b6c17af",
                                       "28591:ff1d23862328374d");
  EXPECT_GT(base.ecn_marked, 0u) << "the blast must actually mark cells";
  EXPECT_EQ(base.tail_dropped, 0u) << "unbounded queues never tail-drop";
  EXPECT_GT(base.acked, 0u);
}

TEST(TransportPinnedTest, CapWithoutEcnMatchesPinnedArtifacts) {
  const Artifacts base = expect_pinned(4, 0, "12247:a897727508c08c68",
                                       "58726:9ac7ebfefc7c1da8");
  EXPECT_EQ(base.ecn_marked, 0u);
  EXPECT_GT(base.tail_dropped, 0u) << "the cap must actually drop cells";
  EXPECT_GT(base.acked, 0u);
}

}  // namespace
}  // namespace sorn
