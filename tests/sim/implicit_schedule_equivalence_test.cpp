// Implicit (compact shift) vs explicit matching storage: for the same
// seed, a simulation driven by a builder-emitted compact schedule must
// produce byte-identical artifacts — metrics JSON, per-slot time-series
// CSV, JSONL trace — to the same simulation driven by an explicitly
// materialized copy of that schedule, at any thread count.
//
// This is the acceptance pin of the implicit-schedule PR (DESIGN.md §11):
// the compact representation changes *where* dst_of comes from, never
// what it returns, so nothing downstream — VOQ order, drop decisions,
// RNG draw sequence, telemetry — may move. Scenarios cover the paths
// where a representation bug would surface: SORN intra/inter slot mixes
// with a fault blast, and a large-N (1024) run with bounded queues,
// drops, and a mid-run reconfigure onto a different compact family
// (orn-hd digit shifts).
//
// The same pin covers the slot order: a SORN schedule over a clustered
// (non-contiguous) assignment stores each distinct explicit matching once
// and walks them; its per-slot copy must drive identical artifacts.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "control/clustering.h"
#include "obs/export.h"
#include "routing/sorn_routing.h"
#include "routing/vlb.h"
#include "sim/network.h"
#include "topo/clique.h"
#include "topo/schedule.h"
#include "topo/schedule_builder.h"
#include "traffic/patterns.h"
#include "traffic/sparse_demand.h"
#include "util/rng.h"

namespace sorn {
namespace {

constexpr int kThreadCounts[] = {1, 4, 7};
constexpr NodeId kBlastNodes = 64;

// An explicit-storage copy of a schedule: every slot's matching is
// materialized into a full destination vector of its own (one matching
// per slot, no slot order), kinds preserved.
CircuitSchedule materialize(const CircuitSchedule& s) {
  std::vector<Matching> matchings;
  std::vector<SlotKind> kinds;
  matchings.reserve(static_cast<std::size_t>(s.period()));
  kinds.reserve(static_cast<std::size_t>(s.period()));
  for (Slot t = 0; t < s.period(); ++t) {
    matchings.push_back(s.matching_at(t).materialized());
    kinds.push_back(s.kind_at(t));
  }
  return CircuitSchedule(std::move(matchings), std::move(kinds));
}

void expect_all_compact(const CircuitSchedule& s) {
  for (Slot t = 0; t < s.period(); ++t) {
    ASSERT_TRUE(s.matching_at(t).is_compact()) << "slot " << t;
    ASSERT_EQ(s.matching_at(t).memory_bytes(), 0u) << "slot " << t;
  }
}

struct Artifacts {
  std::string metrics_json;
  std::string timeseries_csv;
  std::vector<std::string> trace_lines;
  std::uint64_t delivered = 0;
  std::uint64_t dropped = 0;
  std::uint64_t forwarded = 0;
  std::uint64_t in_flight = 0;
};

void expect_identical(const Artifacts& base, const Artifacts& other,
                      const std::string& label) {
  EXPECT_EQ(base.metrics_json, other.metrics_json) << label;
  EXPECT_EQ(base.timeseries_csv, other.timeseries_csv) << label;
  EXPECT_EQ(base.trace_lines, other.trace_lines) << label;
  EXPECT_EQ(base.delivered, other.delivered) << label;
  EXPECT_EQ(base.dropped, other.dropped) << label;
  EXPECT_EQ(base.forwarded, other.forwarded) << label;
  EXPECT_EQ(base.in_flight, other.in_flight) << label;
}

// SORN fabric (intra/inter slot mix) under a mid-run fault blast: failed
// nodes/circuits make transmit eligibility depend on exactly which
// circuit each slot realizes, so a compact slot computing even one wrong
// dst would shift deliveries, drops, and the trace.
Artifacts run_sorn_blast(const CircuitSchedule& schedule,
                         const CliqueAssignment& cliques, int threads) {
  constexpr NodeId kNodes = kBlastNodes;
  const SornRouter router(&schedule, &cliques, LbMode::kRandom);
  NetworkConfig config;
  config.lanes = 2;
  config.propagation_per_hop = 0;
  SlottedNetwork net(&schedule, &router, config);
  net.set_threads(threads);

  Telemetry telemetry(TelemetryOptions{.sample_every = 5});
  MemoryTraceSink sink;
  telemetry.set_trace_sink(&sink);
  net.set_telemetry(&telemetry);

  Rng rng(21);
  auto pump = [&](int rounds, int cells) {
    for (int round = 0; round < rounds; ++round) {
      for (int k = 0; k < cells; ++k) {
        const auto src = static_cast<NodeId>(rng.next_below(kNodes));
        auto dst = static_cast<NodeId>(rng.next_below(kNodes));
        if (dst == src) dst = (dst + 1) % kNodes;
        net.inject_cell(src, dst);
      }
      net.step();
    }
  };
  pump(150, 24);
  net.fail_node(5);
  net.fail_node(42);
  net.fail_circuit(7, 13);
  pump(100, 24);
  net.heal_node(5);
  net.heal_node(42);
  net.heal_circuit(7, 13);
  pump(50, 24);
  net.run(400);

  Artifacts out;
  ExportOptions eopts;
  eopts.nodes = kNodes;
  eopts.lanes = config.lanes;
  out.metrics_json = run_to_json(net.metrics(), &telemetry, eopts);
  out.timeseries_csv = telemetry.timeseries()->to_csv();
  out.trace_lines = sink.lines();
  out.delivered = net.metrics().delivered_cells();
  out.dropped = net.metrics().dropped_cells();
  out.forwarded = net.metrics().forwarded_cells();
  out.in_flight = net.cells_in_flight();
  return out;
}

// N = 1024 with bounded queues (tail drops) and a mid-run reconfigure
// from the AWGR round robin onto the orn-hd digit-shift family — both
// compact in the implicit run, both materialized in the explicit run.
Artifacts run_large_reconfigure(const CircuitSchedule& rr,
                                const CircuitSchedule& orn, int threads) {
  constexpr NodeId kNodes = 1024;
  const VlbRouter vlb_rr(&rr, LbMode::kRandom);
  const VlbRouter vlb_orn(&orn, LbMode::kRandom);
  NetworkConfig config;
  config.propagation_per_hop = 0;
  config.max_queue_cells = 2;
  SlottedNetwork net(&rr, &vlb_rr, config);
  net.set_threads(threads);

  Telemetry telemetry(TelemetryOptions{.sample_every = 25});
  MemoryTraceSink sink;
  telemetry.set_trace_sink(&sink);
  net.set_telemetry(&telemetry);

  Rng rng(31);
  for (int round = 0; round < 120; ++round) {
    if (round == 60) net.reconfigure(&orn, &vlb_orn);
    for (int k = 0; k < 1024; ++k) {
      const auto src = static_cast<NodeId>(rng.next_below(kNodes));
      auto dst = static_cast<NodeId>(rng.next_below(kNodes));
      if (dst == src) dst = (dst + 1) % kNodes;
      net.inject_cell(src, dst);
    }
    net.step();
  }
  net.run(300);

  Artifacts out;
  ExportOptions eopts;
  eopts.nodes = kNodes;
  out.metrics_json = run_to_json(net.metrics(), &telemetry, eopts);
  out.timeseries_csv = telemetry.timeseries()->to_csv();
  out.trace_lines = sink.lines();
  out.delivered = net.metrics().delivered_cells();
  out.dropped = net.metrics().dropped_cells();
  out.forwarded = net.metrics().forwarded_cells();
  out.in_flight = net.cells_in_flight();
  return out;
}

TEST(ImplicitScheduleEquivalenceTest, SornFaultBlastArtifactsMatch) {
  const CliqueAssignment cliques =
      CliqueAssignment::contiguous(kBlastNodes, 8);
  const CircuitSchedule compact =
      ScheduleBuilder::sorn(cliques, Rational{2, 1}, 1 << 18);
  expect_all_compact(compact);
  const CircuitSchedule explicit_copy = materialize(compact);
  ASSERT_EQ(explicit_copy.period(), compact.period());

  const Artifacts base = run_sorn_blast(compact, cliques, 1);
  ASSERT_GT(base.delivered, 0u);
  ASSERT_GT(base.forwarded, 0u);
  ASSERT_FALSE(base.trace_lines.empty());
  for (const int threads : kThreadCounts) {
    expect_identical(base, run_sorn_blast(explicit_copy, cliques, threads),
                     "explicit threads=" + std::to_string(threads));
    if (threads != 1)
      expect_identical(base, run_sorn_blast(compact, cliques, threads),
                       "compact threads=" + std::to_string(threads));
  }
}

TEST(ImplicitScheduleEquivalenceTest, FailureMaskedReplanArtifactsMatch) {
  // The replan path: cluster a locality estimate over a shuffled grouping
  // with the blast's failed nodes (5 and 42) masked out, as
  // ControlPlane::on_epoch does, and build SORN over the result.
  std::vector<CliqueId> hidden(kBlastNodes);
  for (NodeId i = 0; i < kBlastNodes; ++i)
    hidden[static_cast<std::size_t>(i)] = i % 8;
  const TrafficMatrix demand =
      patterns::locality_mix(CliqueAssignment(hidden), 0.7);
  SparseDemand::Builder masked(kBlastNodes);
  demand.for_each_nonzero([&masked](NodeId i, NodeId j, double d) {
    if (i != 5 && i != 42 && j != 5 && j != 42) masked.set(i, j, d);
  });
  const CliqueAssignment cliques =
      CliqueClusterer().cluster(*masked.build(false), 8);
  ASSERT_FALSE(cliques.contiguous_equal_blocks());

  const CircuitSchedule walked =
      ScheduleBuilder::sorn(cliques, Rational{2, 1}, 1 << 18);
  const CircuitSchedule per_slot = materialize(walked);
  ASSERT_EQ(per_slot.period(), walked.period());
  ASSERT_EQ(per_slot.distinct_count(),
            static_cast<std::size_t>(walked.period()));
  ASSERT_LT(walked.distinct_count(), per_slot.distinct_count());

  const Artifacts base = run_sorn_blast(walked, cliques, 1);
  ASSERT_GT(base.delivered, 0u);
  ASSERT_GT(base.forwarded, 0u);
  ASSERT_FALSE(base.trace_lines.empty());
  for (const int threads : kThreadCounts) {
    expect_identical(base, run_sorn_blast(per_slot, cliques, threads),
                     "per-slot threads=" + std::to_string(threads));
    if (threads != 1)
      expect_identical(base, run_sorn_blast(walked, cliques, threads),
                       "walked threads=" + std::to_string(threads));
  }
}

TEST(ImplicitScheduleEquivalenceTest, LargeNReconfigureArtifactsMatch) {
  const CircuitSchedule rr = ScheduleBuilder::round_robin(1024);
  const CircuitSchedule orn = ScheduleBuilder::orn_hd(1024, 5);
  expect_all_compact(rr);
  expect_all_compact(orn);
  const CircuitSchedule rr_explicit = materialize(rr);
  const CircuitSchedule orn_explicit = materialize(orn);

  // The storage win the compact form exists for: the explicit copy pays
  // O(period * n) for its destination vectors, the compact one does not.
  EXPECT_GT(rr_explicit.memory_bytes(), 20 * rr.memory_bytes());

  const Artifacts base = run_large_reconfigure(rr, orn, 1);
  ASSERT_GT(base.delivered, 0u);
  ASSERT_GT(base.dropped, 0u) << "scenario must exercise tail drops";
  ASSERT_GT(base.forwarded, 0u);
  for (const int threads : kThreadCounts) {
    expect_identical(base, run_large_reconfigure(rr_explicit, orn_explicit,
                                                 threads),
                     "explicit threads=" + std::to_string(threads));
    if (threads != 1)
      expect_identical(base, run_large_reconfigure(rr, orn, threads),
                       "compact threads=" + std::to_string(threads));
  }
}

}  // namespace
}  // namespace sorn
