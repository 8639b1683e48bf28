// Cross-module integration: the full semi-oblivious loop of the paper —
// simulate traffic with planted macro structure, let the control plane
// infer cliques and reconfigure, and verify performance follows.
#include <gtest/gtest.h>

#include "analysis/models.h"
#include "control/control_plane.h"
#include "sim/saturation.h"
#include "traffic/patterns.h"
#include "traffic/trace.h"

namespace sorn {
namespace {

// Saturation throughput of a SORN built for grouping `built_for`, when the
// actual traffic is local under `truth`.
double measure_throughput(const CliqueAssignment& built_for,
                          const CliqueAssignment& truth, double x,
                          Rational q) {
  const CircuitSchedule schedule = ScheduleBuilder::sorn(built_for, q);
  const SornRouter router(&schedule, &built_for, LbMode::kRandom);
  NetworkConfig cfg;
  cfg.propagation_per_hop = 0;
  SlottedNetwork net(&schedule, &router, cfg);
  const TrafficMatrix tm = patterns::locality_mix(truth, x);
  SaturationSource source(&tm, SaturationConfig{});
  return source.measure(net, 3000, 6000);
}

TEST(EndToEndTest, MatchedCliquesOutperformMismatched) {
  // Traffic is local under an interleaved grouping. A SORN built for the
  // right grouping sustains ~1/(3-x); one built for the wrong grouping
  // treats all traffic as inter-clique and loses throughput.
  std::vector<CliqueId> hidden(32);
  for (NodeId i = 0; i < 32; ++i) hidden[static_cast<std::size_t>(i)] = i % 4;
  const CliqueAssignment truth(hidden);
  const CliqueAssignment wrong = CliqueAssignment::contiguous(32, 4);
  const double x = 0.7;
  const Rational q = Rational::approximate(analysis::sorn_optimal_q(x), 12);

  const double matched = measure_throughput(truth, truth, x, q);
  const double mismatched = measure_throughput(wrong, truth, x, q);
  EXPECT_NEAR(matched, analysis::sorn_throughput(x), 0.05);
  EXPECT_GT(matched, mismatched + 0.05);
}

TEST(EndToEndTest, ControlPlaneRecoversHiddenStructure) {
  // The clusterer, fed only noisy epoch observations, should recover a
  // grouping whose locality is close to the planted macro structure's.
  SyntheticTrace::Config cfg;
  cfg.nodes = 32;
  cfg.group_size = 8;
  cfg.burst_sigma = 0.5;
  SyntheticTrace trace(cfg);

  ControlPlane::Options opts;
  opts.optimizer.candidate_nc = {4};
  ControlPlane cp(32, opts);
  for (int e = 0; e < 4; ++e) cp.on_epoch(trace.epoch_matrix(), e);

  const double planted =
      trace.macro_matrix().locality_ratio(trace.ground_truth_cliques());
  const double recovered =
      trace.macro_matrix().locality_ratio(cp.last_plan().cliques);
  EXPECT_GT(recovered, planted - 0.05);
}

TEST(EndToEndTest, AdaptationRestoresThroughputAfterShift) {
  // Build for grouping A, run traffic local under grouping B, adapt, and
  // verify measured throughput improves.
  std::vector<CliqueId> interleaved(32);
  for (NodeId i = 0; i < 32; ++i)
    interleaved[static_cast<std::size_t>(i)] = i % 4;
  const CliqueAssignment truth(interleaved);
  const double x = 0.7;
  const TrafficMatrix tm = patterns::locality_mix(truth, x);

  // Contiguous cliques: mismatched with `truth`.
  const SornFabric built = build_sorn_fabric(
      CliqueAssignment::contiguous(32, 4), optimal_q(x, 12));
  NetworkConfig cfg;
  cfg.propagation_per_hop = 0;
  SlottedNetwork sim(built.schedule.get(), built.router.get(), cfg);
  SaturationSource source(&tm, SaturationConfig{});
  const double before = source.measure(sim, 3000, 5000);

  // Control-plane step: cluster the (true) demand and swap the plan in.
  // The long warmup lets backlog routed under the mismatched schedule
  // drain.
  SornOptimizer optimizer;
  ReconfigManager reconfig;
  reconfig.request_swap(optimizer.plan_for_nc(tm, 4), sim.now());
  ASSERT_TRUE(reconfig.tick(sim, sim.now()));
  const double after = source.measure(sim, 12000, 8000);

  EXPECT_GT(after, before + 0.05);
  EXPECT_NEAR(after, analysis::sorn_throughput(x), 0.06);
}

TEST(EndToEndTest, FlatSornEquals1dOrn) {
  // Degenerate configuration check: singleton cliques give the flat
  // oblivious design, with the classic ~50% uniform-traffic throughput...
  // routed direct (single hop) because both load-balancing hops vanish,
  // which under uniform traffic actually delivers full capacity.
  const CliqueAssignment flat = CliqueAssignment::flat(16);
  const CircuitSchedule schedule = ScheduleBuilder::sorn(flat, Rational{1, 1});
  const SornRouter router(&schedule, &flat, LbMode::kRandom);
  NetworkConfig cfg;
  cfg.propagation_per_hop = 0;
  SlottedNetwork net(&schedule, &router, cfg);
  const TrafficMatrix tm = patterns::uniform(16);
  SaturationSource source(&tm, SaturationConfig{});
  const double r = source.measure(net, 2000, 4000);
  EXPECT_GT(r, 0.9);
}

}  // namespace
}  // namespace sorn
