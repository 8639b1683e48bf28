// Engine microbenchmarks (google-benchmark): schedule construction and
// lookup, the optimizer's replan, route selection, VOQ push/pop, and
// simulator slot throughput.
#include <benchmark/benchmark.h>

#include "control/optimizer.h"
#include "core/sorn.h"
#include "routing/vlb.h"
#include "sim/saturation.h"
#include "sim/voq.h"
#include "topo/schedule_builder.h"
#include "traffic/patterns.h"
#include "traffic/sparse_demand.h"

namespace {

using namespace sorn;

// n nodes in nc equal cliques with the members scattered across the id
// space, as a clusterer returns them.
CliqueAssignment shuffled_cliques(NodeId n, CliqueId nc) {
  std::vector<CliqueId> of(static_cast<std::size_t>(n));
  for (NodeId i = 0; i < n; ++i)
    of[static_cast<std::size_t>(i)] = i / (n / nc);
  Rng rng(7);
  rng.shuffle(of);
  return CliqueAssignment(std::move(of));
}

void BM_BuildRoundRobin(benchmark::State& state) {
  const auto n = static_cast<NodeId>(state.range(0));
  for (auto _ : state) {
    CircuitSchedule s = ScheduleBuilder::round_robin(n);
    benchmark::DoNotOptimize(s.period());
  }
}
BENCHMARK(BM_BuildRoundRobin)->Arg(64)->Arg(256)->Arg(1024);

// Args: nodes, cliques. The contiguous block layout builds O(1) shift
// matchings; a clustered (shuffled) assignment is the replan path, which
// builds explicit ones.
void BM_BuildSornSchedule(benchmark::State& state, bool clustered) {
  const auto n = static_cast<NodeId>(state.range(0));
  const auto nc = static_cast<CliqueId>(state.range(1));
  const CliqueAssignment cliques = clustered
                                       ? shuffled_cliques(n, nc)
                                       : CliqueAssignment::contiguous(n, nc);
  for (auto _ : state) {
    CircuitSchedule s = ScheduleBuilder::sorn(cliques, Rational{9, 2});
    benchmark::DoNotOptimize(s.period());
  }
}
BENCHMARK_CAPTURE(BM_BuildSornSchedule, contiguous, false)
    ->Args({64, 8})
    ->Args({128, 8})
    ->Args({256, 8});
BENCHMARK_CAPTURE(BM_BuildSornSchedule, clustered, true)
    ->Args({96, 8})
    ->Args({384, 16})
    ->Unit(benchmark::kMillisecond);

// One SornOptimizer::plan (cluster at every candidate Nc, pick the best)
// on a noisy estimate: locality 0.6 over 16 scattered cliques, each
// nonzero scaled by a seeded factor in [0.5, 1.5], normalized to unit
// peak node load like the estimator's output.
void BM_SornPlan(benchmark::State& state) {
  const auto n = static_cast<NodeId>(state.range(0));
  const TrafficMatrix base =
      patterns::locality_mix(shuffled_cliques(n, 16), 0.6);
  Rng rng(11);
  SparseDemand::Builder builder(n);
  base.for_each_nonzero([&](NodeId i, NodeId j, double d) {
    builder.set(i, j, d * (1.0 + 0.5 * (2.0 * rng.next_double() - 1.0)));
  });
  const auto estimate = builder.build(true);
  const SornOptimizer optimizer;
  for (auto _ : state) {
    SornPlan plan = optimizer.plan(*estimate);
    benchmark::DoNotOptimize(plan.locality_x);
  }
}
BENCHMARK(BM_SornPlan)->Arg(384)->Arg(1024)->Unit(benchmark::kMillisecond);

void BM_ScheduleLookup(benchmark::State& state) {
  const CircuitSchedule s = ScheduleBuilder::round_robin(1024);
  Slot t = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(s.dst_of(static_cast<NodeId>(t % 1024), t));
    ++t;
  }
}
BENCHMARK(BM_ScheduleLookup);

void BM_SornRoute(benchmark::State& state) {
  const auto cliques = CliqueAssignment::contiguous(128, 8);
  const CircuitSchedule s = ScheduleBuilder::sorn(cliques, Rational{9, 2});
  const SornRouter router(&s, &cliques, LbMode::kRandom);
  Rng rng(1);
  Slot t = 0;
  for (auto _ : state) {
    const auto src = static_cast<NodeId>(t % 128);
    const auto dst = static_cast<NodeId>((t * 37 + 1) % 128);
    if (src != dst) {
      benchmark::DoNotOptimize(router.route(src, dst, t, rng));
    }
    ++t;
  }
}
BENCHMARK(BM_SornRoute);

void BM_VlbRoute(benchmark::State& state) {
  const CircuitSchedule s = ScheduleBuilder::round_robin(128);
  const VlbRouter router(&s, LbMode::kRandom);
  Rng rng(1);
  Slot t = 0;
  for (auto _ : state) {
    const auto src = static_cast<NodeId>(t % 128);
    const auto dst = static_cast<NodeId>((t * 37 + 1) % 128);
    if (src != dst) {
      benchmark::DoNotOptimize(router.route(src, dst, t, rng));
    }
    ++t;
  }
}
BENCHMARK(BM_VlbRoute);

void BM_NetworkSlot(benchmark::State& state) {
  const auto n = static_cast<NodeId>(state.range(0));
  SornConfig cfg;
  cfg.nodes = n;
  cfg.cliques = 8;
  cfg.locality_x = 0.56;
  cfg.q = Rational{9, 2};  // near q*(0.56) with a short schedule period
  cfg.propagation_per_hop = 0;
  const SornNetwork net = SornNetwork::build(cfg);
  SlottedNetwork sim = net.make_network();
  const TrafficMatrix tm = patterns::locality_mix(net.cliques(), 0.56);
  SaturationSource source(&tm, SaturationConfig{});
  // Pre-fill queues so every slot does real work.
  for (int i = 0; i < 200; ++i) {
    source.pump(sim);
    sim.step();
  }
  for (auto _ : state) {
    source.pump(sim);
    sim.step();
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_NetworkSlot)->Arg(64)->Arg(128)->Arg(256);

// One push/peek/pop cycle per iteration against a node holding `depth`
// cells in each of `fanout` next-hop queues: fanout = one cell toward each
// of 256 next hops (the saturated-node shape), deep = one 1024-cell queue.
void BM_VoqPushPop(benchmark::State& state, NodeId fanout, int depth) {
  VoqSet voqs(fanout + 1);
  auto cell_to = [](NodeId hop) {
    Cell c;
    c.flow = 1;
    c.path = Path::of({0, hop, 0});
    return c;
  };
  for (NodeId hop = 1; hop <= fanout; ++hop)
    for (int i = 0; i < depth; ++i) voqs.push(cell_to(hop));
  NodeId hop = 1;
  for (auto _ : state) {
    voqs.push(cell_to(hop));
    benchmark::DoNotOptimize(voqs.peek(0, hop, 0));
    voqs.pop(0, hop);
    voqs.settle_total(1);
    hop = hop == fanout ? 1 : hop + 1;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK_CAPTURE(BM_VoqPushPop, fanout, 256, 1);
BENCHMARK_CAPTURE(BM_VoqPushPop, deep, 1, 1024);

}  // namespace

BENCHMARK_MAIN();
