// Engine microbenchmarks (google-benchmark): schedule construction and
// lookup, route selection, VOQ push/pop, and simulator slot throughput.
#include <benchmark/benchmark.h>

#include "core/sorn.h"
#include "routing/vlb.h"
#include "sim/saturation.h"
#include "sim/voq.h"
#include "topo/schedule_builder.h"
#include "traffic/patterns.h"

namespace {

using namespace sorn;

void BM_BuildRoundRobin(benchmark::State& state) {
  const auto n = static_cast<NodeId>(state.range(0));
  for (auto _ : state) {
    CircuitSchedule s = ScheduleBuilder::round_robin(n);
    benchmark::DoNotOptimize(s.period());
  }
}
BENCHMARK(BM_BuildRoundRobin)->Arg(64)->Arg(256)->Arg(1024);

void BM_BuildSornSchedule(benchmark::State& state) {
  const auto n = static_cast<NodeId>(state.range(0));
  const auto cliques = CliqueAssignment::contiguous(n, 8);
  for (auto _ : state) {
    CircuitSchedule s = ScheduleBuilder::sorn(cliques, Rational{9, 2});
    benchmark::DoNotOptimize(s.period());
  }
}
BENCHMARK(BM_BuildSornSchedule)->Arg(64)->Arg(128)->Arg(256);

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
