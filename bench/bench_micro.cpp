// Engine microbenchmarks (google-benchmark): schedule construction,
// lookup and inverse, the control loop's epoch, clustering and replan,
// route selection, VOQ push/pop, the transport pump, and simulator slot
// throughput.
#include <benchmark/benchmark.h>

#include <memory>
#include <vector>

#include "control/clustering.h"
#include "control/control_faults.h"
#include "control/control_plane.h"
#include "control/estimator.h"
#include "control/optimizer.h"
#include "control/reconfig.h"
#include "routing/direct.h"
#include "routing/vlb.h"
#include "sim/saturation.h"
#include "sim/voq.h"
#include "topo/schedule_builder.h"
#include "traffic/patterns.h"
#include "traffic/sparse_demand.h"
#include "transport/transport.h"

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

// A noisy estimate as the optimizer sees one: locality 0.6 over 16
// scattered cliques, each nonzero scaled by a seeded factor in [0.5, 1.5],
// normalized to unit peak node load like the estimator's output.
std::unique_ptr<SparseDemand> noisy_estimate(NodeId n) {
  const TrafficMatrix base =
      patterns::locality_mix(shuffled_cliques(n, 16), 0.6);
  Rng rng(11);
  SparseDemand::Builder builder(n);
  base.for_each_nonzero([&](NodeId i, NodeId j, double d) {
    builder.set(i, j, d * (1.0 + 0.5 * (2.0 * rng.next_double() - 1.0)));
  });
  return builder.build(true);
}

// One SornOptimizer::plan (the affinity, then a clustering at every
// candidate Nc, the best one kept) on a noisy estimate.
void BM_SornPlan(benchmark::State& state) {
  const auto estimate = noisy_estimate(static_cast<NodeId>(state.range(0)));
  const SornOptimizer optimizer;
  for (auto _ : state) {
    SornPlan plan = optimizer.plan(*estimate);
    benchmark::DoNotOptimize(plan.locality_x);
  }
}
BENCHMARK(BM_SornPlan)
    ->Arg(384)
    ->Arg(1024)
    ->Arg(2048)
    ->Arg(4096)
    ->Unit(benchmark::kMillisecond);

// One CliqueClusterer::cluster at one clique count (args: N, Nc), from an
// affinity built once: greedy growth and swap refinement alone. At N = 384
// these are the five candidates of a control-replan plan.
void BM_Cluster(benchmark::State& state) {
  const auto estimate = noisy_estimate(static_cast<NodeId>(state.range(0)));
  const CliqueClusterer::Affinity affinity(*estimate);
  const auto nc = static_cast<CliqueId>(state.range(1));
  const CliqueClusterer clusterer;
  for (auto _ : state) {
    benchmark::DoNotOptimize(clusterer.cluster(affinity, nc).clique_count());
  }
}
BENCHMARK(BM_Cluster)
    ->Args({384, 4})
    ->Args({384, 8})
    ->Args({384, 16})
    ->Args({384, 32})
    ->Args({384, 64})
    ->Unit(benchmark::kMillisecond);

// The control loop's epoch input: a procedural locality mix (0.6 over 16
// contiguous cliques) and the fault model that adds 0.5 noise to it, as
// sornbench's control-replan workload configures them.
std::unique_ptr<DemandModel> epoch_demand(NodeId n) {
  return patterns::make_locality_mix(CliqueAssignment::contiguous(n, 16), 0.6,
                                     DemandBackend::kProcedural);
}

ControlFaultOptions noisy_estimates() {
  ControlFaultOptions options;
  options.estimate_noise = 0.5;
  return options;
}

// One ControlFaultModel::filter: the seeded noise overlay of every
// nonzero of the epoch's demand.
void BM_NoiseFilter(benchmark::State& state) {
  const auto n = static_cast<NodeId>(state.range(0));
  const auto demand = epoch_demand(n);
  ControlFaultModel faults(noisy_estimates());
  for (auto _ : state) {
    benchmark::DoNotOptimize(faults.filter(*demand).total());
  }
}
BENCHMARK(BM_NoiseFilter)->Arg(384)->Arg(1024)->Unit(benchmark::kMillisecond);

// One TrafficEstimator::observe of a noise-0.5 epoch into an estimate
// already warmed by three epochs: the normalized copy and the EWMA merge.
void BM_EstimatorObserve(benchmark::State& state) {
  const auto n = static_cast<NodeId>(state.range(0));
  const auto demand = epoch_demand(n);
  ControlFaultModel faults(noisy_estimates());
  TrafficEstimator estimator(n);
  for (int warm = 0; warm < 3; ++warm)
    estimator.observe(faults.filter(*demand));
  const DemandModel& epoch = faults.filter(*demand);
  for (auto _ : state) {
    estimator.observe(epoch);
    benchmark::DoNotOptimize(estimator.observations());
  }
}
BENCHMARK(BM_EstimatorObserve)
    ->Arg(384)
    ->Arg(1024)
    ->Unit(benchmark::kMillisecond);

// One epoch of the control loop that does not replan, on the same input,
// by a control plane that has planned once. ControlPlane::on_epoch makes the
// noise overlay of the demand, the estimator's normalized copy and its
// EWMA, the clique aggregate of the change test and the locality of the
// current plan.
void BM_ControlEpoch(benchmark::State& state) {
  const auto n = static_cast<NodeId>(state.range(0));
  const auto demand = epoch_demand(n);
  ControlFaultModel faults(noisy_estimates());
  ControlPlane control(n, ControlPlane::Options());
  control.set_fault_model(&faults);
  Slot now = 0;
  control.on_epoch(*demand, now);  // the first plan
  for (auto _ : state) {
    now += 250;
    if (control.on_epoch(*demand, now)) {
      state.SkipWithError("a steady epoch replanned");
      break;
    }
  }
}
BENCHMARK(BM_ControlEpoch)
    ->Arg(384)
    ->Arg(1024)
    ->Unit(benchmark::kMillisecond);

// One dst_of at N = 1024. round_robin's slots are pure cyclic shifts;
// a SORN schedule over 32 contiguous cliques mixes them with block-local
// intra-clique shifts, whose lookup splits the node id into digits.
void BM_ScheduleLookup(benchmark::State& state, bool sorn) {
  const CircuitSchedule s =
      sorn ? ScheduleBuilder::sorn(CliqueAssignment::contiguous(1024, 32),
                                   Rational{9, 2})
           : ScheduleBuilder::round_robin(1024);
  Slot t = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(s.dst_of(static_cast<NodeId>(t % 1024), t));
    ++t;
  }
}
BENCHMARK_CAPTURE(BM_ScheduleLookup, round_robin, false);
BENCHMARK_CAPTURE(BM_ScheduleLookup, sorn, true);

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

// One saturated slot at N nodes with u uplink lanes (args: N, u). The
// 16-lane case is Table 1's uplink count, where the take pass serves every
// lane of a node back to back.
void BM_NetworkSlot(benchmark::State& state) {
  const auto n = static_cast<NodeId>(state.range(0));
  const auto lanes = static_cast<int>(state.range(1));
  // q = 9/2: near q*(0.56) with a short schedule period.
  const SornFabric net =
      build_sorn_fabric(CliqueAssignment::contiguous(n, 8), Rational{9, 2});
  NetworkConfig ncfg;
  ncfg.lanes = lanes;
  ncfg.propagation_per_hop = 0;
  SlottedNetwork sim(net.schedule.get(), net.router.get(), ncfg);
  const TrafficMatrix tm = patterns::locality_mix(*net.cliques, 0.56);
  SaturationConfig scfg;
  scfg.cells_per_node_per_slot = 2 * lanes;  // outrun delivery on u lanes
  SaturationSource source(&tm, scfg);
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
BENCHMARK(BM_NetworkSlot)
    ->Args({64, 1})
    ->Args({128, 1})
    ->Args({256, 1})
    ->Args({1024, 16});

// One push/pop_ready cycle per iteration against a node holding `depth`
// cells in each of `fanout` next-hop queues: fanout = one cell toward each
// of 256 next hops (the saturated-node shape), deep = one 1024-cell queue.
void BM_VoqPushPop(benchmark::State& state, NodeId fanout, int depth) {
  VoqSet voqs(fanout + 1);
  auto cell_to = [](NodeId hop) {
    return Cell(/*flow=*/1, /*seq=*/0, Path::of({0, hop, 0}), /*now=*/0);
  };
  for (NodeId hop = 1; hop <= fanout; ++hop)
    for (int i = 0; i < depth; ++i) voqs.push(0, cell_to(hop));
  NodeId hop = 1;
  for (auto _ : state) {
    voqs.push(0, cell_to(hop));
    benchmark::DoNotOptimize(voqs.pop_ready(0, hop, 0));
    voqs.settle_total(1);
    hop = hop == fanout ? 1 : hop + 1;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK_CAPTURE(BM_VoqPushPop, fanout, 256, 1);
BENCHMARK_CAPTURE(BM_VoqPushPop, deep, 1, 1024);

// One carriers() lookup, the inverse the wake lists are filled from: the
// distinct matchings carrying src -> dst, over pairs that sweep the id
// space. Contiguous SORN at N = 4096 with 64 cliques answers by shift
// arithmetic (4,095 shift matchings, 2 radix groups); clustered SORN at
// N = 384 with 16 scattered cliques answers from the per-node index of
// its 383 explicit matchings, built before the timing starts.
void BM_ScheduleCarriers(benchmark::State& state, bool clustered) {
  const auto n = static_cast<NodeId>(state.range(0));
  const auto nc = static_cast<CliqueId>(state.range(1));
  const CircuitSchedule s = ScheduleBuilder::sorn(
      clustered ? shuffled_cliques(n, nc) : CliqueAssignment::contiguous(n, nc),
      Rational{9, 2});
  std::vector<std::uint32_t> out;
  s.carriers(0, 1, &out);
  std::int64_t k = 0;
  for (auto _ : state) {
    const auto src = static_cast<NodeId>(k % n);
    const auto dst = static_cast<NodeId>((k * 37 + 1) % n);
    s.carriers(src, dst, &out);
    benchmark::DoNotOptimize(out.data());
    ++k;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK_CAPTURE(BM_ScheduleCarriers, contiguous, false)->Args({4096, 64});
BENCHMARK_CAPTURE(BM_ScheduleCarriers, clustered, true)->Args({384, 16});

// The first carriers() on a fresh copy of the clustered schedule above:
// the explicit index build plus one lookup (a replan pays this once per
// new schedule).
void BM_ScheduleCarriersFirstUse(benchmark::State& state) {
  const auto n = static_cast<NodeId>(state.range(0));
  const auto nc = static_cast<CliqueId>(state.range(1));
  const CircuitSchedule built =
      ScheduleBuilder::sorn(shuffled_cliques(n, nc), Rational{9, 2});
  std::vector<std::uint32_t> out;
  for (auto _ : state) {
    state.PauseTiming();
    const CircuitSchedule s = built;
    state.ResumeTiming();
    s.carriers(0, 1, &out);
    benchmark::DoNotOptimize(out.data());
  }
}
BENCHMARK(BM_ScheduleCarriersFirstUse)
    ->Args({384, 16})
    ->Unit(benchmark::kMillisecond);

// One DctcpTransport::pump() with n open flows (arg: n), every window
// full, after four acks — the incast shape, where most open flows wait on
// acks. Queues hold one cell each (a cap of 1), so the released cells are
// tail-dropped and the network stays the same size across iterations. A
// fixed iteration count keeps every flow below its 16384 cells (the
// receiver's per-flow delivery bitmap is sized by them).
void BM_DctcpPump(benchmark::State& state) {
  const auto flows = static_cast<FlowId>(state.range(0));
  constexpr NodeId kNodes = 64;
  const CircuitSchedule schedule = ScheduleBuilder::round_robin(kNodes);
  const DirectRouter router;
  NetworkConfig config;
  config.max_queue_cells = 1;
  SlottedNetwork network(&schedule, &router, config);
  DctcpTransport transport;
  for (FlowId f = 1; f <= flows; ++f) {
    const auto src = static_cast<NodeId>(f % kNodes);
    transport.open_flow(network, nullptr, f, src, (src + 1) % kNodes,
                        /*bytes=*/16384 * config.cell_bytes,
                        /*flow_class=*/0);
  }
  transport.pump(network);
  FlowId next = 1;
  for (auto _ : state) {
    for (int ack = 0; ack < 4; ++ack) {
      const auto src = static_cast<NodeId>(next % kNodes);
      const Cell cell(next, /*seq=*/0, Path::of({src, (src + 1) % kNodes}),
                      /*now=*/0);
      transport.on_deliver(0, cell, /*first_copy=*/true);
      next = next == flows ? 1 : next + 1;
    }
    benchmark::DoNotOptimize(transport.pump(network));
  }
  state.SetItemsProcessed(state.iterations());
}
// 4 x 100000 acks leave each of 100 flows 4000 acks short of completion.
BENCHMARK(BM_DctcpPump)->Arg(100)->Arg(2000)->Iterations(100000);

}  // namespace

BENCHMARK_MAIN();
