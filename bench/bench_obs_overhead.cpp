// Telemetry overhead on the simulator hot path.
//
// Acceptance gate for the observability subsystem: attaching a Telemetry
// with nothing to write must keep SlottedNetwork::step() within 2% of the
// detached run. Every event site in the hot path walks the network's
// observer list (sim/observer.h), empty by default, so the "detached"
// mode below *is* the baseline path; the bench quantifies what each
// successive level of observability costs:
//
//   detached   — no observer attached (the default every caller gets;
//                the profiler's null check per phase site is part of it)
//   idle       — Telemetry attached, no trace sink, no sampler: each
//                event is one virtual call, a counter bump or a no-op,
//                and the tracer's early-out branch
//   sampled    — time series sampled every 100 slots, still no sink
//   traced     — NullTraceSink attached (events are formatted to JSON
//                and discarded) + sampling every 100 slots
//   profiled   — Profiler attached (no Telemetry): every phase site takes
//                two steady_clock reads per slot, gauges sampled on the
//                accountant's cadence. Measured and reported, not gated:
//                attaching the profiler is an explicit opt-in.
//
// Saturated 64-node SORN fabric. Each repetition runs the five modes in
// turn (in reverse on odd repetitions), so a change in the host's speed
// between repetitions moves every mode of that repetition alike. The gate
// is the median over repetitions of each repetition's idle / detached
// ratio, and each mode's ns/slot is its median. Pump cost is part of
// every mode equally. With --json, the per-mode ns/slot and overhead
// percentages are written machine-readably under a "metrics" key.
#include <algorithm>
#include <array>
#include <chrono>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "control/reconfig.h"
#include "obs/export.h"
#include "obs/prof/profiler.h"
#include "sim/saturation.h"
#include "sim/telemetry.h"
#include "traffic/patterns.h"
#include "util/args.h"
#include "util/table.h"

namespace {

using namespace sorn;

constexpr NodeId kNodes = 64;
Slot g_warmup_slots = 2000;
Slot g_slots = 20000;
int g_reps = 5;

double run_once(Telemetry* telemetry, Profiler* profiler) {
  const SornFabric net = build_sorn_fabric(
      CliqueAssignment::contiguous(kNodes, 8), optimal_q(0.6, 12));
  NetworkConfig ncfg;
  ncfg.propagation_per_hop = 0;
  SlottedNetwork sim(net.schedule.get(), net.router.get(), ncfg);
  if (telemetry != nullptr) sim.add_observer(telemetry);
  if (profiler != nullptr) sim.set_profiler(profiler);
  const TrafficMatrix tm = patterns::locality_mix(*net.cliques, 0.6);
  SaturationSource source(&tm, SaturationConfig{});
  for (Slot s = 0; s < g_warmup_slots; ++s) {
    source.pump(sim);
    sim.step();
  }
  const auto t0 = std::chrono::steady_clock::now();
  for (Slot s = 0; s < g_slots; ++s) {
    source.pump(sim);
    sim.step();
  }
  const auto t1 = std::chrono::steady_clock::now();
  const double ns =
      std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0).count();
  return ns / static_cast<double>(g_slots);
}

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t mid = v.size() / 2;
  return v.size() % 2 == 1 ? v[mid] : (v[mid - 1] + v[mid]) / 2.0;
}

NullTraceSink null_sink;

}  // namespace

int main(int argc, char** argv) {
  ArgParser args(argc, argv);
  g_slots = args.get_long("--slots", g_slots, 1);
  g_warmup_slots = args.get_long("--warmup", g_warmup_slots, 0);
  g_reps = static_cast<int>(args.get_long("--reps", g_reps, 1));
  const std::string json_path = args.get_string("--json", "");
  args.finish();
  std::printf(
      "Telemetry overhead, %d-node saturated SORN fabric, %lld slots/run, "
      "medians of %d repetitions (each runs every mode in turn):\n\n",
      kNodes, static_cast<long long>(g_slots), g_reps);

  enum Mode { kDetached, kIdle, kSampled, kTraced, kProfiled, kModes };
  std::array<std::vector<double>, kModes> ns;     // per mode, per rep
  std::array<std::vector<double>, kModes> ratio;  // per mode, vs detached
  for (int r = 0; r < g_reps; ++r) {
    for (int k = 0; k < kModes; ++k) {
      // Odd repetitions run the modes in reverse, so a drift within a
      // repetition favours no mode.
      const int mode = r % 2 == 0 ? k : kModes - 1 - k;
      std::unique_ptr<Telemetry> t;
      if (mode == kIdle) t = std::make_unique<Telemetry>();
      if (mode == kSampled || mode == kTraced)
        t = std::make_unique<Telemetry>(TelemetryOptions{.sample_every = 100});
      if (mode == kTraced) t->set_trace_sink(&null_sink);
      Profiler profiler;  // fresh per run so counters never carry over
      ns[mode].push_back(
          run_once(t.get(), mode == kProfiled ? &profiler : nullptr));
    }
    for (int mode = 0; mode < kModes; ++mode)
      ratio[mode].push_back(ns[mode].back() / ns[kDetached].back());
  }
  const double detached = median(ns[kDetached]);
  const double idle = median(ns[kIdle]);
  const double sampled = median(ns[kSampled]);
  const double traced = median(ns[kTraced]);
  const double profiled = median(ns[kProfiled]);

  TablePrinter table({"mode", "ns/slot", "overhead vs detached"});
  // Overhead: the median of the per-repetition ratios, as a percentage.
  auto overhead = [&](Mode mode) {
    return (median(ratio[mode]) - 1.0) * 100.0;
  };
  auto pct = [&](Mode mode) { return format("%+.2f%%", overhead(mode)); };
  table.add_row({"detached (seed path)", format("%.1f", detached), "-"});
  table.add_row(
      {"idle (attached, no sink)", format("%.1f", idle), pct(kIdle)});
  table.add_row({"sampled (every 100 slots)", format("%.1f", sampled),
                 pct(kSampled)});
  table.add_row({"traced (null sink + sampling)", format("%.1f", traced),
                 pct(kTraced)});
  table.add_row({"profiled (phase timers + gauges)",
                 format("%.1f", profiled), pct(kProfiled)});
  table.print();

  const double idle_overhead = overhead(kIdle);
  const double profiled_overhead = overhead(kProfiled);
  std::printf(
      "\nGate: idle-telemetry overhead %.2f%% (budget 2%%) — %s.\n"
      "Attached-profiler overhead: %.2f%% (reported, not gated — the\n"
      "profiler is an explicit opt-in; detached, its cost is the same\n"
      "null check the gate above already covers).\n"
      "Note: 'detached' is byte-for-byte the configuration every caller\n"
      "gets unless it attaches an observer; its only added cost over the\n"
      "pre-observability simulator is one empty-list check per event\n"
      "site.\n",
      idle_overhead, idle_overhead <= 2.0 ? "PASS" : "FAIL",
      profiled_overhead);

  if (!json_path.empty()) {
    const std::string doc = format(
        "{\"bench\": \"bench_obs_overhead\", \"nodes\": %d, "
        "\"slots\": %lld, \"reps\": %d, \"metrics\": "
        "{\"detached_ns_per_slot\": %.1f, \"idle_ns_per_slot\": %.1f, "
        "\"sampled_ns_per_slot\": %.1f, \"traced_ns_per_slot\": %.1f, "
        "\"profiled_ns_per_slot\": %.1f, \"idle_overhead_pct\": %.2f, "
        "\"profiled_overhead_pct\": %.2f}}\n",
        kNodes, static_cast<long long>(g_slots), g_reps, detached, idle,
        sampled, traced, profiled, idle_overhead, profiled_overhead);
    if (!write_text_file(json_path, doc)) {
      std::fprintf(stderr, "cannot write %s\n", json_path.c_str());
      return 1;
    }
    std::printf("wrote %s\n", json_path.c_str());
  }
  return idle_overhead <= 2.0 ? 0 : 1;
}
