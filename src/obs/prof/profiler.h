// The profiling facade: phase timers + memory gauges + pool utilization.
//
// A borrowed Profiler* is attached to the engine
// (SlottedNetwork::set_profiler) and every instrumentation site is one
// predictable null check when detached. It is not a SimObserver
// (sim/observer.h): it consumes no events, it only times the engine's
// phases and samples subsystem sizes.
//
// The profiler reads clocks and subsystem sizes but never touches RNG,
// metrics, or queues, so sim artifacts (metrics JSON, trace JSONL,
// time-series CSV) are byte-identical with profiling on or off. The
// profile.json it produces is wall-clock data and sits outside that
// determinism contract by design.
#pragma once

#include <utility>

#include "obs/prof/memory_accountant.h"
#include "obs/prof/phase_profiler.h"
#include "obs/prof/pool_stats.h"

namespace sorn {

class Profiler {
 public:
  PhaseProfiler& phases() { return phases_; }
  const PhaseProfiler& phases() const { return phases_; }

  MemoryAccountant& memory() { return memory_; }
  const MemoryAccountant& memory() const { return memory_; }

  // Pool utilization is snapshotted by whoever owns the engine (the pool's
  // counters live in sim/parallel.h; the engine copies them over at the
  // end of a profiled run). Absent for single-threaded runs.
  void set_pool_utilization(PoolUtilization u) {
    pool_ = std::move(u);
    has_pool_ = true;
  }
  bool has_pool_utilization() const { return has_pool_; }
  const PoolUtilization& pool_utilization() const { return pool_; }

 private:
  PhaseProfiler phases_;
  MemoryAccountant memory_;
  PoolUtilization pool_;
  bool has_pool_ = false;
};

}  // namespace sorn
