// The profiling facade: phase timers + memory gauges.
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

#include "obs/prof/memory_accountant.h"
#include "obs/prof/phase_profiler.h"

namespace sorn {

class Profiler {
 public:
  PhaseProfiler& phases() { return phases_; }
  const PhaseProfiler& phases() const { return phases_; }

  MemoryAccountant& memory() { return memory_; }
  const MemoryAccountant& memory() const { return memory_; }

 private:
  PhaseProfiler phases_;
  MemoryAccountant memory_;
};

}  // namespace sorn
