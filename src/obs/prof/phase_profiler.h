// Slot-phase wall-clock profiling for the slot engine.
//
// The simulator's step() decomposes into a small fixed set of phases
// (schedule advance, lane sweep, merge/replay, VOQ settle, ...). The
// PhaseProfiler accumulates scoped monotonic-clock intervals per phase
// into the *current slot*, and end_slot() folds the slot's per-phase sums
// into per-phase totals and a per-slot distribution (Percentiles), so a
// run reports both "where did the time go overall" and "how does a slot's
// phase breakdown vary".
//
// Timing is inclusive: a scope opened inside another scope counts toward
// both phases. The instrumentation sites keep the engine phases disjoint;
// nesting only arises when a caller wraps a composite region (e.g. a slot
// hook that itself ticks the fault injector).
//
// Profiling never touches simulation state — no RNG draws, no metrics —
// so attaching a profiler cannot perturb the byte-identical determinism
// contract of the sim artifacts. The profile *output* is wall-clock data
// and sits explicitly outside that contract (see DESIGN.md §10).
#pragma once

#include <array>
#include <cstdint>

#include "util/stats.h"

namespace sorn {

// Phases of one simulated slot, in fixed export order. Keep
// prof_phase_name() and kProfPhaseCount in sync when extending.
enum class ProfPhase : int {
  kScheduleAdvance = 0,  // the slot's matching per lane
  kLaneSweep,            // take pass: the wake lists of every lane
  kMergeReplay,          // apply pass: staged events replayed lane-major
  kVoqSettle,            // settling the global queued-cell total
  kRetransmit,           // end-host stall scan + re-admission
  kControlTick,          // control-plane tick (ControlPlane::tick)
  kFaultTick,            // fault-injector timeline tick
  kSlotHook,             // scenario/user slot hook body
  kTelemetryFlush,       // telemetry sampling at the end of step()
};

inline constexpr int kProfPhaseCount = 9;

// Stable lowercase identifier used in profile.json.
const char* prof_phase_name(ProfPhase phase);

class PhaseProfiler {
 public:
  struct PhaseStats {
    std::uint64_t calls = 0;         // recorded scopes, across all slots
    std::uint64_t total_ns = 0;      // sum over all recorded scopes
    std::uint64_t active_slots = 0;  // slots in which the phase ran
    // One sample per *active* slot: the slot's summed nanoseconds in this
    // phase. Phases that run rarely (retransmit every k slots) are not
    // diluted by zero samples from the slots they skip.
    Percentiles slot_ns;
  };

  // Accumulate one interval into the current slot. Deterministic entry
  // point — tests call it directly instead of going through the clock.
  void record(ProfPhase phase, std::uint64_t ns);

  // Close the current slot: fold its per-phase sums into the aggregates.
  void end_slot();

  std::uint64_t slots() const { return slots_; }
  const PhaseStats& stats(ProfPhase phase) const {
    return stats_[static_cast<std::size_t>(phase)];
  }

  // Monotonic wall-clock in nanoseconds (std::chrono::steady_clock).
  static std::uint64_t now_ns();

 private:
  std::array<PhaseStats, kProfPhaseCount> stats_{};
  std::array<std::uint64_t, kProfPhaseCount> cur_ns_{};
  std::array<std::uint32_t, kProfPhaseCount> cur_calls_{};
  std::uint64_t slots_ = 0;
};

// RAII scope: measures from construction to destruction and records into
// `profiler` under `phase`. A null profiler makes the scope a no-op — the
// instrumentation sites pay one predictable null check when detached,
// mirroring the Telemetry pattern.
class ScopedPhase {
 public:
  ScopedPhase(PhaseProfiler* profiler, ProfPhase phase)
      : profiler_(profiler),
        phase_(phase),
        start_ns_(profiler != nullptr ? PhaseProfiler::now_ns() : 0) {}
  ~ScopedPhase() {
    if (profiler_ != nullptr)
      profiler_->record(phase_, PhaseProfiler::now_ns() - start_ns_);
  }
  ScopedPhase(const ScopedPhase&) = delete;
  ScopedPhase& operator=(const ScopedPhase&) = delete;

 private:
  PhaseProfiler* profiler_;
  ProfPhase phase_;
  std::uint64_t start_ns_;
};

}  // namespace sorn
