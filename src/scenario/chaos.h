// Chaos campaign: seeded randomized fault soup with invariants asserted
// every slot.
//
// One chaos run derives a complete ScenarioConfig from a single seed —
// data-plane blast (fail/heal, gray degrade/throttle, flapping links,
// stochastic MTBF/MTTR), a closed-loop control plane with outage windows,
// stochastic controller crashes, degraded telemetry and a safe-mode
// policy, plus retransmission with jitter — runs it with the invariant
// checker attached, and runs it a second time to byte-compare the metrics
// artifact (run-to-run determinism). A seed therefore indicts itself: any
// failure reproduces from `sorn_tool chaos --seed S` alone, and the
// result carries that one-line replay recipe.
//
// Everything is a pure function of the seed and knobs — a failing seed in
// CI replays identically on a laptop.
#pragma once

#include <cstdint>
#include <string>

#include "scenario/scenario_config.h"

namespace sorn {

struct ChaosKnobs {
  NodeId nodes = 32;
  Slot slots = 3000;        // arrival horizon per run
  Slot drain_slots = 60000;  // bounded drain budget
};

struct ChaosResult {
  std::uint64_t seed = 0;
  bool ok = false;
  // Failure detail: invariant violations, a runner error, or a second
  // run whose metrics differ. Empty when ok.
  std::string error;
  // One-line reproduction command for this seed.
  std::string replay;
  // Run color, for logs.
  std::uint64_t faults_applied = 0;
  std::uint64_t gray_drops = 0;
  std::uint64_t controller_outages = 0;
  std::uint64_t safe_mode_activations = 0;
  std::uint64_t replans = 0;
  std::uint64_t invariant_slots = 0;  // slots the checker validated
  std::uint64_t flows_injected = 0;
  std::uint64_t delivered_cells = 0;
};

// The randomized scenario for one seed (deterministic; no global state).
ScenarioConfig make_chaos_config(std::uint64_t seed, const ChaosKnobs& knobs);

// Run one seed: scenario + invariants, then byte-compare the metrics
// artifact against a second run of the same config.
ChaosResult run_chaos(std::uint64_t seed, const ChaosKnobs& knobs);

}  // namespace sorn
