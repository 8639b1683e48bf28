// Control-plane fault model: controller outages, slow replan application,
// and degraded traffic estimates.
//
// The data plane in this simulator is deliberately robust to a silent
// controller — slots keep firing from the last committed schedule — but
// nothing exercised that property. This model makes the controller itself
// a fault domain:
//
//   Outages — scripted [start, end) windows and/or a stochastic MTBF/MTTR
//   state machine. While the controller is down, ControlPlane::on_epoch is
//   suppressed (observations are lost, not queued) and staged swaps are
//   held (ControlPlane::tick returns false), so the network keeps serving
//   the last committed generation.
//
//   Delayed replans — extra slots added to the reconfiguration manager's
//   update delay, modeling a congested or degraded state-distribution
//   path.
//
//   Degraded estimates — the observation fed to the estimator can be
//   stale (the matrix from K epochs ago) and/or perturbed with seeded
//   multiplicative noise, modeling a telemetry pipeline that lags or
//   lies.
//
// Determinism contract: tick() once per slot and filter() once per epoch,
// both between slots. All randomness comes from the model's own Rng
// streams, so the outage timeline and the noise are functions of the seed
// alone — byte-identical on every run.
#pragma once

#include <cstdint>
#include <deque>
#include <memory>
#include <utility>
#include <vector>

#include "obs/trace.h"
#include "traffic/sparse_demand.h"
#include "util/rng.h"
#include "util/time.h"

namespace sorn {

struct ControlFaultOptions {
  // Scripted outage windows [start, end) in slots; overlapping windows
  // merge naturally (the controller is down while inside any of them).
  std::vector<std::pair<Slot, Slot>> outages;
  // Stochastic outage model: while up the controller fails at rate
  // 1/mtbf, while down it recovers at rate 1/mttr (memoryless, like the
  // data-plane injector). 0 disables; when enabled the MTTR must be
  // positive.
  double mtbf_slots = 0.0;
  double mttr_slots = 0.0;
  std::uint64_t seed = 1;
  // Extra slots between a replan and its application, on top of
  // ReconfigManager::Options::update_delay_slots.
  Slot replan_apply_delay = 0;
  // Feed the optimizer the observation from this many epochs ago
  // (0 = fresh). The first epochs, before the lag is filled, see the
  // oldest available observation.
  std::uint32_t estimate_stale_epochs = 0;
  // Per-entry multiplicative noise amplitude in [0, 1]: each rate is
  // scaled by a seeded uniform factor in [1 - noise, 1 + noise].
  double estimate_noise = 0.0;
};

class ControlFaultModel {
 public:
  explicit ControlFaultModel(ControlFaultOptions options);

  // Advance the outage state machine to `now`. Call once per slot,
  // between slots, before the control plane's epoch/tick work.
  // Returns true when the controller's up/down state changed this slot
  // (also fires the tracer's controller_down / controller_up events).
  bool tick(Slot now);

  bool controller_up() const { return up_; }

  // Degrade one epoch's observation per the staleness/noise options and
  // return the demand the controller believes it measured. The reference
  // stays valid until the next filter() call. With staleness and noise
  // both off this is the identity (no copy). Staleness history holds
  // backend handles (DemandModel::clone), so a sparse or procedural
  // observation never costs an N^2 copy; noise is applied as a seeded
  // sparse overlay built from the source's nonzeros (same RNG order as the
  // historical dense loop, which skipped zero entries without drawing).
  const DemandModel& filter(const DemandModel& observed);

  // Staleness-history introspection (regression-tested: the history stays
  // bounded by estimate_stale_epochs + 1 entries over arbitrarily long
  // runs).
  std::size_t history_entries() const { return history_.size(); }
  std::size_t history_bytes() const;

  // Extra replan-application latency to install into the reconfiguration
  // manager (ControlPlane::set_fault_model does this).
  Slot extra_replan_delay() const { return options_.replan_apply_delay; }

  // Epochs whose observations were dropped because the controller was
  // down (counted by the control plane).
  void note_suppressed_epoch() { ++suppressed_epochs_; }
  std::uint64_t suppressed_epochs() const { return suppressed_epochs_; }

  // Completed down->up ... transitions and total slots spent down.
  std::uint64_t outages_started() const { return outages_started_; }
  std::uint64_t outage_slots() const { return outage_slots_; }

  // Borrowed tracer for controller_down/controller_up; nullptr disables.
  void set_tracer(Tracer* tracer) { tracer_ = tracer; }

 private:
  bool scripted_down(Slot now) const;

  static constexpr Slot kNone = -1;

  ControlFaultOptions options_;
  Rng outage_rng_;
  Rng noise_rng_;
  bool up_ = true;
  bool stochastic_up_ = true;
  Slot next_transition_ = kNone;  // next stochastic flip, kNone = none
  std::uint64_t suppressed_epochs_ = 0;
  std::uint64_t outages_started_ = 0;
  std::uint64_t outage_slots_ = 0;
  // Observation history for staleness; back = newest. Bounded by
  // estimate_stale_epochs + 1.
  std::deque<std::unique_ptr<const DemandModel>> history_;
  std::unique_ptr<SparseDemand> degraded_;
  Tracer* tracer_ = nullptr;
};

}  // namespace sorn
