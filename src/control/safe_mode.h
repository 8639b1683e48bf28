// Data-plane safe mode for controller outages.
//
// When the control plane goes dark (ControlFaultModel::controller_up()
// flips false) the network must keep moving cells with no fresh plans.
// Two policies:
//
//   kHold — keep serving the last committed schedule/router. Nothing is
//   swapped; the guard only accounts for the episode and traces it. This
//   is the semi-oblivious design's natural behavior: the committed SORN
//   schedule is itself oblivious-safe for the traffic it was planned for.
//
//   kVlb — swap to a pure-oblivious floor: the round-robin schedule plus
//   2-hop VLB routing (the Sirius/Shoal baseline). Throughput drops to
//   ~0.5 but becomes traffic-agnostic — the worst-case-safe floor the
//   paper's semi-oblivious argument leans on. On recovery the schedule
//   and router that were live at outage onset are restored.
//
// The restore is safe because ControlPlane::tick() holds staged swaps
// while the controller is down: the saved generation's objects stay alive
// in the ReconfigManager (or the design) for the whole outage.
//
// Call on_controller_state() once per slot, after ControlFaultModel::tick
// and before the network steps. The guard performs no RNG draws, so
// attaching it never perturbs seeded runs.
#pragma once

#include <cstdint>

#include "obs/trace.h"
#include "routing/vlb.h"
#include "sim/network.h"
#include "topo/schedule_builder.h"

namespace sorn {

enum class SafeModePolicy : std::uint8_t { kHold, kVlb };

class SafeModeGuard {
 public:
  SafeModeGuard(NodeId nodes, SafeModePolicy policy);

  // Drive the guard with the controller's current state. Enters safe mode
  // on an up->down edge, exits (restoring the saved generation under
  // kVlb) on down->up.
  void on_controller_state(SlottedNetwork& net, bool controller_up, Slot now);

  bool active() const { return active_; }
  SafeModePolicy policy() const { return policy_; }
  std::uint64_t activations() const { return activations_; }
  std::uint64_t slots_in_safe_mode() const { return safe_slots_; }

  // Borrowed tracer for safe_mode_enter/safe_mode_exit; nullptr disables.
  void set_tracer(Tracer* tracer) { tracer_ = tracer; }

 private:
  SafeModePolicy policy_;
  // The oblivious floor, owned by the guard so entering safe mode never
  // allocates: round-robin schedule + VLB with the deterministic
  // first-available intermediate rule (no RNG consumption).
  CircuitSchedule fallback_schedule_;
  VlbRouter fallback_router_;
  // The generation live at outage onset (borrowed; kept alive by its
  // owner — see header comment).
  const CircuitSchedule* saved_schedule_ = nullptr;
  const Router* saved_router_ = nullptr;
  bool active_ = false;
  std::uint64_t activations_ = 0;
  std::uint64_t safe_slots_ = 0;
  Tracer* tracer_ = nullptr;
};

}  // namespace sorn
