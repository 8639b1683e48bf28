// Deterministic fault injection for the slotted simulator.
//
// Two timeline sources, freely combined:
//
//   Scripted — a FaultScript of "<slot> <action> <args>" events parsed
//   from text (sorn_tool --fault-script) or built programmatically;
//   applied when the network clock reaches each event's slot.
//
//   Stochastic — a per-node / per-circuit MTBF/MTTR exponential model:
//   every healthy entity fails at rate 1/MTBF, every failed entity heals
//   at rate 1/MTTR (memoryless). Implemented event-driven on aggregate
//   rates (Gillespie-style): one exponential draw yields the next
//   transition slot, one uniform draw picks the transition, so RNG cost is
//   per fault event, not per slot x entity.
//
// Determinism contract: tick(net) must be called once per slot, before
// net.step(). All fault randomness comes from the injector's own Rng, so
// a seeded run produces the identical fault timeline — and hence
// byte-identical metrics/traces — on every run.
//
// Faults drive SlottedNetwork::fail_*/heal_* and therefore fire the
// existing telemetry events (node_fail, node_heal, circuit_fail,
// circuit_heal). Scripted events that would not change state (failing an
// already-failed node) are skipped silently — the network mutators are
// idempotent.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "sim/network.h"
#include "util/rng.h"
#include "util/time.h"
#include "util/types.h"

namespace sorn {

enum class FaultKind : std::uint8_t {
  kFailNode,
  kHealNode,
  kFailCircuit,
  kHealCircuit,
  // Gray (partial) circuit failures (sim/gray_failures.h): value is the
  // per-cell loss probability / slot-capacity fraction; restore clears
  // both.
  kDegradeCircuit,
  kThrottleCircuit,
  kRestoreCircuit,
};

struct FaultEvent {
  Slot slot = 0;
  FaultKind kind = FaultKind::kFailNode;
  NodeId a = 0;  // the node, or the circuit's src
  NodeId b = 0;  // the circuit's dst (unused for node events)
  // kDegradeCircuit: loss probability in [0, 1];
  // kThrottleCircuit: capacity fraction in [0, 1]; otherwise unused.
  double value = 0.0;
};

// An ordered fault timeline. Script grammar, one event per line:
//
//   <slot> fail-node <node>
//   <slot> heal-node <node>
//   <slot> fail-circuit <src> <dst>
//   <slot> heal-circuit <src> <dst>
//   <slot> degrade-circuit <src> <dst> <loss_p>     # gray: lossy link
//   <slot> throttle-circuit <src> <dst> <capacity>  # gray: reduced rate
//   <slot> restore-circuit <src> <dst>              # clear gray state
//   <slot> flap-circuit <src> <dst> <cycles> <down_slots> <up_slots>
//
// flap-circuit expands at parse time into `cycles` fail/heal pairs with
// period down_slots + up_slots — a link bouncing on a short MTTR.
//
// Blank lines and '#' comments are ignored. Events are stable-sorted by
// slot, so same-slot events apply in file order.
class FaultScript {
 public:
  FaultScript() = default;

  // Parse script text; on failure returns false and sets *error to a
  // message naming the offending line. out is untouched on failure.
  // `nodes` is the topology size: node/circuit ids are validated against
  // it at parse time (line-numbered errors) instead of blowing up in the
  // injector at apply time; 0 skips the range check (programmatic use
  // where the topology is not known yet).
  static bool parse(std::string_view text, NodeId nodes, FaultScript* out,
                    std::string* error);
  // Same, reading the file at path.
  static bool load(const std::string& path, NodeId nodes, FaultScript* out,
                   std::string* error);
  // Programmatic construction (events are stable-sorted by slot).
  static FaultScript from_events(std::vector<FaultEvent> events);

  const std::vector<FaultEvent>& events() const { return events_; }
  bool empty() const { return events_.empty(); }

 private:
  std::vector<FaultEvent> events_;
};

struct FaultInjectorOptions {
  // Mean slots between failures of one healthy node, and mean slots to
  // repair one failed node; 0 disables stochastic node faults. When
  // enabled, the MTTR must be positive (nothing would ever heal).
  double node_mtbf_slots = 0.0;
  double node_mttr_slots = 0.0;
  // Same, per directed circuit.
  double circuit_mtbf_slots = 0.0;
  double circuit_mttr_slots = 0.0;
  std::uint64_t seed = 1;
};

class FaultInjector {
 public:
  explicit FaultInjector(FaultScript script,
                         FaultInjectorOptions options = {});

  // Apply all faults due at the network's current slot. Call once per
  // slot, before step().
  void tick(SlottedNetwork& net);

  bool stochastic() const;

  // Events that actually changed network state.
  std::uint64_t scripted_applied() const { return scripted_applied_; }
  std::uint64_t stochastic_failures() const { return stochastic_failures_; }
  std::uint64_t stochastic_heals() const { return stochastic_heals_; }
  std::uint64_t faults_applied() const {
    return scripted_applied_ + stochastic_failures_ + stochastic_heals_;
  }
  // Slot of the first applied fault; -1 until one happens.
  Slot first_fault_slot() const { return first_fault_slot_; }

 private:
  // Apply one event; returns true if network state changed.
  bool apply(SlottedNetwork& net, const FaultEvent& ev);
  void note_applied(Slot slot);
  // Total transition rate of the stochastic model given the current
  // failure state (events per slot).
  double total_rate(const SlottedNetwork& net) const;
  // Draw the next stochastic transition slot from `now` (or kNone when
  // the total rate is zero).
  void schedule_next(const SlottedNetwork& net, Slot now);
  void apply_stochastic(SlottedNetwork& net);
  // Pick the k-th healthy/failed entity uniformly (linear scan; fault
  // events are rare).
  NodeId pick_node(const SlottedNetwork& net, bool failed);
  void pick_circuit(const SlottedNetwork& net, bool failed, NodeId* src,
                    NodeId* dst);

  static constexpr Slot kNone = -1;

  FaultScript script_;
  std::size_t next_event_ = 0;
  FaultInjectorOptions opt_;
  Rng rng_;
  Slot pending_slot_ = kNone;  // next stochastic transition, kNone = none
  std::uint64_t scripted_applied_ = 0;
  std::uint64_t stochastic_failures_ = 0;
  std::uint64_t stochastic_heals_ = 0;
  Slot first_fault_slot_ = kNone;
};

}  // namespace sorn
