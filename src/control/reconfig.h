// Epoch-synchronous reconfiguration of a running network (paper Sec. 5).
//
// The manager materializes a SornPlan into a schedule + router, then swaps
// them into the SlottedNetwork after a modeled control-plane update delay
// (state distribution to all NICs, a few seconds in practice — here a
// configurable number of slots). The previous generation's objects are
// kept alive until the next swap so in-flight cells routed under them can
// finish; this is safe because every generated schedule keeps the full
// neighbor superset reachable.
#pragma once

#include <memory>
#include <optional>

#include "obs/trace.h"
#include "control/nic_state.h"
#include "control/optimizer.h"
#include "routing/sorn_routing.h"
#include "sim/network.h"
#include "topo/schedule_builder.h"

namespace sorn {

class ReconfigManager {
 public:
  struct Options {
    // Slots between request_swap() and the swap becoming effective.
    Slot update_delay_slots = 0;
    LbMode lb_mode = LbMode::kRandom;
    Slot max_period = 1 << 22;
    // Used when the plan carries inter_weights (weighted schedules).
    ScheduleBuilder::WeightedOptions weighted;
    // Model the NIC-level rollout (Fig. 2c banked tables) on every swap
    // and expose the cost via last_rollout(). Adds O(N * period) work per
    // swap.
    bool track_nic_rollout = false;
    UpdateCoordinator::Options nic;
  };

  ReconfigManager() : ReconfigManager(Options()) {}
  explicit ReconfigManager(Options options);

  // Materialize the plan (builds the schedule and router; O(N * period)).
  // The swap itself happens in tick() once the delay elapses.
  void request_swap(SornPlan plan, Slot now);

  // Call every slot; performs the pending swap when due. Returns true on
  // the slot the swap is applied.
  bool tick(SlottedNetwork& network, Slot now);

  bool swap_pending() const { return pending_ != nullptr; }
  std::uint64_t swaps_applied() const { return swaps_applied_; }

  // Borrowed tracer for reconfig_staged/reconfig_applied events; nullptr
  // disables.
  void set_tracer(Tracer* tracer) { tracer_ = tracer; }

  // Extra slots added on top of update_delay_slots for swaps staged from
  // now on (control-plane fault model: degraded state-distribution path).
  void set_extra_delay(Slot extra) { extra_delay_ = extra; }
  Slot extra_delay() const { return extra_delay_; }

  // Borrowed failure state (usually &network.failure_view()): every
  // generation's router — current, pending, and all future ones — routes
  // around it (Router::set_failure_view). nullptr detaches.
  void set_failure_view(const FailureView* view);

  // NIC rollout cost of the most recent applied swap; nullopt until a
  // swap happened with track_nic_rollout enabled.
  const std::optional<UpdateCoordinator::Report>& last_rollout() const {
    return last_rollout_;
  }

  // Current generation (null before the first swap).
  const CircuitSchedule* schedule() const { return current_.schedule.get(); }
  const Router* router() const { return current_.router.get(); }
  const CliqueAssignment* cliques() const { return current_.cliques.get(); }

  // Heap bytes of the previous and pending generations' schedules and
  // clique assignments (profiler gauge). The current generation's
  // schedule is the one the network runs, gauged as schedule_matchings.
  std::uint64_t standby_memory_bytes() const;

 private:
  struct Generation {
    std::unique_ptr<CliqueAssignment> cliques;
    std::unique_ptr<CircuitSchedule> schedule;
    std::unique_ptr<Router> router;

    std::uint64_t memory_bytes() const {
      return (cliques != nullptr ? cliques->memory_bytes() : 0) +
             (schedule != nullptr ? schedule->memory_bytes() : 0);
    }
  };

  Options options_;
  const FailureView* failures_ = nullptr;
  Generation current_;
  Generation previous_;  // kept alive for in-flight traffic
  std::unique_ptr<Generation> pending_;
  Slot swap_due_ = 0;
  Slot extra_delay_ = 0;
  std::uint64_t swaps_applied_ = 0;
  std::vector<NicState> nics_;
  std::optional<UpdateCoordinator::Report> last_rollout_;
  Tracer* tracer_ = nullptr;
};

}  // namespace sorn
