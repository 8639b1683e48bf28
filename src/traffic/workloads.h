// Burst-structured workload generators (ROADMAP item 3).
//
// FlowArrivals (arrivals.h) offers smooth Poisson traffic; the workloads
// here produce the synchronized micro-burst regimes SORN's oblivious lane
// is claimed to absorb (paper Sec. 3), as ArrivalStream implementations
// the WorkloadDriver consumes unchanged:
//
//   IncastArrivals        partition/aggregate request waves — every
//                         `period` a fresh receiver is hit by `fanin`
//                         simultaneous responses.
//   CollectiveArrivals    ML-training allreduce phases (ring or binary
//                         tree) with barrier-synchronized bursts; each
//                         node's contribution is sized off the demand
//                         model's row share.
//   OversubRackArrivals   rack-local/inter-rack Poisson mix where the
//                         inter-rack share is multiplied by an
//                         oversubscription factor, modeling F racks'
//                         worth of servers behind each uplink.
//
// All streams own their Rng (or are RNG-free), emit nondecreasing times,
// and are drawn between slots only.
#pragma once

#include <cstdint>
#include <vector>

#include "topo/clique.h"
#include "traffic/arrivals.h"
#include "traffic/demand_model.h"
#include "traffic/flow_size.h"

namespace sorn {

class IncastArrivals : public ArrivalStream {
 public:
  // Every period_slots, a uniformly drawn receiver gets `fanin` flows of
  // `bytes_per_sender` from distinct uniformly drawn senders, all stamped
  // at the wave start (the synchronized request wave). fanin <= nodes - 1.
  IncastArrivals(NodeId nodes, NodeId fanin, std::uint64_t bytes_per_sender,
                 Slot period_slots, Picoseconds slot_duration, Rng rng);

  FlowArrival next() override;

 private:
  void start_wave();

  NodeId nodes_;
  NodeId fanin_;
  std::uint64_t bytes_;
  Slot period_slots_;
  Picoseconds slot_duration_;
  Rng rng_;
  std::uint64_t wave_ = 0;
  NodeId receiver_ = 0;
  std::vector<NodeId> senders_;
  std::size_t emitted_ = 0;
};

class CollectiveArrivals : public ArrivalStream {
 public:
  enum class Kind {
    kRing,  // 2(N-1) phases; node i sends its chunk to (i+1) mod N
    kTree,  // binary-tree reduce then broadcast, 2*ceil(log2 N) phases
  };

  // bytes_per_node is each node's full gradient contribution per
  // allreduce iteration, scaled per node by its demand-model row share
  // (row_sum * N / total; uniform demand leaves every node at exactly
  // bytes_per_node). Phases start phase_gap_slots apart — the barrier —
  // and iterations repeat indefinitely (steady-state training).
  CollectiveArrivals(const DemandModel* tm, Kind kind,
                     std::uint64_t bytes_per_node, Slot phase_gap_slots,
                     Picoseconds slot_duration);

  FlowArrival next() override;

 private:
  // Fill flows_ with this phase's (src, dst, bytes) bursts, ascending src.
  void build_phase();

  NodeId nodes_;
  Kind kind_;
  Slot phase_gap_slots_;
  Picoseconds slot_duration_;
  // Per-node scaled bytes (demand row share applied once, up front).
  std::vector<std::uint64_t> node_bytes_;
  std::uint64_t phase_ = 0;         // global phase counter across iterations
  std::uint64_t phases_per_iter_;
  std::vector<FlowArrival> flows_;  // current phase's bursts
  std::size_t emitted_ = 0;
};

class OversubRackArrivals : public ArrivalStream {
 public:
  // Poisson mix over racks (`racks` assigns nodes to racks): a fraction
  // stays rack-local, the rest crosses racks with its offered load
  // multiplied by `oversub_factor` — so at factor F the fabric sees F
  // times the balanced inter-rack demand, the load profile of F racks of
  // servers sharing one uplink. load/node_bandwidth_bps calibrate the
  // rack-local component exactly like FlowArrivals.
  OversubRackArrivals(const CliqueAssignment* racks, const FlowSizeDist* sizes,
                      double node_bandwidth_bps, double load,
                      double rack_local_frac, double oversub_factor, Rng rng);

  FlowArrival next() override;

 private:
  const CliqueAssignment* racks_;
  const FlowSizeDist* sizes_;
  double inter_prob_;  // probability an arrival crosses racks
  Picoseconds mean_gap_;
  Picoseconds now_ = 0;
  Rng rng_;
};

}  // namespace sorn
