// Saturation (closed-loop) sources for worst-case throughput measurement.
//
// Every node keeps a bounded backlog of single-cell demands drawn from a
// traffic matrix; each slot, backlogs are topped up unless the network
// already holds too many in-flight cells. Under permanent backpressure the
// delivered rate converges to the saturation throughput r — the quantity
// the paper's analysis bounds (r = 1/(3-x) for SORN with optimal q).
#pragma once

#include <cstdint>
#include <vector>

#include "sim/network.h"
#include "traffic/flow_size.h"
#include "traffic/demand_model.h"
#include "util/rng.h"

namespace sorn {

struct SaturationConfig {
  // Stop injecting while the network holds more than this many cells per
  // node (bounds memory; does not bias steady-state throughput).
  std::uint64_t max_in_flight_per_node = 512;
  std::uint64_t seed = 7;
};

// What both sources share. WorkloadDriver pumps a source once per slot,
// after the slot hook and the retransmission check, before step().
class ClosedLoopSource {
 public:
  virtual ~ClosedLoopSource() = default;

  // Inject this slot's new demands into the network.
  virtual void pump(SlottedNetwork& network) = 0;

  // WorkloadDriver::measure on a driver of this source: the throughput r.
  double measure(SlottedNetwork& network, Slot warmup_slots,
                 Slot measure_slots);

 protected:
  // tm rows select destinations per source; must outlive the source.
  ClosedLoopSource(const DemandModel* tm, SaturationConfig config);

  // New cells each sending node offers this slot: 2 × lanes, so that
  // injection outruns delivery on every lane, or 0 while the network
  // holds its in-flight cap.
  int cells_per_node(const SlottedNetwork& network) const;
  // False for a node whose demand row is empty.
  bool sends(NodeId i) const {
    return row_sums_[static_cast<std::size_t>(i)] > 0.0;
  }

  const DemandModel* tm_;
  Rng rng_;

 private:
  std::uint64_t max_in_flight_per_node_;
  // Per-node row totals: the silent-row skip check. Destination draws go
  // through DemandModel::sample_dst, so no N^2 CDF copy is kept here.
  std::vector<double> row_sums_;
};

class SaturationSource : public ClosedLoopSource {
 public:
  SaturationSource(const DemandModel* tm, SaturationConfig config);

  void pump(SlottedNetwork& network) override;
};

// Flow-granular saturation: each node keeps `concurrency` open *flows*
// (destination + remaining cells) with sizes drawn from a flow-size
// distribution, cycling cell injections across them — a host multiplexing
// several transfers. This is the "real-world traffic" flavor of
// Fig. 2(f): bursty per-pair demand at the cell timescale, the matrix
// only in aggregate.
class FlowSaturationSource : public ClosedLoopSource {
 public:
  FlowSaturationSource(const DemandModel* tm, const FlowSizeDist* sizes,
                       SaturationConfig config, int concurrency = 8);

  void pump(SlottedNetwork& network) override;

 private:
  struct OpenFlow {
    NodeId dst = kNoNode;
    std::uint64_t cells_left = 0;
  };

  const FlowSizeDist* sizes_;
  int concurrency_;
  // concurrency_ open flows per node, row-major.
  std::vector<OpenFlow> open_;
  std::vector<int> cursor_;
};

}  // namespace sorn
