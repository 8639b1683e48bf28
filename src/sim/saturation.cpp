#include "sim/saturation.h"

#include "sim/workload_driver.h"
#include "util/assert.h"

namespace sorn {

ClosedLoopSource::ClosedLoopSource(const DemandModel* tm,
                                   SaturationConfig config)
    : tm_(tm),
      rng_(config.seed),
      max_in_flight_per_node_(config.max_in_flight_per_node) {
  SORN_ASSERT(tm_ != nullptr, "saturation source needs a traffic matrix");
  const NodeId n = tm_->node_count();
  row_sums_.resize(static_cast<std::size_t>(n));
  for (NodeId i = 0; i < n; ++i)
    row_sums_[static_cast<std::size_t>(i)] = tm_->row_sum(i);
}

int ClosedLoopSource::cells_per_node(const SlottedNetwork& network) const {
  const std::uint64_t cap = max_in_flight_per_node_ *
                            static_cast<std::uint64_t>(network.node_count());
  return network.cells_in_flight() >= cap ? 0 : 2 * network.config().lanes;
}

double ClosedLoopSource::measure(SlottedNetwork& network, Slot warmup_slots,
                                 Slot measure_slots) {
  return WorkloadDriver(this).measure(network, warmup_slots, measure_slots);
}

SaturationSource::SaturationSource(const DemandModel* tm,
                                   SaturationConfig config)
    : ClosedLoopSource(tm, config) {}

void SaturationSource::pump(SlottedNetwork& network) {
  const int cells = cells_per_node(network);
  if (cells == 0) return;
  const NodeId n = network.node_count();
  for (NodeId i = 0; i < n; ++i) {
    if (!sends(i)) continue;
    for (int c = 0; c < cells; ++c) {
      const NodeId j = tm_->sample_dst(i, rng_);
      if (j == i) continue;  // zero-demand diagonal draw; skip
      network.inject_cell(i, j);
    }
  }
}

FlowSaturationSource::FlowSaturationSource(const DemandModel* tm,
                                           const FlowSizeDist* sizes,
                                           SaturationConfig config,
                                           int concurrency)
    : ClosedLoopSource(tm, config), sizes_(sizes), concurrency_(concurrency) {
  SORN_ASSERT(sizes_ != nullptr, "flow saturation source needs sizes");
  SORN_ASSERT(concurrency_ >= 1, "need at least one open flow per node");
  const auto n = static_cast<std::size_t>(tm_->node_count());
  open_.resize(n * static_cast<std::size_t>(concurrency_));
  cursor_.assign(n, 0);
}

void FlowSaturationSource::pump(SlottedNetwork& network) {
  const int cells = cells_per_node(network);
  if (cells == 0) return;
  const NodeId n = network.node_count();
  const std::uint64_t cell_bytes = network.config().cell_bytes;
  for (NodeId i = 0; i < n; ++i) {
    if (!sends(i)) continue;
    for (int c = 0; c < cells; ++c) {
      // Round-robin across the node's open flows.
      auto& slot = cursor_[static_cast<std::size_t>(i)];
      auto& flow = open_[static_cast<std::size_t>(i) *
                             static_cast<std::size_t>(concurrency_) +
                         static_cast<std::size_t>(slot)];
      slot = (slot + 1) % concurrency_;
      if (flow.cells_left == 0) {
        // Draw the next flow: destination from the matrix row, size from
        // the flow-size distribution.
        const NodeId j = tm_->sample_dst(i, rng_);
        if (j == i) continue;
        flow.dst = j;
        flow.cells_left =
            (sizes_->sample(rng_) + cell_bytes - 1) / cell_bytes;
      }
      network.inject_cell(i, flow.dst);
      --flow.cells_left;
    }
  }
}

}  // namespace sorn
