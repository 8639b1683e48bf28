#include "transport/transport.h"

#include <algorithm>

#include "util/assert.h"

namespace sorn {

DctcpTransport::DctcpTransport(Options options) : options_(options) {}

void DctcpTransport::open_flow(SlottedNetwork& network,
                               const Router* bulk_router, FlowId flow,
                               NodeId src, NodeId dst, std::uint64_t bytes,
                               int flow_class) {
  SORN_ASSERT(src != dst, "flow endpoints must differ");
  SORN_ASSERT(flow != kNoFlow, "transport flows need a real id");
  const std::uint64_t cell_bytes = network.config().cell_bytes;
  auto [it, inserted] = flows_.try_emplace(
      flow, FlowState{bulk_router, src, dst, bytes,
                      (bytes + cell_bytes - 1) / cell_bytes, 0, 0, flow_class,
                      CongestionControl(options_.congestion)});
  if (!inserted) return;
  ++stats_.flows_opened;
  ready_.push_back(flow);
}

std::uint64_t DctcpTransport::pump(SlottedNetwork& network) {
  std::sort(ready_.begin(), ready_.end());
  ready_.erase(std::unique(ready_.begin(), ready_.end()), ready_.end());
  std::uint64_t injected = 0;
  for (const FlowId flow : ready_) {
    const auto it = flows_.find(flow);
    if (it == flows_.end()) continue;  // completed since it was queued
    FlowState& st = it->second;
    const std::uint64_t inflight = st.sent_cells - st.acked_cells;
    const std::uint64_t window = st.congestion.window_cells();
    if (window <= inflight || st.sent_cells >= st.total_cells) continue;
    const std::uint64_t count =
        std::min(window - inflight, st.total_cells - st.sent_cells);
    const Router& router =
        st.bulk_router != nullptr ? *st.bulk_router : *network.router();
    network.inject_flow_segment(router, flow, st.src, st.dst, st.bytes,
                                st.sent_cells, count, st.flow_class);
    st.sent_cells += count;
    injected += count;
  }
  ready_.clear();
  stats_.cells_sent += injected;
  return injected;
}

void DctcpTransport::on_deliver(Slot /*slot*/, const Cell& cell,
                                bool first_copy) {
  if (!first_copy) return;
  const auto it = flows_.find(cell.flow());
  if (it == flows_.end()) return;
  FlowState& st = it->second;
  ++st.acked_cells;
  ++stats_.acked_cells;
  if (cell.ecn()) ++stats_.ecn_acked_cells;
  // Sample the window once per congestion round, right after it updates —
  // a per-ack sample would just repeat the same value window-many times.
  const std::uint64_t rounds_before = st.congestion.rounds();
  st.congestion.on_ack(cell.ecn());
  if (st.congestion.rounds() != rounds_before)
    stats_.cwnd_cells.add(st.congestion.cwnd());
  if (st.acked_cells == st.total_cells) {
    ++stats_.flows_completed;
    flows_.erase(it);
    return;
  }
  ready_.push_back(cell.flow());
}

TransportStats DctcpTransport::stats() const { return stats_; }

std::uint64_t DctcpTransport::memory_bytes() const {
  // Red-black tree node: key + state + parent/left/right pointers + color
  // word (libstdc++ layout approximation).
  return flows_.size() *
             (sizeof(FlowId) + sizeof(FlowState) + 4 * sizeof(void*)) +
         ready_.capacity() * sizeof(FlowId);
}

}  // namespace sorn
