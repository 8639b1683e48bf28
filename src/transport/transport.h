// The closed-loop end-host transport layer.
//
// DctcpTransport holds one CongestionControl per open flow and releases
// cells into the network in window-sized segments: pump() — called by the
// WorkloadDriver once per slot, between slots — injects each flow's
// available window via
// SlottedNetwork::inject_flow_segment, and every first-copy delivery the
// network reports to on_deliver (sim/transport_hook.h) is an ack that
// advances the window. Everything iterates the flow map in ascending id
// order, so runs stay byte-identical.
//
// pump() visits only flows that can send: those opened or acked since the
// last pump (ready_). A pump leaves every flow it releases blocked (its
// window full or its cells all sent), and only an ack moves a window
// (CongestionControl::on_ack) or the in-flight count, so every other open
// flow would inject nothing. Sorted and de-duplicated, the ready list is
// the subsequence of the full map scan that injects: same segments, same
// order, same router RNG draws.
//
// Losses are recovered by the network-level stall-timeout retransmission
// (SlottedNetwork::retransmit_stalled), which re-admits only cells the
// transport already released (FlowRecord::cells_sent); the retransmitted
// copies are acked on first delivery like the originals, so the window's
// in-flight accounting stays exact under loss.
#pragma once

#include <cstdint>
#include <map>
#include <vector>

#include "sim/network.h"
#include "sim/transport_hook.h"
#include "transport/congestion.h"

namespace sorn {

class DctcpTransport : public Transport {
 public:
  struct Options {
    CongestionConfig congestion;
  };

  explicit DctcpTransport(Options options = {});

  // Transport interface (sim/transport_hook.h). open_flow ignores
  // duplicate ids (callers hand out unique ids); bulk_router == nullptr
  // routes via the network's primary router, resolved at each pump.
  void open_flow(SlottedNetwork& network, const Router* bulk_router,
                 FlowId flow, NodeId src, NodeId dst, std::uint64_t bytes,
                 int flow_class) override;
  std::uint64_t pump(SlottedNetwork& network) override;
  bool has_backlog() const override { return !flows_.empty(); }
  // A first copy of one of this transport's cells is its ack.
  void on_deliver(Slot slot, const Cell& cell, bool first_copy) override;

  std::uint64_t open_flow_count() const { return flows_.size(); }
  TransportStats stats() const;
  // Per-flow window/ack state and the ready list, for the profiler's
  // memory gauge.
  std::uint64_t memory_bytes() const;

 private:
  struct FlowState {
    const Router* bulk_router = nullptr;  // nullptr = primary path class
    NodeId src = 0;
    NodeId dst = 0;
    std::uint64_t bytes = 0;
    std::uint64_t total_cells = 0;
    std::uint64_t sent_cells = 0;
    std::uint64_t acked_cells = 0;
    int flow_class = 0;
    CongestionControl congestion;
  };

  Options options_;
  // Ordered map: pump() must release windows in ascending flow id so the
  // injection (and its RNG draws) replays identically across runs.
  std::map<FlowId, FlowState> flows_;
  // Flows opened or acked since the last pump(), in event order and with
  // repeats; pump() sorts and de-duplicates them.
  std::vector<FlowId> ready_;
  TransportStats stats_;
};

}  // namespace sorn
