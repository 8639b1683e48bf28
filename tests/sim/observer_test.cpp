// The SimObserver contract (sim/observer.h): the network emits one event
// stream, pinned against bytes captured from an earlier build (pins.h),
// to every attached observer in attach order; remove_observer stops it.
// The run has three lanes, node/circuit faults, gray circuits, a queue
// cap, ECN, retransmission, a reconfigure and a counter reset, so every
// hook fires.
#include "sim/observer.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "routing/vlb.h"
#include "sim/network.h"
#include "topo/schedule_builder.h"
#include "util/rng.h"
#include "pins.h"

namespace sorn {
namespace {

// Logs every event as one line and — when given a shared `order` — its id
// once per event, to expose attach order.
class RecordingObserver final : public SimObserver {
 public:
  explicit RecordingObserver(std::vector<int>* order = nullptr, int id = 0)
      : order_(order), id_(id) {}

  const std::vector<std::string>& events() const { return events_; }
  // Events per kind (the first word of each line).
  std::map<std::string, std::uint64_t> kinds() const {
    std::map<std::string, std::uint64_t> out;
    for (const std::string& e : events_) ++out[e.substr(0, e.find(' '))];
    return out;
  }

  void on_attach(const SlottedNetwork& network) override {
    log("attach", network.now());
  }
  void on_flow_inject(Slot slot, FlowId flow, NodeId src, NodeId dst,
                      std::uint64_t bytes, std::uint64_t cells,
                      int flow_class) override {
    log("flow_inject", slot, flow, src, dst, bytes, cells, flow_class);
  }
  void on_flow_complete(Slot slot, FlowId flow, Picoseconds fct_ps,
                        int flow_class) override {
    log("flow_complete", slot, flow, fct_ps, flow_class);
  }
  void on_transmit(Slot slot, NodeId src, NodeId dst) override {
    log("transmit", slot, src, dst);
  }
  void on_deliver(Slot slot, const Cell& cell, bool first_copy) override {
    log("deliver", slot, cell.flow(), cell.seq(), cell.hop(), cell.ecn(),
        first_copy);
  }
  void on_tail_drop(Slot slot, NodeId at, NodeId next_hop,
                    FlowId flow) override {
    log("tail_drop", slot, at, next_hop, flow);
  }
  void on_gray_drop(Slot slot, NodeId at, NodeId next_hop,
                    FlowId flow) override {
    log("gray_drop", slot, at, next_hop, flow);
  }
  void on_ecn_mark(Slot slot, NodeId at, NodeId next_hop,
                   FlowId flow) override {
    log("ecn_mark", slot, at, next_hop, flow);
  }
  void on_retransmit(Slot slot, FlowId flow, std::uint64_t cells,
                     std::uint32_t attempt) override {
    log("retransmit", slot, flow, cells, attempt);
  }
  void on_reconfigure(Slot slot) override { log("reconfigure", slot); }
  void on_node_fail(Slot slot, NodeId node) override {
    log("node_fail", slot, node);
  }
  void on_node_heal(Slot slot, NodeId node) override {
    log("node_heal", slot, node);
  }
  void on_circuit_fail(Slot slot, NodeId src, NodeId dst) override {
    log("circuit_fail", slot, src, dst);
  }
  void on_circuit_heal(Slot slot, NodeId src, NodeId dst) override {
    log("circuit_heal", slot, src, dst);
  }
  void on_circuit_degrade(Slot slot, NodeId src, NodeId dst, double loss_p,
                          double capacity) override {
    log("circuit_degrade", slot, src, dst, loss_p, capacity);
  }
  void on_circuit_restore(Slot slot, NodeId src, NodeId dst) override {
    log("circuit_restore", slot, src, dst);
  }
  void on_slot_end(Slot slot, const SlottedNetwork& network) override {
    log("slot_end", slot, network.metrics().delivered_cells(),
        network.metrics().dropped_cells(), network.cells_in_flight());
  }

 private:
  template <typename... Fields>
  void log(const char* kind, const Fields&... fields) {
    if (order_ != nullptr) order_->push_back(id_);
    std::ostringstream line;
    line << kind;
    ((line << ' ' << fields), ...);
    events_.push_back(line.str());
  }

  std::vector<int>* order_;
  int id_;
  std::vector<std::string> events_;
};

constexpr NodeId kNodes = 16;
constexpr Slot kSlots = 400;

// Runs the scenario with `observers` attached in order; `dropped`, when
// set, is removed before slot `drop_at`.
void run_scenario(const std::vector<SimObserver*>& observers,
                  SimObserver* dropped = nullptr, Slot drop_at = 0) {
  const CircuitSchedule s = ScheduleBuilder::round_robin(kNodes);
  const VlbRouter router(&s, LbMode::kRandom);
  NetworkConfig config;
  config.lanes = 3;
  config.propagation_per_hop = 0;
  config.max_queue_cells = 4;
  config.ecn_threshold_cells = 2;
  SlottedNetwork net(&s, &router, config);
  for (SimObserver* o : observers) net.add_observer(o);

  Rng rng(5);
  FlowId next_flow = 1;
  for (Slot t = 0; t < kSlots; ++t) {
    if (dropped != nullptr && t == drop_at) net.remove_observer(dropped);
    if (t == 40) {
      net.fail_node(5);
      net.fail_circuit(2, 9);
      net.degrade_circuit(1, 3, /*loss_p=*/0.5);
      net.throttle_circuit(4, 6, /*capacity=*/0.5);
    }
    if (t == 120) net.reconfigure(&s, &router);
    if (t == 160) net.reset_metrics();
    if (t == 200) {
      net.heal_all();
      net.restore_all_gray();
    }
    if (t % 16 == 0) net.retransmit_stalled({/*timeout_slots=*/32});
    // A 7:1 incast every 50 slots overflows the capped queues; otherwise
    // a few random flows.
    if (t % 50 == 0 && t < 300) {
      for (NodeId src = 1; src < 8; ++src)
        net.inject_flow(next_flow++, src, 0, 6 * config.cell_bytes);
    } else if (t < 300) {
      const auto src = static_cast<NodeId>(rng.next_below(kNodes));
      auto dst = static_cast<NodeId>(rng.next_below(kNodes));
      if (dst == src) dst = (dst + 1) % kNodes;
      net.inject_flow(next_flow++, src, dst,
                      (1 + rng.next_below(4)) * config.cell_bytes);
    }
    net.step();
  }
}

TEST(ObserverTest, SequenceMatchesPinnedEvents) {
  RecordingObserver base;
  run_scenario({&base});
  // The run must put every hook on trial.
  const std::map<std::string, std::uint64_t> kinds = base.kinds();
  for (const char* kind :
       {"attach", "flow_inject", "flow_complete", "transmit", "deliver",
        "tail_drop", "gray_drop", "ecn_mark", "retransmit", "reconfigure",
        "node_fail", "node_heal", "circuit_fail", "circuit_heal",
        "circuit_degrade", "circuit_restore", "slot_end"}) {
    EXPECT_EQ(kinds.count(kind), 1u) << "no " << kind << " event";
  }
  EXPECT_EQ(kinds.at("attach"), 2u) << "add_observer + reset_metrics";
  EXPECT_EQ(kinds.at("slot_end"), static_cast<std::uint64_t>(kSlots));
  EXPECT_EQ(pins::pin_of(base.events()), "98140:8e40aec3f8dddeec");
}

TEST(ObserverTest, ObserversReceiveTheSameSequenceInAttachOrder) {
  std::vector<int> order;
  RecordingObserver first(&order, 0);
  RecordingObserver second(&order, 1);
  run_scenario({&first, &second});
  ASSERT_FALSE(first.events().empty());
  EXPECT_EQ(first.events(), second.events());
  ASSERT_EQ(order.size(), 2 * first.events().size());
  for (std::size_t i = 0; i < order.size(); ++i)
    ASSERT_EQ(order[i], static_cast<int>(i % 2)) << "event " << i / 2;
}

TEST(ObserverTest, RemoveObserverMidRunStopsDelivery) {
  RecordingObserver kept;
  RecordingObserver dropped;
  run_scenario({&kept, &dropped}, &dropped, /*drop_at=*/100);
  const std::vector<std::string>& all = kept.events();
  const std::vector<std::string>& head = dropped.events();
  ASSERT_LT(head.size(), all.size());
  EXPECT_TRUE(std::equal(head.begin(), head.end(), all.begin()))
      << "the removed observer must have seen a prefix of the stream";
  EXPECT_EQ(head.back().rfind("slot_end 99 ", 0), 0u)
      << "the last event before removal ends slot 99: " << head.back();
}

TEST(ObserverTest, RemoveObserverIgnoresAnUnattachedObserver) {
  const CircuitSchedule s = ScheduleBuilder::round_robin(4);
  const VlbRouter router(&s, LbMode::kRandom);
  SlottedNetwork net(&s, &router, NetworkConfig{});
  RecordingObserver attached;
  RecordingObserver stranger;
  net.add_observer(&attached);
  net.remove_observer(&stranger);
  net.run(3);
  EXPECT_EQ(attached.kinds().at("slot_end"), 3u);
  EXPECT_TRUE(stranger.events().empty());
}

}  // namespace
}  // namespace sorn
