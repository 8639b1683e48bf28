#include "sim/voq.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <deque>
#include <map>
#include <optional>
#include <utility>
#include <vector>

#include "routing/direct.h"
#include "sim/network.h"
#include "topo/schedule_builder.h"
#include "util/rng.h"

namespace sorn {
namespace {

// A cell of `flow` at `src`, headed for `via` then `dst`, transmittable
// from slot `ready`.
Cell make_cell(NodeId src, NodeId via, NodeId dst, Slot ready,
               FlowId flow = 1) {
  Cell c(flow, 0, Path::of({src, via, dst}), 0);
  c.set_ready_slot(ready);
  return c;
}

// Queue a fresh cell at its source `src`.
void push_at_source(VoqSet& voqs, NodeId src, NodeId via, NodeId dst,
                    Slot ready = 0) {
  voqs.push(src, make_cell(src, via, dst, ready));
}

TEST(VoqTest, PushPopReady) {
  VoqSet voqs(4);
  push_at_source(voqs, 0, 1, 2);
  EXPECT_EQ(voqs.total_queued(), 1u);
  EXPECT_EQ(voqs.queued_at(0), 1u);
  const std::optional<Cell> head = voqs.pop_ready(0, 1, 0);
  ASSERT_TRUE(head.has_value());
  EXPECT_EQ(head->next_hop(), 1);
  EXPECT_EQ(voqs.queued_at(0), 0u);
  EXPECT_EQ(voqs.total_queued(), 1u) << "pops defer the total";
  voqs.settle_total(1);
  EXPECT_EQ(voqs.total_queued(), 0u);
  EXPECT_FALSE(voqs.pop_ready(0, 1, 0).has_value());
}

TEST(VoqTest, ReadySlotGatesTransmission) {
  VoqSet voqs(4);
  push_at_source(voqs, 0, 1, 2, /*ready=*/5);
  EXPECT_FALSE(voqs.pop_ready(0, 1, 4).has_value());
  EXPECT_EQ(voqs.size_of(0, 1), 1u) << "a head not yet ready stays queued";
  EXPECT_TRUE(voqs.pop_ready(0, 1, 5).has_value());
  EXPECT_EQ(voqs.size_of(0, 1), 0u);
}

TEST(VoqTest, FifoOrderWithinQueue) {
  VoqSet voqs(4);
  voqs.push(0, make_cell(0, 1, 2, 0, /*flow=*/10));
  voqs.push(0, make_cell(0, 1, 3, 0, /*flow=*/20));
  EXPECT_EQ(voqs.pop_ready(0, 1, 0)->flow(), 10u);
  EXPECT_EQ(voqs.pop_ready(0, 1, 0)->flow(), 20u);
}

TEST(VoqTest, QueuesAreSeparatedByNextHop) {
  VoqSet voqs(4);
  push_at_source(voqs, 0, 1, 2);
  push_at_source(voqs, 0, 2, 3);
  EXPECT_EQ(voqs.size_of(0, 1), 1u);
  EXPECT_EQ(voqs.size_of(0, 2), 1u);
  EXPECT_EQ(voqs.queued_at(0), 2u);
  EXPECT_FALSE(voqs.pop_ready(0, 3, 0).has_value());
  EXPECT_EQ(voqs.pop_ready(0, 2, 0)->next_hop(), 2);
  EXPECT_EQ(voqs.pop_ready(0, 1, 0)->next_hop(), 1);
}

TEST(VoqTest, MaxQueueDepth) {
  VoqSet voqs(4);
  for (int i = 0; i < 5; ++i) push_at_source(voqs, 0, 1, 2);
  push_at_source(voqs, 1, 2, 3);
  EXPECT_EQ(voqs.max_queue_depth(), 5u);
}

TEST(VoqTest, MaxQueueDepthTracksPushPopDropSequence) {
  // Pins the depth gauge across a mixed push / pop / refused-push
  // sequence: the sparse layout computes it from occupied queues only, and
  // it must match the dense layout's full-scan answer at every step.
  VoqSet voqs(4);
  EXPECT_EQ(voqs.max_queue_depth(), 0u);

  for (int i = 0; i < 3; ++i) push_at_source(voqs, 0, 1, 2);
  EXPECT_EQ(voqs.max_queue_depth(), 3u);

  // A second, deeper queue takes over the max.
  for (int i = 0; i < 6; ++i) push_at_source(voqs, 2, 3, 1);
  EXPECT_EQ(voqs.max_queue_depth(), 6u);

  // A refused push (tail-drop at a cap of 6: the network reads the depth
  // from find() and never pushes) must not move the gauge.
  EXPECT_EQ(voqs.find(2, 3).size, 6u);
  EXPECT_EQ(voqs.max_queue_depth(), 6u);

  // Draining the deep queue hands the max back to the shallow one.
  for (int i = 0; i < 6; ++i) ASSERT_TRUE(voqs.pop_ready(2, 3, 0));
  EXPECT_EQ(voqs.max_queue_depth(), 3u);

  // Draining everything returns the gauge to zero.
  for (int i = 0; i < 3; ++i) ASSERT_TRUE(voqs.pop_ready(0, 1, 0));
  EXPECT_EQ(voqs.max_queue_depth(), 0u);
  voqs.settle_total(9);
  EXPECT_EQ(voqs.total_queued(), 0u);
}

TEST(VoqTest, SizeOfUnmaterializedQueueIsZero) {
  VoqSet voqs(4);
  // Never-touched queue: no entry exists, size must read as 0 (the merge
  // phase's capacity check relies on this).
  EXPECT_EQ(voqs.size_of(1, 3), 0u);
  push_at_source(voqs, 1, 3, 2);
  EXPECT_EQ(voqs.size_of(1, 3), 1u);
  // Drained queue: the sparse entry is erased, not left empty.
  ASSERT_TRUE(voqs.pop_ready(1, 3, 0));
  EXPECT_EQ(voqs.size_of(1, 3), 0u);
  EXPECT_EQ(voqs.occupied_queues(), 0u);
}

TEST(VoqTest, OccupiedQueuesTracksLiveFanOut) {
  VoqSet voqs(8);
  EXPECT_EQ(voqs.occupied_queues(), 0u);
  push_at_source(voqs, 0, 1, 2);
  push_at_source(voqs, 0, 1, 3);  // same (0, 1) queue
  push_at_source(voqs, 0, 5, 3);
  push_at_source(voqs, 4, 2, 6);
  EXPECT_EQ(voqs.occupied_queues(), 3u);
  ASSERT_TRUE(voqs.pop_ready(0, 1, 0));
  EXPECT_EQ(voqs.occupied_queues(), 3u) << "one cell left in (0, 1)";
  ASSERT_TRUE(voqs.pop_ready(0, 1, 0));
  EXPECT_EQ(voqs.occupied_queues(), 2u) << "(0, 1) drained and erased";
  ASSERT_TRUE(voqs.pop_ready(0, 5, 0));
  ASSERT_TRUE(voqs.pop_ready(4, 2, 0));
  EXPECT_EQ(voqs.occupied_queues(), 0u);
}

TEST(VoqTest, ShardedPopsSettleIntoTotal) {
  // The engine's contract: pop_ready leaves total_queued untouched
  // (shards may not write shared state) and the coordinator settles the
  // sum once per slot, at any thread count.
  VoqSet voqs(4);
  push_at_source(voqs, 0, 1, 2);
  push_at_source(voqs, 2, 3, 1);
  ASSERT_TRUE(voqs.pop_ready(0, 1, 0));
  ASSERT_TRUE(voqs.pop_ready(2, 3, 0));
  EXPECT_EQ(voqs.total_queued(), 2u) << "pops defer the total";
  EXPECT_EQ(voqs.queued_at(0), 0u) << "per-node state settles immediately";
  EXPECT_EQ(voqs.queued_at(2), 0u);
  voqs.settle_total(2);
  EXPECT_EQ(voqs.total_queued(), 0u);
}

TEST(VoqTest, RejectsDeliveredCell) {
  VoqSet voqs(4);
  Cell c = make_cell(0, 1, 2, 0);
  c.advance();
  c.advance();  // already at destination
  EXPECT_DEATH(voqs.push(2, c), "delivered");
  EXPECT_DEATH(voqs.push(2, voqs.find(2, 0), c), "delivered");
}

TEST(VoqTest, PopReadyFromEmptyQueueTakesNothing) {
  VoqSet voqs(2);
  const std::uint64_t bytes = voqs.memory_bytes();
  EXPECT_FALSE(voqs.pop_ready(0, 1, 0).has_value());
  EXPECT_EQ(voqs.occupied_queues(), 0u);
  EXPECT_EQ(voqs.queued_at(0), 0u);
  EXPECT_EQ(voqs.memory_bytes(), bytes);
}

TEST(VoqTest, PushThroughAStaleQueueRefAborts) {
  // A QueueRef is valid until the node's queues change; a push through
  // one taken before another push to the same queue is caught, not
  // linked into the wrong FIFO.
  VoqSet voqs(4);
  push_at_source(voqs, 0, 1, 2);
  const VoqSet::QueueRef stale = voqs.find(0, 1);
  push_at_source(voqs, 0, 1, 2);
  EXPECT_DEATH(voqs.push(0, stale, make_cell(0, 1, 2, 0)), "stale");
}

TEST(VoqTest, CellFieldsRoundTripAtTheirLimits) {
  // Every packed field at its limit survives a push and a pop: the
  // largest node id, seq and slot, and the largest storable flow id next
  // to kNoFlow and 0.
  const NodeId last = Cell::kMaxNodes - 1;
  EXPECT_EQ(last, 65535);
  VoqSet voqs(Cell::kMaxNodes);
  for (const FlowId flow : {Cell::kMaxFlow, kNoFlow, FlowId{0}}) {
    Cell cell(flow, ~std::uint32_t{0}, Path::of({0, last, last - 1}),
              Cell::kMaxSlot);
    cell.mark_ecn();
    voqs.push(0, cell);
    const std::optional<Cell> out = voqs.pop_ready(0, last, Cell::kMaxSlot);
    ASSERT_TRUE(out.has_value());
    voqs.settle_total(1);
    EXPECT_EQ(out->flow(), flow);
    EXPECT_EQ(out->seq(), 4294967295u);
    EXPECT_EQ(out->inject_slot(), Slot{4294967295});
    EXPECT_EQ(out->ready_slot(), Slot{4294967295});
    EXPECT_EQ(out->hop(), 0);
    EXPECT_EQ(out->hop_count(), 2);
    EXPECT_EQ(out->next_hop(), last);
    EXPECT_EQ(out->dst(), last - 1);
    EXPECT_TRUE(out->ecn());
  }
}

TEST(VoqTest, CellRejectsValuesItCannotStore) {
  // Every limit is asserted where the value enters; nothing truncates.
  const Path path = Path::of({0, 1});
  EXPECT_DEATH((void)Cell(Cell::kMaxFlow + 1, 0, path, 0), "flow id");
  EXPECT_DEATH((void)Cell(FlowId{1} << 32, 0, path, 0), "flow id");
  EXPECT_DEATH((void)Cell(1, 0, path, Cell::kMaxSlot + 1), "slot");
  EXPECT_DEATH((void)Cell(1, 0, Path::of({0, Cell::kMaxNodes}), 0),
               "node id");
  Cell cell(1, 0, path, Cell::kMaxSlot);
  EXPECT_DEATH(cell.set_ready_slot(Cell::kMaxSlot + 1), "slot");
  EXPECT_DEATH(cell.set_ready_slot(-1), "slot");

  // The same checks guard the network's entry points.
  const CircuitSchedule schedule = ScheduleBuilder::round_robin(4);
  const DirectRouter router;
  SlottedNetwork net(&schedule, &router, NetworkConfig{});
  net.inject_flow(Cell::kMaxFlow, 0, 1, 256);
  EXPECT_EQ(net.cells_in_flight(), 1u);
  EXPECT_DEATH(net.inject_flow(Cell::kMaxFlow + 1, 0, 1, 256), "flow id");
  EXPECT_DEATH(
      {
        const CircuitSchedule big =
            ScheduleBuilder::round_robin(Cell::kMaxNodes + 1);
        SlottedNetwork too_big(&big, &router, NetworkConfig{});
      },
      "16 bits");
}

// --- Slab storage: adversarial interleaves, slot reuse, memory pins. ---

// Queue a cell at `node` headed for `hop`, tagged with `stamp` so FIFO
// order can be checked against a model.
void push_stamp(VoqSet& voqs, NodeId node, NodeId hop, std::uint64_t stamp) {
  voqs.push(node, make_cell(node, hop, node, 0, stamp));
}

// Pop the head of (node, hop), returning its stamp, and settle the total.
std::uint64_t pop_stamp(VoqSet& voqs, NodeId node, NodeId hop) {
  const std::optional<Cell> head = voqs.pop_ready(node, hop, 0);
  EXPECT_TRUE(head.has_value());
  if (!head) return ~0ull;
  voqs.settle_total(1);
  return head->flow();
}

TEST(VoqTest, SeededInterleaveMatchesDequeModel) {
  // The merge phase's shape: many next hops at a few nodes, pushes and
  // pops interleaved in a seeded adversarial order, queues drained to
  // empty (their table entry erased) and re-created, checked against
  // std::deque references at every step. The hop set holds 41 adjacent
  // hops.
  constexpr NodeId kNodes = 3;
  std::vector<NodeId> hops;
  for (NodeId h = kNodes; h < kNodes + 41; ++h) hops.push_back(h);
  VoqSet voqs(*std::max_element(hops.begin(), hops.end()) + 1);
  std::map<std::pair<NodeId, NodeId>, std::deque<std::uint64_t>> model;
  Rng rng(1234);
  std::uint64_t stamp = 0;
  std::uint64_t total = 0;
  int recreated = 0;
  for (int step = 0; step < 30000; ++step) {
    const auto node = static_cast<NodeId>(rng.next_below(kNodes));
    const NodeId hop = hops[rng.next_below(hops.size())];
    const bool fresh = model.count({node, hop}) == 0;
    std::deque<std::uint64_t>& q = model[{node, hop}];
    // Every 1000 steps the biased walk flips to pop-heavy so whole nodes
    // drain, then refill through recycled slots.
    const bool pop_heavy = (step / 1000) % 2 == 1;
    const bool push = q.empty() || rng.next_below(100) < (pop_heavy ? 30 : 60);
    if (push) {
      if (q.empty()) {
        // No queue toward this hop: a pop takes nothing.
        ASSERT_FALSE(voqs.pop_ready(node, hop, 0).has_value())
            << "step " << step;
        if (!fresh) ++recreated;
      }
      push_stamp(voqs, node, hop, stamp);
      q.push_back(stamp++);
      ++total;
    } else {
      ASSERT_EQ(pop_stamp(voqs, node, hop), q.front()) << "step " << step;
      q.pop_front();
      --total;
    }
    ASSERT_EQ(voqs.size_of(node, hop), q.size()) << "step " << step;
    ASSERT_EQ(voqs.total_queued(), total);
    std::uint64_t at_node = 0, occupied = 0;
    for (const auto& [key, cells] : model) {
      if (key.first == node) at_node += cells.size();
      occupied += cells.empty() ? 0 : 1;
    }
    ASSERT_EQ(voqs.queued_at(node), at_node) << "step " << step;
    ASSERT_EQ(voqs.occupied_queues(), occupied) << "step " << step;
  }
  EXPECT_GT(recreated, 100) << "the walk must re-create drained queues";
  // Drain everything; order must survive the churn.
  for (auto& [key, cells] : model) {
    while (!cells.empty()) {
      ASSERT_EQ(pop_stamp(voqs, key.first, key.second), cells.front());
      cells.pop_front();
    }
  }
  EXPECT_EQ(voqs.total_queued(), 0u);
  EXPECT_EQ(voqs.occupied_queues(), 0u);
}

// Home entry of `hop` in a node's table of 2^bits entries: the top bits
// of the hop's Fibonacci hash (sim/voq.h).
std::uint32_t home_of(NodeId hop, int bits) {
  return static_cast<std::uint32_t>(
      (static_cast<std::uint64_t>(hop) * 0x9E3779B97F4A7C15ULL) >>
      (64 - bits));
}

TEST(VoqTest, CollidingHopsWrapAndShiftBackAgainstDequeModel) {
  // Eight hops whose hashes share their top four bits share the last
  // home entry in every table up to 16 entries, so their probe run wraps
  // past the end to the front, where four hops homed at entries 0 and 1
  // sit; two more are homed one entry before the end, so an erase there
  // must not pull a wrapped entry in front of its home. Fourteen queues
  // fill a 16-entry table to 7/8. A seeded walk grows the table
  // (4 -> 8 -> 16) while it pushes and pops, then a drain that always
  // empties the queue in the last entry makes each erase shift the
  // wrapped entries back across the end. Every step is checked against
  // std::deque references.
  constexpr NodeId kNodes = 1 << 12;
  std::vector<NodeId> hops;    // the fourteen
  std::vector<NodeId> absent;  // homed at 15 or 0, never pushed
  std::map<std::uint32_t, int> wanted = {{15, 8}, {14, 2}, {0, 2}, {1, 2}};
  for (NodeId h = 1; h < kNodes; ++h) {
    const std::uint32_t home = home_of(h, 4);
    const auto it = wanted.find(home);
    if (it != wanted.end() && it->second > 0) {
      --it->second;
      hops.push_back(h);
    } else if ((home == 15 || home == 0) && absent.size() < 6) {
      absent.push_back(h);
    }
  }
  ASSERT_EQ(hops.size(), 14u);
  ASSERT_EQ(absent.size(), 6u);
  VoqSet voqs(kNodes);
  // The hash the test derives homes from is the one the table uses: a
  // lone queue sits at its home in the first, 4-entry table.
  push_stamp(voqs, 0, hops[0], 0);
  ASSERT_EQ(voqs.find(0, hops[0]).index, home_of(hops[0], 2));
  ASSERT_EQ(pop_stamp(voqs, 0, hops[0]), 0u);

  std::map<NodeId, std::deque<std::uint64_t>> model;
  std::uint64_t stamp = 1, total = 0;
  auto check_all = [&](int step) {
    std::uint64_t occupied = 0;
    for (const NodeId hop : hops) {
      ASSERT_EQ(voqs.size_of(0, hop), model[hop].size())
          << "hop " << hop << " step " << step;
      occupied += model[hop].empty() ? 0 : 1;
    }
    ASSERT_EQ(voqs.occupied_queues(), occupied) << "step " << step;
    ASSERT_EQ(voqs.queued_at(0), total) << "step " << step;
    ASSERT_EQ(voqs.total_queued(), total) << "step " << step;
  };
  auto pop_model = [&](NodeId hop, int step) {
    ASSERT_EQ(pop_stamp(voqs, 0, hop), model[hop].front()) << "step " << step;
    model[hop].pop_front();
    --total;
    check_all(step);
  };
  Rng rng(99);
  std::uint64_t most_occupied = 0;
  for (int step = 0; step < 4000; ++step) {
    const NodeId hop = hops[rng.next_below(hops.size())];
    std::deque<std::uint64_t>& q = model[hop];
    const bool pop_heavy = (step / 400) % 2 == 1;
    if (q.empty() || rng.next_below(100) < (pop_heavy ? 35 : 65)) {
      push_stamp(voqs, 0, hop, stamp);
      q.push_back(stamp++);
      ++total;
      check_all(step);
    } else {
      pop_model(hop, step);
    }
    most_occupied = std::max(most_occupied, voqs.occupied_queues());
  }
  ASSERT_EQ(most_occupied, 14u) << "the walk must fill the table to 7/8";

  // Every queue holds a cell: the table is 7/8 full (it never shrinks).
  for (const NodeId hop : hops) {
    if (model[hop].empty()) {
      push_stamp(voqs, 0, hop, stamp);
      model[hop].push_back(stamp++);
      ++total;
    }
  }
  check_all(-1);
  for (const NodeId hop : hops) ASSERT_LT(voqs.find(0, hop).index, 16u);
  // Absent hops homed last probe the whole wrapped run; none changes
  // anything.
  const std::uint64_t bytes = voqs.memory_bytes();
  for (const NodeId hop : absent) {
    EXPECT_EQ(voqs.find(0, hop).size, 0u) << hop;
    EXPECT_FALSE(voqs.pop_ready(0, hop, 0).has_value()) << hop;
    EXPECT_EQ(voqs.memory_bytes(), bytes);
    check_all(-2);
  }

  // Drain the queue in the last entry while there is one: each erase
  // there shifts the run that wrapped to the front back across the end.
  int wrapped_back = 0;
  for (;;) {
    NodeId last = kNoNode;
    std::map<NodeId, std::uint32_t> before;
    for (const NodeId hop : hops) {
      if (model[hop].empty()) continue;
      before[hop] = voqs.find(0, hop).index;
      if (before[hop] == 15) last = hop;
    }
    if (last == kNoNode) break;
    while (!model[last].empty()) pop_model(last, -3);
    for (const auto& [hop, index] : before)
      if (hop != last && index < 15 && voqs.find(0, hop).index == 15)
        ++wrapped_back;
  }
  EXPECT_GE(wrapped_back, 7) << "erases must shift entries across the end";
  for (const NodeId hop : hops)
    while (!model[hop].empty()) pop_model(hop, -4);
  EXPECT_EQ(voqs.occupied_queues(), 0u);
  EXPECT_EQ(voqs.memory_bytes(), bytes) << "neither table nor slab shrinks";
}

TEST(VoqTest, PopTowardAnAbsentHopChangesNothing) {
  // Absent hops below and above the present ones, at a node with queues
  // and at one without, leave every count, depth and byte as it was.
  VoqSet voqs(10);
  for (NodeId hop = 5; hop < 9; ++hop)
    for (std::uint64_t i = 0; i < 3; ++i) push_stamp(voqs, 0, hop, i);
  const std::uint64_t bytes = voqs.memory_bytes();
  for (const NodeId absent : {NodeId{1}, NodeId{2}, NodeId{9}}) {
    EXPECT_FALSE(voqs.pop_ready(0, absent, 0).has_value()) << absent;
    EXPECT_FALSE(voqs.pop_ready(1, absent, 0).has_value()) << absent;
    EXPECT_EQ(voqs.queued_at(0), 12u);
    EXPECT_EQ(voqs.total_queued(), 12u);
    EXPECT_EQ(voqs.occupied_queues(), 4u);
    EXPECT_EQ(voqs.size_of(0, absent), 0u);
    EXPECT_EQ(voqs.memory_bytes(), bytes);
  }
  for (NodeId hop = 5; hop < 9; ++hop) EXPECT_EQ(voqs.size_of(0, hop), 3u);
}

TEST(VoqTest, DrainedQueueIsErasedAndRecreated) {
  // Drain to empty at every depth from 1 to 16: the entry is erased each
  // time and the next push re-creates the queue with fresh head and tail.
  VoqSet voqs(4);
  std::uint64_t stamp = 0;
  for (std::uint64_t depth = 1; depth <= 16; ++depth) {
    const std::uint64_t first = stamp;
    for (std::uint64_t i = 0; i < depth; ++i) push_stamp(voqs, 0, 1, stamp++);
    EXPECT_EQ(voqs.size_of(0, 1), depth);
    for (std::uint64_t i = 0; i < depth; ++i)
      ASSERT_EQ(pop_stamp(voqs, 0, 1), first + i);
    ASSERT_EQ(voqs.size_of(0, 1), 0u);
    ASSERT_EQ(voqs.occupied_queues(), 0u) << "depth " << depth;
    ASSERT_FALSE(voqs.pop_ready(0, 1, 0).has_value());
  }
}

TEST(VoqTest, FreedSlotsAreReusedBeforeSlabGrows) {
  VoqSet voqs(8);
  push_stamp(voqs, 0, 1, 10);
  push_stamp(voqs, 0, 2, 20);
  const std::uint64_t two_slots = voqs.memory_bytes();
  EXPECT_EQ(pop_stamp(voqs, 0, 1), 10u);
  EXPECT_EQ(pop_stamp(voqs, 0, 2), 20u);
  // The slab holds exactly two slots; both freed slots come back before
  // it grows.
  push_stamp(voqs, 0, 3, 30);
  push_stamp(voqs, 0, 4, 40);
  EXPECT_EQ(voqs.memory_bytes(), two_slots);
  EXPECT_EQ(pop_stamp(voqs, 0, 3), 30u);
  EXPECT_EQ(pop_stamp(voqs, 0, 4), 40u);
}

TEST(VoqTest, FillDrainCyclesKeepMemoryBytes) {
  // The drain-then-refill pin: once a node's slab has held a burst, every
  // later burst of the same size reuses its slots — steady state
  // allocates nothing.
  VoqSet voqs(16);
  auto burst = [&](std::uint64_t base) {
    for (std::uint64_t i = 0; i < 96; ++i)
      push_stamp(voqs, 0, static_cast<NodeId>(1 + i % 12), base + i);
    for (NodeId hop = 1; hop <= 12; ++hop)
      while (voqs.size_of(0, hop) > 0) pop_stamp(voqs, 0, hop);
  };
  burst(0);
  const std::uint64_t warm = voqs.memory_bytes();
  for (int cycle = 1; cycle <= 50; ++cycle) {
    burst(static_cast<std::uint64_t>(cycle) * 1000);
    ASSERT_EQ(voqs.memory_bytes(), warm) << "cycle " << cycle;
  }
}

TEST(VoqTest, SteadyStateChurnAllocatesNothingNew) {
  // Bounded-depth churn: every push is matched by a pop, so the FIFO
  // rolls forward through recycled slots only.
  VoqSet voqs(4);
  std::uint64_t stamp = 0, head = 0;
  for (int i = 0; i < 8; ++i) push_stamp(voqs, 0, 1, stamp++);
  // Warm up: the rolling FIFO holds one cell more than its depth between
  // a push and the matching pop.
  push_stamp(voqs, 0, 1, stamp++);
  ASSERT_EQ(pop_stamp(voqs, 0, 1), head++);
  const std::uint64_t warm = voqs.memory_bytes();
  for (int round = 0; round < 1000; ++round) {
    push_stamp(voqs, 0, 1, stamp++);
    ASSERT_EQ(pop_stamp(voqs, 0, 1), head++);
  }
  EXPECT_EQ(voqs.memory_bytes(), warm);
  EXPECT_EQ(voqs.size_of(0, 1), 8u);
}

TEST(VoqTest, DrainedNodeReusesItsWholeSlab) {
  // Fill many queues of one node, drain the node completely, then refill
  // it toward different next hops: every slot returns to the free list,
  // so the refill fits in the old storage and keeps FIFO order.
  VoqSet voqs(64);
  for (std::uint64_t i = 0; i < 200; ++i)
    push_stamp(voqs, 5, static_cast<NodeId>(10 + i % 20), i);
  for (NodeId hop = 10; hop < 30; ++hop)
    while (voqs.size_of(5, hop) > 0) pop_stamp(voqs, 5, hop);
  EXPECT_EQ(voqs.queued_at(5), 0u);
  const std::uint64_t drained = voqs.memory_bytes();
  for (std::uint64_t i = 0; i < 200; ++i)
    push_stamp(voqs, 5, static_cast<NodeId>(40 + i % 10), 1000 + i);
  EXPECT_EQ(voqs.memory_bytes(), drained);
  for (std::uint64_t i = 0; i < 20; ++i)
    for (NodeId hop = 40; hop < 50; ++hop)
      ASSERT_EQ(pop_stamp(voqs, 5, hop),
                1000 + i * 10 + static_cast<std::uint64_t>(hop - 40));
}

TEST(VoqTest, DeepQueueKeepsFifoOrder) {
  // 1024 cells in one queue whose links interleave with a second queue at
  // the same node, so consecutive cells never sit in adjacent slots.
  VoqSet voqs(4);
  for (std::uint64_t i = 0; i < 1024; ++i) {
    push_stamp(voqs, 0, 1, i);
    push_stamp(voqs, 0, 2, 5000 + i);
  }
  EXPECT_EQ(voqs.max_queue_depth(), 1024u);
  for (std::uint64_t i = 0; i < 1024; ++i) {
    ASSERT_EQ(pop_stamp(voqs, 0, 1), i);
    if (i % 2 == 0) push_stamp(voqs, 0, 2, 9000 + i);
  }
  for (std::uint64_t i = 0; i < 1024; ++i)
    ASSERT_EQ(pop_stamp(voqs, 0, 2), 5000 + i);
  for (std::uint64_t i = 0; i < 1024; i += 2)
    ASSERT_EQ(pop_stamp(voqs, 0, 2), 9000 + i);
  EXPECT_EQ(voqs.queued_at(0), 0u);
}

TEST(VoqTest, IndexInsertKeepsOtherQueuesIntact) {
  // New next hops inserted around an existing queue double the node's
  // table three times (4 -> 32 entries), re-inserting every entry; the
  // moved queues must keep their heads, tails and sizes.
  VoqSet voqs(32);
  for (std::uint64_t i = 0; i < 5; ++i) push_stamp(voqs, 0, 20, i);
  for (NodeId hop = 19; hop >= 1; --hop) push_stamp(voqs, 0, hop, 100u + hop);
  push_stamp(voqs, 0, 20, 5);
  EXPECT_EQ(voqs.size_of(0, 20), 6u);
  for (NodeId hop = 1; hop < 20; ++hop)
    EXPECT_EQ(pop_stamp(voqs, 0, hop), 100u + hop);
  for (std::uint64_t i = 0; i < 6; ++i) EXPECT_EQ(pop_stamp(voqs, 0, 20), i);
}

TEST(VoqTest, SlabGrowsByAQuarter) {
  // Slab and links grow to capacity + capacity / 4 + 1, so one deep queue
  // costs the smallest table (4 entries of 16 bytes) plus at most a
  // quarter of slack per slot.
  VoqSet voqs(4);
  const std::uint64_t fixed = voqs.memory_bytes();
  const std::uint64_t slot_bytes = sizeof(Cell) + sizeof(std::uint32_t);
  std::uint64_t capacity = 0;
  for (std::uint64_t cells = 1; cells <= 5000; ++cells) {
    push_stamp(voqs, 0, 1, cells);
    if (cells > capacity) capacity += capacity / 4 + 1;
    ASSERT_EQ(voqs.memory_bytes() - fixed, 4 * 16 + capacity * slot_bytes)
        << cells << " cells";
  }
  EXPECT_LE(capacity, 5000 + 5000 / 4 + 1);
}

TEST(VoqTest, OneCellQueuesCostNoChunkSlack) {
  // K one-cell queues cost at most 2 * K * (cell slot + link + table
  // entry) on top of the per-node fixed cost: the slab grows by a quarter,
  // a node's 50 queues take a 64-entry table, and nothing is reserved per
  // queue beyond its entry.
  constexpr NodeId kNodes = 256;
  VoqSet voqs(kNodes);
  const std::uint64_t fixed = voqs.memory_bytes();
  std::uint64_t k = 0;
  for (NodeId node = 0; node < 4; ++node) {
    for (NodeId hop = 8; hop < 8 + 50; ++hop) {
      push_stamp(voqs, node, hop, k++);
    }
  }
  ASSERT_EQ(voqs.occupied_queues(), k);
  EXPECT_LE(voqs.memory_bytes() - fixed,
            2 * k * (sizeof(Cell) + sizeof(std::uint32_t) + 16));
}

}  // namespace
}  // namespace sorn
