#include "sim/voq.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <deque>
#include <map>
#include <utility>

#include "util/rng.h"

namespace sorn {
namespace {

Cell make_cell(NodeId src, NodeId via, NodeId dst, Slot ready) {
  Cell c;
  c.flow = 1;
  c.path = Path::of({src, via, dst});
  c.hop = 0;
  c.inject_slot = 0;
  c.ready_slot = ready;
  return c;
}

TEST(VoqTest, PushPeekPop) {
  VoqSet voqs(4);
  voqs.push(make_cell(0, 1, 2, 0));
  EXPECT_EQ(voqs.total_queued(), 1u);
  EXPECT_EQ(voqs.queued_at(0), 1u);
  const Cell* head = voqs.peek(0, 1, 0);
  ASSERT_NE(head, nullptr);
  EXPECT_EQ(head->next_hop(), 1);
  voqs.pop(0, 1);
  EXPECT_EQ(voqs.total_queued(), 1u) << "pops defer the total";
  voqs.settle_total(1);
  EXPECT_EQ(voqs.total_queued(), 0u);
  EXPECT_EQ(voqs.peek(0, 1, 0), nullptr);
}

TEST(VoqTest, ReadySlotGatesTransmission) {
  VoqSet voqs(4);
  voqs.push(make_cell(0, 1, 2, 5));
  EXPECT_EQ(voqs.peek(0, 1, 4), nullptr);
  EXPECT_NE(voqs.peek(0, 1, 5), nullptr);
}

TEST(VoqTest, FifoOrderWithinQueue) {
  VoqSet voqs(4);
  Cell a = make_cell(0, 1, 2, 0);
  a.flow = 10;
  Cell b = make_cell(0, 1, 3, 0);
  b.flow = 20;
  voqs.push(a);
  voqs.push(b);
  EXPECT_EQ(voqs.peek(0, 1, 0)->flow, 10u);
  voqs.pop(0, 1);
  EXPECT_EQ(voqs.peek(0, 1, 0)->flow, 20u);
}

TEST(VoqTest, QueuesAreSeparatedByNextHop) {
  VoqSet voqs(4);
  voqs.push(make_cell(0, 1, 2, 0));
  voqs.push(make_cell(0, 2, 3, 0));
  EXPECT_NE(voqs.peek(0, 1, 0), nullptr);
  EXPECT_NE(voqs.peek(0, 2, 0), nullptr);
  EXPECT_EQ(voqs.peek(0, 3, 0), nullptr);
  EXPECT_EQ(voqs.queued_at(0), 2u);
}

TEST(VoqTest, MaxQueueDepth) {
  VoqSet voqs(4);
  for (int i = 0; i < 5; ++i) voqs.push(make_cell(0, 1, 2, 0));
  voqs.push(make_cell(1, 2, 3, 0));
  EXPECT_EQ(voqs.max_queue_depth(), 5u);
}

TEST(VoqTest, MaxQueueDepthTracksPushPopDropSequence) {
  // Pins the depth gauge across a mixed push / pop / refused-push
  // sequence: the sparse layout computes it from occupied queues only, and
  // it must match the dense layout's full-scan answer at every step.
  VoqSet voqs(4);
  EXPECT_EQ(voqs.max_queue_depth(), 0u);

  for (int i = 0; i < 3; ++i) voqs.push(make_cell(0, 1, 2, 0));
  EXPECT_EQ(voqs.max_queue_depth(), 3u);

  // A second, deeper queue takes over the max.
  for (int i = 0; i < 6; ++i) voqs.push(make_cell(2, 3, 1, 0));
  EXPECT_EQ(voqs.max_queue_depth(), 6u);

  // A refused push (tail-drop at a cap of 6: the network checks size_of
  // and never pushes) must not move the gauge.
  EXPECT_EQ(voqs.size_of(2, 3), 6u);
  EXPECT_EQ(voqs.max_queue_depth(), 6u);

  // Draining the deep queue hands the max back to the shallow one.
  for (int i = 0; i < 6; ++i) voqs.pop(2, 3);
  EXPECT_EQ(voqs.max_queue_depth(), 3u);

  // Draining everything returns the gauge to zero.
  for (int i = 0; i < 3; ++i) voqs.pop(0, 1);
  EXPECT_EQ(voqs.max_queue_depth(), 0u);
  voqs.settle_total(9);
  EXPECT_EQ(voqs.total_queued(), 0u);
}

TEST(VoqTest, SizeOfUnmaterializedQueueIsZero) {
  VoqSet voqs(4);
  // Never-touched queue: no entry exists, size must read as 0 (the merge
  // phase's capacity check relies on this).
  EXPECT_EQ(voqs.size_of(1, 3), 0u);
  voqs.push(make_cell(1, 3, 2, 0));
  EXPECT_EQ(voqs.size_of(1, 3), 1u);
  // Drained queue: the sparse entry is erased, not left empty.
  voqs.pop(1, 3);
  EXPECT_EQ(voqs.size_of(1, 3), 0u);
  EXPECT_EQ(voqs.occupied_queues(), 0u);
}

TEST(VoqTest, OccupiedQueuesTracksLiveFanOut) {
  VoqSet voqs(8);
  EXPECT_EQ(voqs.occupied_queues(), 0u);
  voqs.push(make_cell(0, 1, 2, 0));
  voqs.push(make_cell(0, 1, 3, 0));  // same (0, 1) queue
  voqs.push(make_cell(0, 5, 3, 0));
  voqs.push(make_cell(4, 2, 6, 0));
  EXPECT_EQ(voqs.occupied_queues(), 3u);
  voqs.pop(0, 1);
  EXPECT_EQ(voqs.occupied_queues(), 3u) << "one cell left in (0, 1)";
  voqs.pop(0, 1);
  EXPECT_EQ(voqs.occupied_queues(), 2u) << "(0, 1) drained and erased";
  voqs.pop(0, 5);
  voqs.pop(4, 2);
  EXPECT_EQ(voqs.occupied_queues(), 0u);
}

TEST(VoqTest, ShardedPopsSettleIntoTotal) {
  // The engine's contract: pop leaves total_queued untouched (shards may
  // not write shared state) and the coordinator settles the sum once per
  // lane, in the sequential sweep as in the sharded one.
  VoqSet voqs(4);
  voqs.push(make_cell(0, 1, 2, 0));
  voqs.push(make_cell(2, 3, 1, 0));
  voqs.pop(0, 1);
  voqs.pop(2, 3);
  EXPECT_EQ(voqs.total_queued(), 2u) << "pops defer the total";
  EXPECT_EQ(voqs.queued_at(0), 0u) << "per-node state settles immediately";
  EXPECT_EQ(voqs.queued_at(2), 0u);
  voqs.settle_total(2);
  EXPECT_EQ(voqs.total_queued(), 0u);
}

TEST(VoqTest, RejectsDeliveredCell) {
  VoqSet voqs(4);
  Cell c = make_cell(0, 1, 2, 0);
  c.hop = 2;  // already at destination
  EXPECT_DEATH(voqs.push(c), "delivered");
}

TEST(VoqTest, PopEmptyAborts) {
  VoqSet voqs(2);
  EXPECT_DEATH(voqs.pop(0, 1), "empty");
}

// --- Slab storage: adversarial interleaves, slot reuse, memory pins. ---

// A cell at `node` headed for `hop`, tagged with `stamp` so FIFO order can
// be checked against a model.
Cell stamped(NodeId node, NodeId hop, std::uint64_t stamp) {
  Cell c = make_cell(node, hop, node, 0);
  c.flow = stamp;
  return c;
}

// Pop the head of (node, hop), returning its stamp, and settle the total.
std::uint64_t pop_stamp(VoqSet& voqs, NodeId node, NodeId hop) {
  const Cell* head = voqs.peek(node, hop, 0);
  EXPECT_NE(head, nullptr);
  const std::uint64_t stamp = head == nullptr ? ~0ull : head->flow;
  voqs.pop(node, hop);
  voqs.settle_total(1);
  return stamp;
}

TEST(VoqTest, SeededInterleaveMatchesDequeModel) {
  // The merge phase's shape: many next hops at a few nodes, pushes and
  // pops interleaved in a seeded adversarial order, queues drained to
  // empty (their index entry erased) and re-created, checked against
  // std::deque references at every step.
  constexpr NodeId kNodes = 3;
  constexpr NodeId kHops = 41;
  VoqSet voqs(kNodes + kHops);
  std::map<std::pair<NodeId, NodeId>, std::deque<std::uint64_t>> model;
  Rng rng(1234);
  std::uint64_t stamp = 0;
  std::uint64_t total = 0;
  int recreated = 0;
  for (int step = 0; step < 30000; ++step) {
    const auto node = static_cast<NodeId>(rng.next_below(kNodes));
    const auto hop = static_cast<NodeId>(kNodes + rng.next_below(kHops));
    const bool fresh = model.count({node, hop}) == 0;
    std::deque<std::uint64_t>& q = model[{node, hop}];
    // Every 1000 steps the biased walk flips to pop-heavy so whole nodes
    // drain, then refill through recycled slots.
    const bool pop_heavy = (step / 1000) % 2 == 1;
    const bool push = q.empty() || rng.next_below(100) < (pop_heavy ? 30 : 60);
    if (push) {
      if (q.empty() && !fresh) ++recreated;
      voqs.push(stamped(node, hop, stamp));
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

TEST(VoqTest, DrainedQueueIsErasedAndRecreated) {
  // Drain to empty at every depth from 1 to 16: the entry is erased each
  // time and the next push re-creates the queue with fresh head and tail.
  VoqSet voqs(4);
  std::uint64_t stamp = 0;
  for (std::uint64_t depth = 1; depth <= 16; ++depth) {
    const std::uint64_t first = stamp;
    for (std::uint64_t i = 0; i < depth; ++i) voqs.push(stamped(0, 1, stamp++));
    EXPECT_EQ(voqs.size_of(0, 1), depth);
    for (std::uint64_t i = 0; i < depth; ++i)
      ASSERT_EQ(pop_stamp(voqs, 0, 1), first + i);
    ASSERT_EQ(voqs.size_of(0, 1), 0u);
    ASSERT_EQ(voqs.occupied_queues(), 0u) << "depth " << depth;
    ASSERT_EQ(voqs.peek(0, 1, 0), nullptr);
  }
}

TEST(VoqTest, FreedSlotsAreReusedBeforeSlabGrows) {
  VoqSet voqs(8);
  voqs.push(stamped(0, 1, 10));
  voqs.push(stamped(0, 2, 20));
  const Cell* a = voqs.peek(0, 1, 0);
  const Cell* b = voqs.peek(0, 2, 0);
  voqs.pop(0, 1);
  voqs.pop(0, 2);
  // LIFO free list: the most recently freed slot comes back first, and
  // the slab does not grow (so the old addresses are still its slots).
  voqs.push(stamped(0, 3, 30));
  EXPECT_EQ(voqs.peek(0, 3, 0), b);
  voqs.push(stamped(0, 4, 40));
  EXPECT_EQ(voqs.peek(0, 4, 0), a);
  EXPECT_EQ(voqs.peek(0, 3, 0)->flow, 30u);
  EXPECT_EQ(voqs.peek(0, 4, 0)->flow, 40u);
}

TEST(VoqTest, FillDrainCyclesKeepMemoryBytes) {
  // The drain-then-refill pin: once a node's slab has held a burst, every
  // later burst of the same size reuses its slots — steady state
  // allocates nothing.
  VoqSet voqs(16);
  auto burst = [&](std::uint64_t base) {
    for (std::uint64_t i = 0; i < 96; ++i)
      voqs.push(stamped(0, static_cast<NodeId>(1 + i % 12), base + i));
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
  for (int i = 0; i < 8; ++i) voqs.push(stamped(0, 1, stamp++));
  // Warm up: the rolling FIFO holds one cell more than its depth between
  // a push and the matching pop.
  voqs.push(stamped(0, 1, stamp++));
  ASSERT_EQ(pop_stamp(voqs, 0, 1), head++);
  const std::uint64_t warm = voqs.memory_bytes();
  for (int round = 0; round < 1000; ++round) {
    voqs.push(stamped(0, 1, stamp++));
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
    voqs.push(stamped(5, static_cast<NodeId>(10 + i % 20), i));
  for (NodeId hop = 10; hop < 30; ++hop)
    while (voqs.size_of(5, hop) > 0) pop_stamp(voqs, 5, hop);
  EXPECT_EQ(voqs.queued_at(5), 0u);
  const std::uint64_t drained = voqs.memory_bytes();
  for (std::uint64_t i = 0; i < 200; ++i)
    voqs.push(stamped(5, static_cast<NodeId>(40 + i % 10), 1000 + i));
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
    voqs.push(stamped(0, 1, i));
    voqs.push(stamped(0, 2, 5000 + i));
  }
  EXPECT_EQ(voqs.max_queue_depth(), 1024u);
  for (std::uint64_t i = 0; i < 1024; ++i) {
    ASSERT_EQ(pop_stamp(voqs, 0, 1), i);
    if (i % 2 == 0) voqs.push(stamped(0, 2, 9000 + i));
  }
  for (std::uint64_t i = 0; i < 1024; ++i)
    ASSERT_EQ(pop_stamp(voqs, 0, 2), 5000 + i);
  for (std::uint64_t i = 0; i < 1024; i += 2)
    ASSERT_EQ(pop_stamp(voqs, 0, 2), 9000 + i);
  EXPECT_EQ(voqs.queued_at(0), 0u);
}

TEST(VoqTest, IndexInsertKeepsOtherQueuesIntact) {
  // New next hops inserted below existing ones shift the sorted index
  // entries; the shifted queues must keep their heads, tails and sizes.
  VoqSet voqs(32);
  for (std::uint64_t i = 0; i < 5; ++i) voqs.push(stamped(0, 20, i));
  for (NodeId hop = 19; hop >= 1; --hop) voqs.push(stamped(0, hop, 100u + hop));
  voqs.push(stamped(0, 20, 5));
  EXPECT_EQ(voqs.size_of(0, 20), 6u);
  for (NodeId hop = 1; hop < 20; ++hop)
    EXPECT_EQ(pop_stamp(voqs, 0, hop), 100u + hop);
  for (std::uint64_t i = 0; i < 6; ++i) EXPECT_EQ(pop_stamp(voqs, 0, 20), i);
}

TEST(VoqTest, OneCellQueuesCostNoChunkSlack) {
  // K one-cell queues cost at most 2 * K * (cell slot + link + index
  // entry) on top of the per-node fixed cost: vectors at most double past
  // what they hold, and nothing is reserved per queue beyond its entry.
  constexpr NodeId kNodes = 256;
  VoqSet voqs(kNodes);
  const std::uint64_t fixed = voqs.memory_bytes();
  std::uint64_t k = 0;
  for (NodeId node = 0; node < 4; ++node) {
    for (NodeId hop = 8; hop < 8 + 50; ++hop) {
      voqs.push(stamped(node, hop, k++));
    }
  }
  ASSERT_EQ(voqs.occupied_queues(), k);
  EXPECT_LE(voqs.memory_bytes() - fixed,
            2 * k * (sizeof(Cell) + sizeof(std::uint32_t) + 16));
}

}  // namespace
}  // namespace sorn
