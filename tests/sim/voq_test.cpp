#include "sim/voq.h"

#include <gtest/gtest.h>

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

}  // namespace
}  // namespace sorn
