// Per-node virtual output queues, stored sparsely.
//
// Each node keeps one FIFO per next-hop neighbor (the NIC state of the
// paper's Fig. 2c). Cells are enqueued with a ready slot; because every
// enqueue uses the same fixed delay, FIFO order coincides with ready order
// and only the head needs checking.
//
// Storage is per-node and sparse: a node owns a small sorted index of its
// *occupied* queues (next-hop -> FIFO), created on first push and erased
// when drained. Memory is O(nodes + occupied queues) instead of the dense
// N x N deque array the simulator started with — at the paper's Table-1
// scale (N = 4096) the dense layout alone was ~16.7M empty deques, several
// gigabytes of overhead before the first cell moved. total_queued() is O(1)
// and max_queue_depth() scans only occupied queues (O(active)), so
// telemetry sampling no longer pays an O(N^2) sweep per sample.
//
// Cell storage is arena-allocated (util/arena.h): each FIFO is a chain of
// fixed-size chunks drawn from a per-node ChunkPool, so steady-state push/
// pop traffic recycles chunks instead of hitting the heap, and a drained
// burst's storage is reused by the next one.
//
// Thread contract (sim/parallel.h): shards of the parallel sweep own
// disjoint node ranges and only peek()/pop() their own nodes. All state a
// pop touches — the node's queue index, its cell count, and its chunk
// pool — is per-node, so sharded pops stay race-free; the one global,
// total_, is deliberately NOT updated by pop() and is settled once per
// lane by the coordinating thread (settle_total), in both sweeps.
#pragma once

#include <cstdint>
#include <vector>

#include "sim/cell.h"
#include "util/arena.h"
#include "util/types.h"

namespace sorn {

class VoqSet {
 public:
  // Queues for `nodes` nodes, one per possible next hop, materialized
  // lazily on first use.
  explicit VoqSet(NodeId nodes);

  void push(const Cell& cell);

  // Head cell queued at `node` for `next_hop` if transmittable at `now`,
  // else nullptr. Does not pop. The pointer is valid until the next
  // mutation of this (node, next_hop) queue.
  const Cell* peek(NodeId node, NodeId next_hop, Slot now) const;
  // Remove the head cell. Per-node state only: total_queued() still
  // counts the cell until the caller settles its pops (settle_total), so
  // shards may pop their own nodes' queues concurrently.
  void pop(NodeId node, NodeId next_hop);
  void settle_total(std::uint64_t pops) { total_ -= pops; }
  // Raw FIFO depth, for the capacity check and the ECN mark. 0 when the
  // queue is not materialized.
  std::uint64_t size_of(NodeId node, NodeId next_hop) const;

  std::uint64_t queued_at(NodeId node) const {
    return nodes_[static_cast<std::size_t>(node)].count;
  }
  std::uint64_t total_queued() const { return total_; }
  // Deepest occupied FIFO; O(occupied queues), not O(N^2).
  std::uint64_t max_queue_depth() const;
  // Number of occupied (node, next-hop) queues right now; O(nodes).
  std::uint64_t occupied_queues() const;

  // Bytes of queue storage: the per-node index plus every pool chunk
  // (live and recyclable — allocator truth). O(nodes + occupied); a
  // profiler gauge (obs/prof), sampled, not a hot-path call.
  std::uint64_t memory_bytes() const;

 private:
  // Cells per pool chunk: sized so a chunk is a few cache lines (~600 B
  // at Cell's inline-path size) — shallow queues stay one-chunk, deep
  // bursts chain without large-block allocation.
  static constexpr std::size_t kChunkCells = 8;
  using CellFifo = PooledFifo<Cell, kChunkCells>;

  // One occupied queue of a node. The index stays sorted by next_hop and
  // holds only non-empty FIFOs (entries are erased when drained), so a
  // node's memory tracks its live fan-out, not the full N next hops.
  struct Voq {
    NodeId next_hop = 0;
    CellFifo fifo;
  };
  struct NodeQueues {
    std::vector<Voq> occupied;  // sorted by next_hop; every fifo non-empty
    std::uint64_t count = 0;    // cells queued at this node
    // Chunk storage for every FIFO of this node. Per-node so the shard
    // contract above covers allocator state too.
    ChunkPool<Cell, kChunkCells> pool;
  };

  // Sorted-index lookup; nullptr when (node, next_hop) is unoccupied.
  const CellFifo* find(NodeId node, NodeId next_hop) const;

  NodeId n_;
  std::vector<NodeQueues> nodes_;
  std::uint64_t total_ = 0;
};

}  // namespace sorn
