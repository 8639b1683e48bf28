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
// Cells live in one slab per node: a vector of Cell slots plus a parallel
// vector of next links. Each queue is a linked FIFO through those links
// ({head, tail, size} in the index entry), and freed slots go on a LIFO
// free list threaded through the same links, so a slot is reused before
// the slab grows and steady-state push/pop traffic allocates nothing.
// A queued cell costs its 32-byte slot plus a 4-byte link, a queue adds
// only its 16-byte index entry, and the slab keeps the node's high-water
// mark of queued cells. Slab and links grow by a quarter of their
// capacity, not by std::vector's doubling, so at most a fifth of a node's
// slab is slack beyond its high-water mark.
//
// Each transmit looks its queue up once: pop_ready() checks the head's
// ready slot and pops it through one search of the node's index, and a
// sized enqueue reads the depth from find() and pushes through the same
// QueueRef. The search is a branch-free lower bound.
//
// Most transmit opportunities find no queue: a node is matched to every
// peer in turn but queues toward a few. A 256-bit occupancy filter per
// node answers those with one bit test before any search. Bucket
// filter_bucket(h) of a node's filter is set while some occupied queue of
// the node has a next hop in that bucket: set when a queue is created,
// cleared when one is erased and no remaining index entry shares its
// bucket. So a clear bit proves the queue is absent (no false negatives);
// a set bit falls through to the search. The filters are 32 bytes per
// node, in a dense array beside the per-node state.
//
// Thread contract (sim/parallel.h): shards of the take pass own disjoint
// node ranges and only pop_ready() their own nodes. All state a pop
// touches — the node's queue index, filter, slab and free list, and its
// cell count — is per-node, so sharded pops stay race-free; the one
// global, total_, is deliberately NOT updated by pop_ready() and is
// settled once per slot by the coordinating thread (settle_total), at
// any thread count.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "sim/cell.h"
#include "util/assert.h"
#include "util/types.h"

namespace sorn {

class VoqSet {
 public:
  // Queues for `nodes` nodes, one per possible next hop, materialized
  // lazily on first use.
  explicit VoqSet(NodeId nodes);

  // A (node, next-hop) queue located once for a size check and a push:
  // its depth (0 when not materialized) and its place in the node's
  // sorted index. Valid until the node's queues next change.
  struct QueueRef {
    std::uint32_t index = 0;
    std::uint32_t size = 0;
  };
  QueueRef find(NodeId node, NodeId next_hop) const;
  // Raw FIFO depth; 0 when the queue is not materialized.
  std::uint64_t size_of(NodeId node, NodeId next_hop) const {
    return find(node, next_hop).size;
  }

  // Append `cell`, held at `node` (cells do not store their source), to
  // its next hop's queue; `queue` is that queue's find() result.
  void push(NodeId node, QueueRef queue, const Cell& cell);
  void push(NodeId node, const Cell& cell) {
    // Checked before next_hop(), which a delivered cell does not have.
    SORN_ASSERT(!cell.at_destination(), "delivered cells must not be queued");
    push(node, find(node, cell.next_hop()), cell);
  }

  // Pop and return the head cell queued at `node` for `next_hop` if it is
  // transmittable at `now`; nullopt (and no change) otherwise. Per-node
  // state only: total_queued() still counts the cell until the caller
  // settles its pops (settle_total), so shards may pop their own nodes'
  // queues concurrently. A hop whose filter bit is clear has no queue:
  // that answer costs one bit test, inlined at the caller.
  std::optional<Cell> pop_ready(NodeId node, NodeId next_hop, Slot now) {
    const std::uint32_t bucket = filter_bucket(next_hop);
    const std::uint64_t word =
        filters_[static_cast<std::size_t>(node)].words[bucket / 64];
    if ((word >> (bucket % 64) & 1) == 0) return std::nullopt;
    return pop_indexed(node, next_hop, now);
  }
  void settle_total(std::uint64_t pops) { total_ -= pops; }

  // The occupancy-filter bucket of a next hop: the top 8 bits of a
  // multiplicative (Fibonacci) hash, so hops with nearby ids spread.
  static constexpr std::uint32_t filter_bucket(NodeId next_hop) {
    return (static_cast<std::uint32_t>(next_hop) * 0x9E3779B1u) >> 24;
  }

  std::uint64_t queued_at(NodeId node) const {
    return nodes_[static_cast<std::size_t>(node)].count;
  }
  std::uint64_t total_queued() const { return total_; }
  // Deepest occupied FIFO; O(occupied queues), not O(N^2).
  std::uint64_t max_queue_depth() const;
  // Number of occupied (node, next-hop) queues right now; O(nodes).
  std::uint64_t occupied_queues() const;

  // Bytes of queue storage: the per-node index, slab and link capacity
  // (live and free-listed slots — allocator truth) and the occupancy
  // filters. O(nodes); a profiler gauge (obs/prof), sampled, not a
  // hot-path call.
  std::uint64_t memory_bytes() const;

 private:
  static constexpr std::uint32_t kNil = ~std::uint32_t{0};

  // One occupied queue of a node: a FIFO linked through the node's slab.
  // The index stays sorted by next_hop and holds only non-empty queues
  // (entries are erased when drained), so a node's memory tracks its live
  // fan-out, not the full N next hops.
  struct Voq {
    NodeId next_hop = 0;
    std::uint32_t head = kNil;
    std::uint32_t tail = kNil;
    std::uint32_t size = 0;
  };
  struct NodeQueues {
    std::vector<Voq> occupied;       // sorted by next_hop; every size > 0
    std::vector<Cell> slab;          // cell slots, live and free
    std::vector<std::uint32_t> next; // per slot: next in its FIFO or free list
    std::uint32_t free = kNil;       // head of the LIFO free list
    std::uint64_t count = 0;         // cells queued at this node
  };
  // One bit per filter_bucket; see the header comment.
  struct alignas(32) Filter {
    std::uint64_t words[4] = {0, 0, 0, 0};
  };

  // pop_ready() past a set filter bit: the index search and the pop.
  std::optional<Cell> pop_indexed(NodeId node, NodeId next_hop, Slot now);

  std::vector<NodeQueues> nodes_;
  std::vector<Filter> filters_;  // one per node, indexed like nodes_
  std::uint64_t total_ = 0;
};

}  // namespace sorn
