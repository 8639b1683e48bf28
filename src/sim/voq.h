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
// QueueRef. The search is a branch-free lower bound. The simulator asks
// only about queues that exist or just drained: its wake lists
// (sim/network.h) name the occupied queues whose circuit is up, so a
// transmit toward a hop with no queue is not attempted at all.
//
// Pop accounting: pop_ready() touches only the popping node's state —
// its queue index, slab, free list and cell count. The one global,
// total_, is deliberately NOT updated by pop_ready(): the take pass
// counts its pops and the network settles them once per slot, after the
// apply pass (settle_total).
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
  // settles its pops (settle_total). Inline: the take pass calls it once
  // per visit.
  std::optional<Cell> pop_ready(NodeId node, NodeId next_hop, Slot now) {
    NodeQueues& nq = nodes_[static_cast<std::size_t>(node)];
    const std::uint32_t pos = lower(nq.occupied, next_hop);
    if (pos == nq.occupied.size() || nq.occupied[pos].next_hop != next_hop)
      return std::nullopt;
    const auto it = nq.occupied.begin() + pos;
    const std::uint32_t slot = it->head;
    if (nq.slab[slot].ready_slot() > now) return std::nullopt;
    it->head = nq.next[slot];
    nq.next[slot] = nq.free;
    nq.free = slot;
    if (--it->size == 0) nq.occupied.erase(it);
    --nq.count;
    // A freed slot keeps its cell until the next push to this node.
    return nq.slab[slot];
  }
  void settle_total(std::uint64_t pops) { total_ -= pops; }

  // Call fn(next_hop) for each occupied queue of `node`, ascending.
  template <typename Fn>
  void for_each_queue(NodeId node, Fn&& fn) const {
    for (const Voq& v : nodes_[static_cast<std::size_t>(node)].occupied)
      fn(v.next_hop);
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
  // (live and free-listed slots — allocator truth). O(nodes); a profiler
  // gauge (obs/prof), sampled, not a hot-path call.
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

  // Position of the first index entry whose next hop is not below `hop`.
  // Branch-free: each halving step is a conditional add, so the search
  // costs the same whatever the hop, with no mispredicted branches.
  static std::uint32_t lower(const std::vector<Voq>& index, NodeId hop) {
    if (index.empty()) return 0;
    const Voq* base = index.data();
    std::size_t n = index.size();
    while (n > 1) {
      const std::size_t half = n / 2;
      base += base[half].next_hop < hop ? half : 0;
      n -= half;
    }
    return static_cast<std::uint32_t>(base - index.data()) +
           (base->next_hop < hop ? 1u : 0u);
  }

  std::vector<NodeQueues> nodes_;
  std::uint64_t total_ = 0;
};

}  // namespace sorn
