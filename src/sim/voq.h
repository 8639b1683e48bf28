// Per-node virtual output queues, stored sparsely.
//
// Each node keeps one FIFO per next-hop neighbor (the NIC state of the
// paper's Fig. 2c). Cells are enqueued with a ready slot; because every
// enqueue uses the same fixed delay, FIFO order coincides with ready order
// and only the head needs checking.
//
// Storage is per-node and sparse: a node owns a small hash table of its
// *occupied* queues (next-hop -> FIFO), an entry created on first push and
// erased when drained. Memory is O(nodes + occupied queues) instead of the
// dense N x N deque array the simulator started with — at the paper's
// Table-1 scale (N = 4096) the dense layout alone was ~16.7M empty deques,
// several gigabytes of overhead before the first cell moved. total_queued()
// is O(1) and max_queue_depth() scans only the tables (O(active)), so
// telemetry sampling no longer pays an O(N^2) sweep per sample.
//
// The table is open-addressed: 16-byte entries {next_hop, head, tail,
// size}, an empty entry reading size 0, probed linearly from the Fibonacci
// hash of the hop. Its capacity is a power of two, 4 at a node's first
// push, doubled when an insert would pass 7/8 load and never shrunk (like
// the slab, it keeps the node's high-water mark). A drained queue's entry
// is erased by backward shift — each later entry of its probe run moves
// into the hole if its home allows — so there are no tombstones and a
// lookup stops at the first empty entry.
//
// Cells live in one slab per node: a vector of Cell slots plus a parallel
// vector of next links. Each queue is a linked FIFO through those links
// ({head, tail, size} in the table entry), and freed slots go on a LIFO
// free list threaded through the same links, so a slot is reused before
// the slab grows and steady-state push/pop traffic allocates nothing.
// A queued cell costs its 32-byte slot plus a 4-byte link. A table costs
// 16 bytes per entry: at a node's peak fan-out of q >= 4 queues it holds
// between 8q/7 and 16q/7 entries (18 to 37 bytes per queue), and fewer
// queues share the first, 64-byte table. Slab and links grow by a quarter
// of their capacity, not by std::vector's doubling, so at most a fifth of
// a node's slab is slack beyond its high-water mark.
//
// Each transmit looks its queue up once: pop_ready() checks the head's
// ready slot and pops it through one probe of the node's table, and a
// sized enqueue reads the depth from find() and pushes through the same
// QueueRef. The simulator asks only about queues that exist or just
// drained: its wake lists (sim/network.h) name the occupied queues whose
// circuit is up, so a transmit toward a hop with no queue is not
// attempted at all.
//
// Pop accounting: pop_ready() touches only the popping node's state —
// its queue table, slab, free list and cell count. The one global,
// total_, is deliberately NOT updated by pop_ready(): the take pass
// counts its pops and the network settles them once per slot, after the
// apply pass (settle_total).
#pragma once

#include <bit>
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
  // its depth (0 when not materialized) and its position in the node's
  // table — for an absent hop, the empty entry where it would go. Valid
  // until the node's queues next change.
  struct QueueRef {
    std::uint32_t index = 0;
    std::uint32_t size = 0;
  };
  QueueRef find(NodeId node, NodeId next_hop) const {
    const std::vector<Voq>& table =
        nodes_[static_cast<std::size_t>(node)].table;
    if (table.empty()) return {};
    const std::uint32_t pos = probe(table, next_hop);
    return {pos, table[pos].size};
  }
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
    if (nq.table.empty()) return std::nullopt;
    const std::uint32_t pos = probe(nq.table, next_hop);
    Voq& q = nq.table[pos];
    if (q.size == 0) return std::nullopt;
    const std::uint32_t slot = q.head;
    if (nq.slab[slot].ready_slot() > now) return std::nullopt;
    q.head = nq.next[slot];
    nq.next[slot] = nq.free;
    nq.free = slot;
    if (--q.size == 0) erase(nq, pos);
    --nq.count;
    // A freed slot keeps its cell until the next push to this node.
    return nq.slab[slot];
  }
  void settle_total(std::uint64_t pops) { total_ -= pops; }

  // Call fn(next_hop) for each occupied queue of `node`, in table order
  // (which follows the hops' hashes, not their values).
  template <typename Fn>
  void for_each_queue(NodeId node, Fn&& fn) const {
    for (const Voq& v : nodes_[static_cast<std::size_t>(node)].table)
      if (v.size != 0) fn(v.next_hop);
  }

  std::uint64_t queued_at(NodeId node) const {
    return nodes_[static_cast<std::size_t>(node)].count;
  }
  std::uint64_t total_queued() const { return total_; }
  // Deepest occupied FIFO; O(table entries), not O(N^2).
  std::uint64_t max_queue_depth() const;
  // Number of occupied (node, next-hop) queues right now; O(nodes).
  std::uint64_t occupied_queues() const;

  // Bytes of queue storage: the per-node table, slab and link capacity
  // (live and free-listed slots — allocator truth). O(nodes); a profiler
  // gauge (obs/prof), sampled, not a hot-path call.
  std::uint64_t memory_bytes() const;

 private:
  static constexpr std::uint32_t kNil = ~std::uint32_t{0};

  // One table entry: an occupied queue, a FIFO linked through the node's
  // slab, or an empty entry (size 0). The table holds only non-empty
  // queues (entries are erased when drained), so a node's memory tracks
  // its peak fan-out, not the full N next hops.
  struct Voq {
    NodeId next_hop = 0;
    std::uint32_t head = kNil;
    std::uint32_t tail = kNil;
    std::uint32_t size = 0;
  };
  struct NodeQueues {
    std::vector<Voq> table;          // open-addressed; empty until a push
    std::vector<Cell> slab;          // cell slots, live and free
    std::vector<std::uint32_t> next; // per slot: next in its FIFO or free list
    std::uint32_t free = kNil;       // head of the LIFO free list
    std::uint32_t queues = 0;        // occupied entries of `table`
    std::uint64_t count = 0;         // cells queued at this node
  };

  // Home entry of `hop` in a table of power-of-two size: the top log2(size)
  // bits of the hop's Fibonacci hash.
  static std::uint32_t home(const std::vector<Voq>& table, NodeId hop) {
    const int shift = std::countl_zero(table.size()) + 1;
    return static_cast<std::uint32_t>(
        (static_cast<std::uint64_t>(static_cast<std::uint32_t>(hop)) *
         0x9E3779B97F4A7C15ULL) >>
        shift);
  }
  // Position of `hop`'s entry in a non-empty table, or of the empty entry
  // that ends its probe run (the table is never full).
  static std::uint32_t probe(const std::vector<Voq>& table, NodeId hop) {
    const auto mask = static_cast<std::uint32_t>(table.size() - 1);
    std::uint32_t pos = home(table, hop);
    while (table[pos].size != 0 && table[pos].next_hop != hop)
      pos = (pos + 1) & mask;
    return pos;
  }
  // Empty the entry at `pos` by backward shift.
  static void erase(NodeQueues& nq, std::uint32_t pos);
  // Double the table (allocate the first, of 4 entries), re-inserting
  // every occupied entry.
  static void grow(NodeQueues& nq);

  std::vector<NodeQueues> nodes_;
  std::uint64_t total_ = 0;
};

}  // namespace sorn
