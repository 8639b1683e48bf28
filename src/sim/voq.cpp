#include "sim/voq.h"

#include <algorithm>

#include "util/assert.h"

namespace sorn {

VoqSet::VoqSet(NodeId nodes) : nodes_(static_cast<std::size_t>(nodes)) {
  SORN_ASSERT(nodes > 0, "VOQ set needs at least one node");
  static_assert(sizeof(Voq) == 16,
                "index entry is {next_hop, head, tail, size}");
}

VoqSet::QueueRef VoqSet::find(NodeId node, NodeId next_hop) const {
  const std::vector<Voq>& index =
      nodes_[static_cast<std::size_t>(node)].occupied;
  const std::uint32_t pos = lower(index, next_hop);
  if (pos == index.size() || index[pos].next_hop != next_hop) return {pos, 0};
  return {pos, index[pos].size};
}

void VoqSet::push(NodeId node, QueueRef queue, const Cell& cell) {
  SORN_ASSERT(!cell.at_destination(), "delivered cells must not be queued");
  NodeQueues& nq = nodes_[static_cast<std::size_t>(node)];
  std::uint32_t slot = nq.free;
  if (slot != kNil) {
    nq.free = nq.next[slot];
    nq.slab[slot] = cell;
    nq.next[slot] = kNil;
  } else {
    SORN_ASSERT(nq.slab.size() < kNil, "VOQ slab index overflow");
    slot = static_cast<std::uint32_t>(nq.slab.size());
    if (nq.slab.size() == nq.slab.capacity()) {
      // Grow by a quarter, not by doubling: the slab keeps its high-water
      // mark, so doubling slack would stay allocated for the whole run.
      const std::size_t grown =
          nq.slab.capacity() + nq.slab.capacity() / 4 + 1;
      nq.slab.reserve(grown);
      nq.next.reserve(grown);
    }
    nq.slab.push_back(cell);
    nq.next.push_back(kNil);
  }
  const auto it = nq.occupied.begin() + queue.index;
  if (queue.size == 0) {
    nq.occupied.insert(it, Voq{cell.next_hop(), slot, slot, 1});
  } else {
    SORN_ASSERT(it->next_hop == cell.next_hop() && it->size == queue.size,
                "stale VOQ reference");
    nq.next[it->tail] = slot;
    it->tail = slot;
    ++it->size;
  }
  ++nq.count;
  ++total_;
}

std::uint64_t VoqSet::max_queue_depth() const {
  std::uint64_t depth = 0;
  for (const NodeQueues& nq : nodes_) {
    for (const Voq& v : nq.occupied)
      depth = std::max<std::uint64_t>(depth, v.size);
  }
  return depth;
}

std::uint64_t VoqSet::occupied_queues() const {
  std::uint64_t queues = 0;
  for (const NodeQueues& nq : nodes_) queues += nq.occupied.size();
  return queues;
}

std::uint64_t VoqSet::memory_bytes() const {
  std::uint64_t bytes = nodes_.capacity() * sizeof(NodeQueues);
  for (const NodeQueues& nq : nodes_) {
    // Capacity, not size: the slab keeps every slot it ever grew (live +
    // free-listed) — allocator truth, not an estimate.
    bytes += nq.occupied.capacity() * sizeof(Voq) +
             nq.slab.capacity() * sizeof(Cell) +
             nq.next.capacity() * sizeof(std::uint32_t);
  }
  return bytes;
}

}  // namespace sorn
