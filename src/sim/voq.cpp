#include "sim/voq.h"

#include <algorithm>

#include "util/assert.h"

namespace sorn {

namespace {

// First index entry whose next hop is not below `hop`.
template <typename Index>
auto lower(Index& index, NodeId hop) {
  return std::lower_bound(
      index.begin(), index.end(), hop,
      [](const auto& v, NodeId key) { return v.next_hop < key; });
}

}  // namespace

VoqSet::VoqSet(NodeId nodes) : nodes_(static_cast<std::size_t>(nodes)) {
  SORN_ASSERT(nodes > 0, "VOQ set needs at least one node");
  static_assert(sizeof(Voq) == 16,
                "index entry is {next_hop, head, tail, size}");
}

void VoqSet::push(const Cell& cell) {
  SORN_ASSERT(!cell.at_destination(), "delivered cells must not be queued");
  const NodeId hop = cell.next_hop();
  NodeQueues& nq = nodes_[static_cast<std::size_t>(cell.current())];
  std::uint32_t slot = nq.free;
  if (slot != kNil) {
    nq.free = nq.next[slot];
    nq.slab[slot] = cell;
    nq.next[slot] = kNil;
  } else {
    SORN_ASSERT(nq.slab.size() < kNil, "VOQ slab index overflow");
    slot = static_cast<std::uint32_t>(nq.slab.size());
    nq.slab.push_back(cell);
    nq.next.push_back(kNil);
  }
  auto it = lower(nq.occupied, hop);
  if (it == nq.occupied.end() || it->next_hop != hop) {
    nq.occupied.insert(it, Voq{hop, slot, slot, 1});
  } else {
    nq.next[it->tail] = slot;
    it->tail = slot;
    ++it->size;
  }
  ++nq.count;
  ++total_;
}

const VoqSet::Voq* VoqSet::find(NodeId node, NodeId next_hop) const {
  const NodeQueues& nq = nodes_[static_cast<std::size_t>(node)];
  const auto it = lower(nq.occupied, next_hop);
  if (it == nq.occupied.end() || it->next_hop != next_hop) return nullptr;
  return &*it;
}

const Cell* VoqSet::peek(NodeId node, NodeId next_hop, Slot now) const {
  const Voq* q = find(node, next_hop);
  if (q == nullptr) return nullptr;
  const Cell& head = nodes_[static_cast<std::size_t>(node)].slab[q->head];
  return head.ready_slot > now ? nullptr : &head;
}

std::uint64_t VoqSet::size_of(NodeId node, NodeId next_hop) const {
  const Voq* q = find(node, next_hop);
  return q == nullptr ? 0 : q->size;
}

void VoqSet::pop(NodeId node, NodeId next_hop) {
  NodeQueues& nq = nodes_[static_cast<std::size_t>(node)];
  const auto it = lower(nq.occupied, next_hop);
  SORN_ASSERT(it != nq.occupied.end() && it->next_hop == next_hop,
              "pop from empty VOQ");
  const std::uint32_t slot = it->head;
  it->head = nq.next[slot];
  nq.next[slot] = nq.free;
  nq.free = slot;
  if (--it->size == 0) nq.occupied.erase(it);
  --nq.count;
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
