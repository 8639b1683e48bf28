#include "sim/voq.h"

#include <algorithm>

#include "util/assert.h"

namespace sorn {

VoqSet::VoqSet(NodeId nodes)
    : n_(nodes), nodes_(static_cast<std::size_t>(nodes)) {
  SORN_ASSERT(nodes > 0, "VOQ set needs at least one node");
}

void VoqSet::push(const Cell& cell) {
  SORN_ASSERT(!cell.at_destination(), "delivered cells must not be queued");
  const NodeId node = cell.current();
  const NodeId hop = cell.next_hop();
  NodeQueues& nq = nodes_[static_cast<std::size_t>(node)];
  auto it = std::lower_bound(
      nq.occupied.begin(), nq.occupied.end(), hop,
      [](const Voq& v, NodeId key) { return v.next_hop < key; });
  if (it == nq.occupied.end() || it->next_hop != hop) {
    it = nq.occupied.insert(it, Voq{});
    it->next_hop = hop;
  }
  it->fifo.push_back(nq.pool, cell);
  ++nq.count;
  ++total_;
}

const VoqSet::CellFifo* VoqSet::find(NodeId node, NodeId next_hop) const {
  const NodeQueues& nq = nodes_[static_cast<std::size_t>(node)];
  const auto it = std::lower_bound(
      nq.occupied.begin(), nq.occupied.end(), next_hop,
      [](const Voq& v, NodeId key) { return v.next_hop < key; });
  if (it == nq.occupied.end() || it->next_hop != next_hop) return nullptr;
  return &it->fifo;
}

const Cell* VoqSet::peek(NodeId node, NodeId next_hop, Slot now) const {
  const CellFifo* q = find(node, next_hop);
  if (q == nullptr || q->front().ready_slot > now) return nullptr;
  return &q->front();
}

std::uint64_t VoqSet::size_of(NodeId node, NodeId next_hop) const {
  const CellFifo* q = find(node, next_hop);
  return q == nullptr ? 0 : q->size();
}

void VoqSet::pop(NodeId node, NodeId next_hop) {
  NodeQueues& nq = nodes_[static_cast<std::size_t>(node)];
  const auto it = std::lower_bound(
      nq.occupied.begin(), nq.occupied.end(), next_hop,
      [](const Voq& v, NodeId key) { return v.next_hop < key; });
  SORN_ASSERT(it != nq.occupied.end() && it->next_hop == next_hop,
              "pop from empty VOQ");
  it->fifo.pop_front(nq.pool);
  if (it->fifo.empty()) nq.occupied.erase(it);
  --nq.count;
}

std::uint64_t VoqSet::max_queue_depth() const {
  std::uint64_t depth = 0;
  for (const NodeQueues& nq : nodes_) {
    if (nq.count == 0) continue;
    for (const Voq& v : nq.occupied)
      depth = std::max<std::uint64_t>(depth, v.fifo.size());
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
    bytes += nq.occupied.capacity() * sizeof(Voq);
    // The per-node pool holds every chunk the node ever chained
    // (live + recyclable) — allocator truth, not an estimate.
    bytes += nq.pool.memory_bytes();
  }
  return bytes;
}

}  // namespace sorn
