#include "sim/voq.h"

#include <algorithm>

#include "util/assert.h"

namespace sorn {

namespace {

// A node's first table; later tables double it.
constexpr std::size_t kFirstTable = 4;

}  // namespace

VoqSet::VoqSet(NodeId nodes) : nodes_(static_cast<std::size_t>(nodes)) {
  SORN_ASSERT(nodes > 0, "VOQ set needs at least one node");
  static_assert(sizeof(Voq) == 16,
                "table entry is {next_hop, head, tail, size}");
}

void VoqSet::grow(NodeQueues& nq) {
  std::vector<Voq> grown(nq.table.empty() ? kFirstTable
                                          : 2 * nq.table.size());
  for (const Voq& v : nq.table)
    if (v.size != 0) grown[probe(grown, v.next_hop)] = v;
  nq.table.swap(grown);
}

void VoqSet::erase(NodeQueues& nq, std::uint32_t pos) {
  std::vector<Voq>& table = nq.table;
  const auto mask = static_cast<std::uint32_t>(table.size() - 1);
  std::uint32_t hole = pos;
  for (std::uint32_t j = (hole + 1) & mask; table[j].size != 0;
       j = (j + 1) & mask) {
    // The entry at j may fill the hole when the hole lies on its probe
    // run, from its home up to j (cyclically).
    const std::uint32_t from_home = (j - home(table, table[j].next_hop)) & mask;
    if (from_home >= ((j - hole) & mask)) {
      table[hole] = table[j];
      hole = j;
    }
  }
  table[hole].size = 0;
  --nq.queues;
}

void VoqSet::push(NodeId node, QueueRef queue, const Cell& cell) {
  SORN_ASSERT(!cell.at_destination(), "delivered cells must not be queued");
  NodeQueues& nq = nodes_[static_cast<std::size_t>(node)];
  const NodeId hop = cell.next_hop();
  std::uint32_t pos = queue.index;
  if (queue.size == 0) {
    // An insert that would pass 7/8 load doubles the table first, which
    // moves the entry's place.
    if (8 * (std::size_t{nq.queues} + 1) > 7 * nq.table.size()) {
      grow(nq);
      pos = probe(nq.table, hop);
    }
    SORN_ASSERT(pos < nq.table.size() && nq.table[pos].size == 0,
                "stale VOQ reference");
  } else {
    SORN_ASSERT(pos < nq.table.size() && nq.table[pos].next_hop == hop &&
                    nq.table[pos].size == queue.size,
                "stale VOQ reference");
  }
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
  Voq& q = nq.table[pos];
  if (queue.size == 0) {
    q = Voq{hop, slot, slot, 1};
    ++nq.queues;
  } else {
    nq.next[q.tail] = slot;
    q.tail = slot;
    ++q.size;
  }
  ++nq.count;
  ++total_;
}

std::uint64_t VoqSet::max_queue_depth() const {
  std::uint64_t depth = 0;
  for (const NodeQueues& nq : nodes_) {
    for (const Voq& v : nq.table)
      depth = std::max<std::uint64_t>(depth, v.size);
  }
  return depth;
}

std::uint64_t VoqSet::occupied_queues() const {
  std::uint64_t queues = 0;
  for (const NodeQueues& nq : nodes_) queues += nq.queues;
  return queues;
}

std::uint64_t VoqSet::memory_bytes() const {
  std::uint64_t bytes = nodes_.capacity() * sizeof(NodeQueues);
  for (const NodeQueues& nq : nodes_) {
    // Capacity, not size: the slab keeps every slot it ever grew (live +
    // free-listed) — allocator truth, not an estimate.
    bytes += nq.table.capacity() * sizeof(Voq) +
             nq.slab.capacity() * sizeof(Cell) +
             nq.next.capacity() * sizeof(std::uint32_t);
  }
  return bytes;
}

}  // namespace sorn
