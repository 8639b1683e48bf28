#include "topo/clique.h"

#include <algorithm>

#include "util/assert.h"

namespace sorn {

CliqueAssignment::CliqueAssignment(std::vector<CliqueId> clique_of)
    : clique_of_(std::move(clique_of)) {
  SORN_ASSERT(!clique_of_.empty(), "assignment must cover at least one node");
  const CliqueId nc = 1 + *std::max_element(clique_of_.begin(), clique_of_.end());
  members_.resize(static_cast<std::size_t>(nc));
  index_in_clique_.resize(clique_of_.size());
  for (NodeId i = 0; i < node_count(); ++i) {
    const CliqueId c = clique_of_[static_cast<std::size_t>(i)];
    SORN_ASSERT(c >= 0, "clique ids must be nonnegative");
    index_in_clique_[static_cast<std::size_t>(i)] =
        static_cast<NodeId>(members_[static_cast<std::size_t>(c)].size());
    members_[static_cast<std::size_t>(c)].push_back(i);
  }
  for (const auto& m : members_)
    SORN_ASSERT(!m.empty(), "clique ids must be dense (no empty cliques)");
  contiguous_equal_ = node_count() % nc == 0;
  if (contiguous_equal_) {
    const NodeId size = node_count() / nc;
    for (NodeId i = 0; i < node_count(); ++i) {
      if (clique_of_[static_cast<std::size_t>(i)] !=
          static_cast<CliqueId>(i / size)) {
        contiguous_equal_ = false;
        break;
      }
    }
  }
}

std::uint64_t CliqueAssignment::memory_bytes() const {
  std::uint64_t bytes = (clique_of_.capacity() + index_in_clique_.capacity()) *
                            sizeof(NodeId) +
                        members_.capacity() * sizeof(std::vector<NodeId>);
  for (const auto& m : members_) bytes += m.capacity() * sizeof(NodeId);
  return bytes;
}

CliqueAssignment CliqueAssignment::contiguous(NodeId n, CliqueId nc) {
  SORN_ASSERT(nc > 0 && n > 0, "need positive node and clique counts");
  SORN_ASSERT(n % nc == 0, "contiguous() requires n divisible by nc");
  const NodeId size = n / nc;
  std::vector<CliqueId> map(static_cast<std::size_t>(n));
  for (NodeId i = 0; i < n; ++i)
    map[static_cast<std::size_t>(i)] = static_cast<CliqueId>(i / size);
  return CliqueAssignment(std::move(map));
}

CliqueAssignment CliqueAssignment::flat(NodeId n) {
  std::vector<CliqueId> map(static_cast<std::size_t>(n));
  for (NodeId i = 0; i < n; ++i)
    map[static_cast<std::size_t>(i)] = static_cast<CliqueId>(i);
  return CliqueAssignment(std::move(map));
}

bool CliqueAssignment::equal_sized() const {
  for (CliqueId c = 1; c < clique_count(); ++c)
    if (clique_size(c) != clique_size(0)) return false;
  return true;
}

PaddedAssignment CliqueAssignment::padded_to_equal() const {
  NodeId max_size = 0;
  for (CliqueId c = 0; c < clique_count(); ++c)
    max_size = std::max(max_size, clique_size(c));
  PaddedAssignment padded;
  padded.real_nodes = node_count();
  padded.clique_of = clique_of_;
  for (CliqueId c = 0; c < clique_count(); ++c)
    for (NodeId g = clique_size(c); g < max_size; ++g)
      padded.clique_of.push_back(c);
  padded.padded_nodes = static_cast<NodeId>(padded.clique_of.size());
  return padded;
}

}  // namespace sorn
