#include "topo/schedule.h"

#include <limits>
#include <numeric>

#include "util/assert.h"

namespace sorn {

CircuitSchedule::CircuitSchedule(std::vector<Matching> matchings,
                                 std::vector<SlotKind> kinds,
                                 std::vector<std::uint32_t> order)
    : matchings_(std::move(matchings)),
      kinds_(std::move(kinds)),
      order_(std::move(order)) {
  SORN_ASSERT(!matchings_.empty(), "schedule must have at least one slot");
  SORN_ASSERT(matchings_.size() <= std::numeric_limits<std::uint32_t>::max(),
              "too many distinct matchings for a uint32 slot order");
  n_ = matchings_.front().size();
  for (const auto& m : matchings_)
    SORN_ASSERT(m.size() == n_, "all slots must cover the same node count");
  if (kinds_.empty()) {
    kinds_.assign(matchings_.size(), SlotKind::kUniform);
  }
  SORN_ASSERT(kinds_.size() == matchings_.size(),
              "one slot kind per matching required");
  if (order_.empty()) {
    order_.resize(matchings_.size());
    std::iota(order_.begin(), order_.end(), std::uint32_t{0});
    return;
  }
  std::vector<bool> used(matchings_.size(), false);
  for (const std::uint32_t i : order_) {
    SORN_ASSERT(i < matchings_.size(), "slot order entry out of range");
    used[i] = true;
  }
  for (const bool u : used)
    SORN_ASSERT(u, "every distinct matching must appear in the slot order");
}

Slot CircuitSchedule::next_slot_connecting(NodeId src, NodeId dst,
                                           Slot from) const {
  for (Slot d = 0; d < period(); ++d) {
    const Slot t = from + d;
    if (dst_of(src, t) == dst && src != dst) return t;
    if (src == dst) return from;  // trivially "connected" to self
  }
  return -1;
}

double CircuitSchedule::edge_fraction(NodeId src, NodeId dst) const {
  if (src == dst) return 0.0;
  Slot hits = 0;
  for (Slot t = 0; t < period(); ++t)
    if (dst_of(src, t) == dst) ++hits;
  return static_cast<double>(hits) / static_cast<double>(period());
}

double CircuitSchedule::kind_fraction(SlotKind k) const {
  Slot hits = 0;
  for (const std::uint32_t i : order_)
    if (kinds_[i] == k) ++hits;
  return static_cast<double>(hits) / static_cast<double>(period());
}

std::uint64_t CircuitSchedule::memory_bytes() const {
  std::uint64_t bytes = matchings_.capacity() * sizeof(Matching) +
                        kinds_.capacity() * sizeof(SlotKind) +
                        order_.capacity() * sizeof(std::uint32_t);
  for (const Matching& m : matchings_) bytes += m.memory_bytes();
  return bytes;
}

bool CircuitSchedule::realizable_with(const MatchingSet& available) const {
  if (available.node_count() != n_) return false;
  for (const Matching& m : matchings_)
    if (!available.find(m).has_value()) return false;
  return true;
}

bool CircuitSchedule::kinds_consistent(
    const std::vector<CliqueId>& clique_of) const {
  SORN_ASSERT(clique_of.size() == static_cast<std::size_t>(n_),
              "clique map size mismatch");
  // Every distinct matching appears in the order, so checking each once
  // checks every slot.
  for (std::size_t k = 0; k < matchings_.size(); ++k) {
    const Matching& m = matchings_[k];
    for (NodeId i = 0; i < n_; ++i) {
      if (m.is_idle(i)) continue;
      const bool same = clique_of[static_cast<std::size_t>(i)] ==
                        clique_of[static_cast<std::size_t>(m.dst_of(i))];
      if (kinds_[k] == SlotKind::kIntra && !same) return false;
      if (kinds_[k] == SlotKind::kInter && same) return false;
    }
  }
  return true;
}

Slot lane_phase(Slot period, int lanes, int lane) {
  SORN_ASSERT(lanes > 0, "need at least one lane");
  SORN_ASSERT(lane >= 0 && lane < lanes, "lane index out of range");
  return period * lane / lanes;
}

}  // namespace sorn
