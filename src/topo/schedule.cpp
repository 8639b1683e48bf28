#include "topo/schedule.h"

#include <algorithm>
#include <bit>
#include <limits>
#include <numeric>

#include "util/assert.h"

namespace sorn {
namespace {

// A shift's parameters packed in one key. Within one radix triple the
// offsets, read as a mixed-radix number k1·n2·n3 + k2·n3 + k3, are unique
// and below the node count, and n1 follows from n2, n3 and the node count,
// so with the radices above bit 21 the key is unique for every schedule of
// fewer than 2^21 nodes. All ones is no key.
constexpr std::uint64_t kNoKey = ~std::uint64_t{0};
std::uint64_t shift_key(const Matching::ShiftParams& p) {
  const auto u = [](NodeId v) { return static_cast<std::uint64_t>(v); };
  return (u(p.k1) * u(p.n2) + u(p.k2)) * u(p.n3) + u(p.k3) + (u(p.n3) << 21) +
         (u(p.n2) << 42);
}

}  // namespace

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

void CircuitSchedule::build_carriers() const {
  SORN_ASSERT(n_ < (1 << 21), "carriers() keys node ids in 21 bits");
  CarrierIndex& ix = carriers_;
  ix.built = true;
  const auto distinct = static_cast<std::uint32_t>(matchings_.size());
  std::vector<std::uint32_t> explicit_ids;
  std::uint32_t shifts = 0;
  for (std::uint32_t m = 0; m < distinct; ++m) {
    const Matching& mm = matchings_[m];
    if (!mm.is_compact()) {
      explicit_ids.push_back(m);
      continue;
    }
    ++shifts;
    const Matching::ShiftParams p = mm.shift_params();
    const bool grouped = std::any_of(
        ix.shift_groups.begin(), ix.shift_groups.end(), [&](std::uint32_t g) {
          const Matching::ShiftParams q = matchings_[g].shift_params();
          return q.n1 == p.n1 && q.n2 == p.n2 && q.n3 == p.n3;
        });
    if (!grouped) ix.shift_groups.push_back(m);
  }
  if (shifts > 0) {
    // At most half full, so a probe sequence stays short.
    const std::size_t slots = std::bit_ceil(2 * std::size_t{shifts});
    ix.shift_keys.assign(slots, kNoKey);
    ix.shift_ids.assign(slots, 0);
    ix.shift_bits = std::countr_zero(slots);
    for (std::uint32_t m = 0; m < distinct; ++m) {
      if (!matchings_[m].is_compact()) continue;
      const std::uint64_t key = shift_key(matchings_[m].shift_params());
      std::size_t slot = ix.shift_slot(key);
      while (ix.shift_keys[slot] != kNoKey) slot = (slot + 1) & (slots - 1);
      ix.shift_keys[slot] = key;
      ix.shift_ids[slot] = m;
    }
  }
  const auto e = static_cast<std::uint32_t>(explicit_ids.size());
  ix.explicit_count = e;
  if (e == 0) return;
  // Two scatters, no sort. Each explicit matching is a permutation, so
  // peer p is the destination of exactly one node per matching: by_peer
  // lists, for each p, that node in each matching in ascending order.
  // Reading it by ascending p and dealing each entry to its node's row
  // leaves every row sorted by (peer, matching).
  const auto n = static_cast<std::size_t>(n_);
  std::vector<NodeId> by_peer(n * e);
  for (std::uint32_t x = 0; x < e; ++x) {
    const Matching& mm = matchings_[explicit_ids[x]];
    for (NodeId i = 0; i < n_; ++i)
      by_peer[static_cast<std::size_t>(mm.dst_of(i)) * e + x] = i;
  }
  ix.explicit_circuits.resize(n * e);
  std::vector<std::uint32_t> filled(n, 0);
  for (std::size_t p = 0; p < n; ++p) {
    for (std::uint32_t x = 0; x < e; ++x) {
      const auto i = static_cast<std::size_t>(by_peer[p * e + x]);
      ix.explicit_circuits[i * e + filled[i]++] = {static_cast<NodeId>(p),
                                                   explicit_ids[x]};
    }
  }
}

void CircuitSchedule::carriers(NodeId src, NodeId dst,
                               std::vector<std::uint32_t>* out) const {
  SORN_ASSERT(src >= 0 && src < n_ && dst >= 0 && dst < n_,
              "carriers() of a node outside the schedule");
  if (!carriers_.built) build_carriers();
  const CarrierIndex& ix = carriers_;
  out->clear();
  if (!ix.shift_keys.empty()) {
    const std::size_t mask = ix.shift_keys.size() - 1;
    for (const std::uint32_t g : ix.shift_groups) {
      // The one shift over g's radices that maps src to dst, if stored.
      const std::uint64_t key =
          shift_key(matchings_[g].shift_params_mapping(src, dst));
      for (std::size_t slot = ix.shift_slot(key);
           ix.shift_keys[slot] != kNoKey; slot = (slot + 1) & mask) {
        if (ix.shift_keys[slot] == key) out->push_back(ix.shift_ids[slot]);
      }
    }
  }
  if (ix.explicit_count > 0) {
    const auto row = ix.explicit_circuits.begin() +
                     static_cast<std::ptrdiff_t>(src) * ix.explicit_count;
    for (auto it = std::lower_bound(
             row, row + ix.explicit_count, dst,
             [](const CarrierIndex::Circuit& c, NodeId peer) {
               return c.peer < peer;
             });
         it != row + ix.explicit_count && it->peer == dst; ++it)
      out->push_back(it->matching);
  }
  if (out->size() > 1) std::sort(out->begin(), out->end());
}

std::uint64_t CircuitSchedule::memory_bytes() const {
  std::uint64_t bytes = matchings_.capacity() * sizeof(Matching) +
                        kinds_.capacity() * sizeof(SlotKind) +
                        order_.capacity() * sizeof(std::uint32_t) +
                        carriers_.shift_groups.capacity() *
                            sizeof(std::uint32_t) +
                        carriers_.shift_keys.capacity() *
                            sizeof(std::uint64_t) +
                        carriers_.shift_ids.capacity() *
                            sizeof(std::uint32_t) +
                        carriers_.explicit_circuits.capacity() *
                            sizeof(CarrierIndex::Circuit);
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
