#include "topo/matching.h"

#include <array>

#include "util/assert.h"

namespace sorn {
namespace {

struct Level {
  NodeId n;
  NodeId k;
};

}  // namespace

Matching::Matching(std::vector<NodeId> dst_map)
    : form_(Form::kExplicit), dst_(std::move(dst_map)) {
  const auto n = static_cast<NodeId>(dst_.size());
  n_ = n;
  std::vector<bool> seen(dst_.size(), false);
  for (NodeId i = 0; i < n; ++i) {
    const NodeId d = dst_[static_cast<std::size_t>(i)];
    SORN_ASSERT(d >= 0 && d < n, "matching destination out of range");
    SORN_ASSERT(!seen[static_cast<std::size_t>(d)],
                "matching destination map is not a permutation");
    seen[static_cast<std::size_t>(d)] = true;
  }
}

NodeId Matching::src_of(NodeId dst) const {
  if (form_ == Form::kShift) {
    if (n_ == 0) return kNoNode;
    const Digits d = digits(dst);
    NodeId sa = static_cast<NodeId>(d.a - k1_);
    if (sa < 0) sa = static_cast<NodeId>(sa + n1_);
    NodeId sb = static_cast<NodeId>(d.b - k2_);
    if (sb < 0) sb = static_cast<NodeId>(sb + n2_);
    NodeId sc = static_cast<NodeId>(d.c - k3_);
    if (sc < 0) sc = static_cast<NodeId>(sc + n3_);
    return static_cast<NodeId>(sa * stride1_ + sb * n3_ + sc);
  }
  for (NodeId i = 0; i < size(); ++i)
    if (dst_of(i) == dst) return i;
  return kNoNode;
}

Matching Matching::idle(NodeId n) {
  return radix_shift(1, 0, 1, 0, n, 0);
}

Matching Matching::cyclic_shift(NodeId n, NodeId k) {
  SORN_ASSERT(n > 0, "matching size must be positive");
  return radix_shift(1, 0, 1, 0, n, k);
}

Matching Matching::radix_shift(NodeId n1, NodeId k1, NodeId n2, NodeId k2,
                               NodeId n3, NodeId k3) {
  SORN_ASSERT(n1 > 0 && n2 > 0 && n3 > 0,
              "radix shift levels must be positive");
  // Canonicalize: reduce offsets mod their radix, drop radix-1 levels,
  // merge an outer level into its neighbor when the inner digit is
  // unshifted ((no,ko) over (ni,0) is the single shift (no*ni, ko*ni)),
  // then left-pad with (1, 0) so a pure cyclic shift always lands in the
  // innermost slot. Canonical parameters make shift-vs-shift operator==
  // a six-field compare for everything the builders emit.
  std::array<Level, 3> in = {
      Level{n1, static_cast<NodeId>(((k1 % n1) + n1) % n1)},
      Level{n2, static_cast<NodeId>(((k2 % n2) + n2) % n2)},
      Level{n3, static_cast<NodeId>(((k3 % n3) + n3) % n3)}};
  std::array<Level, 3> levels{};
  int count = 0;
  for (const Level& lv : in) {
    if (lv.n == 1) continue;
    if (lv.k == 0 && count > 0) {
      // Unshifted inner digit: fold into the outer shift.
      levels[count - 1] = Level{
          static_cast<NodeId>(levels[count - 1].n * lv.n),
          static_cast<NodeId>(levels[count - 1].k * lv.n)};
      continue;
    }
    levels[count++] = lv;
  }
  Matching m;
  m.form_ = Form::kShift;
  m.n_ = static_cast<NodeId>(n1 * n2 * n3);
  const int pad = 3 - count;
  const std::array<Level, 3> out = {
      pad >= 1 ? Level{1, 0} : levels[0],
      pad >= 2 ? Level{1, 0} : levels[count - 2],
      count >= 1 ? levels[count - 1] : Level{1, 0}};
  m.n1_ = out[0].n;
  m.k1_ = out[0].k;
  m.n2_ = out[1].n;
  m.k2_ = out[1].k;
  m.n3_ = out[2].n;
  m.k3_ = out[2].k;
  m.stride1_ = static_cast<NodeId>(m.n2_ * m.n3_);
  m.by_stride1_ = Divisor::of(m.stride1_);
  m.by_n3_ = Divisor::of(m.n3_);
  return m;
}

bool Matching::is_perfect() const {
  if (n_ == 0) return true;
  if (form_ == Form::kShift)
    // Any nonzero digit offset moves every node; all-zero fixes every node.
    return k1_ != 0 || k2_ != 0 || k3_ != 0;
  for (NodeId i = 0; i < size(); ++i)
    if (is_idle(i)) return false;
  return true;
}

NodeId Matching::active_circuits() const {
  if (form_ == Form::kShift)
    return (k1_ != 0 || k2_ != 0 || k3_ != 0) ? n_ : 0;
  NodeId active = 0;
  for (NodeId i = 0; i < size(); ++i)
    if (!is_idle(i)) ++active;
  return active;
}

bool Matching::operator==(const Matching& other) const {
  if (n_ != other.n_) return false;
  if (form_ == Form::kShift && other.form_ == Form::kShift &&
      n1_ == other.n1_ && n2_ == other.n2_ && n3_ == other.n3_)
    return k1_ == other.k1_ && k2_ == other.k2_ && k3_ == other.k3_;
  if (form_ == Form::kExplicit && other.form_ == Form::kExplicit)
    return dst_ == other.dst_;
  // Mixed forms, or shift forms whose factorizations differ: compare the
  // realized permutations. Cold path (set lookups and tests only).
  for (NodeId i = 0; i < n_; ++i)
    if (dst_of(i) != other.dst_of(i)) return false;
  return true;
}

Matching Matching::materialized() const {
  std::vector<NodeId> m(static_cast<std::size_t>(n_));
  for (NodeId i = 0; i < n_; ++i)
    m[static_cast<std::size_t>(i)] = dst_of(i);
  return Matching(std::move(m));
}

}  // namespace sorn
