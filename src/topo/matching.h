// A matching: the circuit configuration of the OCS layer for one time slot.
//
// Following the paper's abstraction (Fig. 2a-b), the optical layer realizes a
// permutation: in a given slot, node i transmits to exactly one node
// dst(i), and each node receives from exactly one node. A node mapped to
// itself is idle in that slot (no circuit); physical OCS ports are never
// looped back, so self-maps model unused slots.
//
// Two storage forms, tagged (DESIGN.md §11):
//
//  - kShift: a three-level mixed-radix cyclic shift in O(1) state. Node ids
//    are decomposed into digits i = a·(n2·n3) + b·n3 + c with a < n1,
//    b < n2, c < n3 (n = n1·n2·n3), and each digit is shifted cyclically by
//    its own offset: dst = ((a+k1) mod n1)·n2·n3 + ((b+k2) mod n2)·n3 +
//    ((c+k3) mod n3). This covers every structured matching the builders
//    emit — the AWGR wavelength family m_k(i) = (i+k) mod n is the
//    degenerate n1 = n2 = 1 case, SORN intra/inter slots on contiguous
//    equal cliques are block-local / block-rotating shifts, and the
//    orn-hd/hierarchical digit round-robins are stride shifts — so a
//    schedule slot costs O(1) bytes instead of O(n).
//  - kExplicit: the full destination vector, for arbitrary permutations
//    (Opera's random 1-factorization, BvN decomposition slots, failure-
//    masked assignments).
//
// dst_of/src_of/is_idle/active_circuits are O(1) on the shift form; the
// simulator's per-slot hot loop never touches O(n) matching state.
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "util/types.h"

namespace sorn {

class Matching {
 public:
  Matching() = default;

  // Takes the destination map: dst_map[i] is where node i transmits.
  // Aborts if dst_map is not a permutation. Always stored explicitly.
  explicit Matching(std::vector<NodeId> dst_map);

  // Identity matching of n nodes: every node idle. O(1) state.
  static Matching idle(NodeId n);

  // Cyclic shift by k: i -> (i + k) mod n. The AWGR wavelength family.
  // O(1) state.
  static Matching cyclic_shift(NodeId n, NodeId k);

  // General three-level mixed-radix shift over n = n1*n2*n3 nodes (see the
  // header comment). Offsets are reduced mod their radix; the parameters
  // are canonicalized (levels of radix 1 dropped, adjacent levels with an
  // unshifted inner digit merged) so equal permutations built through
  // different factorizations compare equal on the fast path. O(1) state.
  static Matching radix_shift(NodeId n1, NodeId k1, NodeId n2, NodeId k2,
                              NodeId n3, NodeId k3);

  NodeId size() const { return n_; }

  NodeId dst_of(NodeId src) const {
    if (form_ == Form::kExplicit) return dst_[static_cast<std::size_t>(src)];
    if (n2_ == 1) {  // pure cyclic shift (canonical: n1 <= n2 <= stride use)
      const NodeId d = static_cast<NodeId>(src + k3_);
      return d >= n3_ ? static_cast<NodeId>(d - n3_) : d;
    }
    return shift_dst(src);
  }

  // O(1) on the shift form (subtract each digit offset); O(n) scan on the
  // explicit form, whose inverse permutation is deliberately not stored
  // (nothing on the simulator hot path needs it — see DESIGN.md §9).
  NodeId src_of(NodeId dst) const;

  // A shift-form matching is idle either at every node (all offsets zero)
  // or at none (any nonzero digit offset moves every node), so this is
  // O(1) there.
  bool is_idle(NodeId node) const {
    if (form_ == Form::kShift) return k1_ == 0 && k2_ == 0 && k3_ == 0;
    return dst_[static_cast<std::size_t>(node)] == node;
  }

  // True when no node is idle (a perfect matching of transmitters to
  // receivers).
  bool is_perfect() const;

  // Number of non-idle circuits.
  NodeId active_circuits() const;

  // Equal iff the two matchings realize the same permutation, regardless
  // of storage form. Shift-vs-shift with identical canonical parameters
  // short-circuits; every other combination falls back to an elementwise
  // compare.
  bool operator==(const Matching& other) const;

  // True when this matching is stored in the O(1) shift form.
  bool is_compact() const { return form_ == Form::kShift; }

  // The canonical parameters of a shift-form matching: radices n1, n2, n3
  // and their offsets. Two shift-form matchings with equal parameters
  // realize the same permutation.
  struct ShiftParams {
    NodeId n1 = 1, n2 = 1, n3 = 1;
    NodeId k1 = 0, k2 = 0, k3 = 0;
  };
  ShiftParams shift_params() const {
    return ShiftParams{n1_, n2_, n3_, k1_, k2_, k3_};
  }
  // Shift form only: the parameters of the one shift over this matching's
  // radices that maps src to dst (each digit's offset is dst's digit minus
  // src's). The inverse of dst_of over a radix family, in O(1).
  ShiftParams shift_params_mapping(NodeId src, NodeId dst) const {
    const Digits s = digits(src);
    const Digits d = digits(dst);
    const auto offset = [](NodeId to, NodeId from, NodeId radix) {
      const NodeId k = static_cast<NodeId>(to - from);
      return k < 0 ? static_cast<NodeId>(k + radix) : k;
    };
    return ShiftParams{n1_, n2_, n3_, offset(d.a, s.a, n1_),
                       offset(d.b, s.b, n2_), offset(d.c, s.c, n3_)};
  }

  // An explicit-form copy realizing the same permutation. Test hook for
  // pinning the compact path byte-identical against explicit storage.
  Matching materialized() const;

  // Estimated heap bytes of this matching. The shift form owns no heap at
  // all — this is what collapses the schedule_matchings profiler gauge
  // from O(period·n) to O(period) (DESIGN.md §11).
  std::uint64_t memory_bytes() const {
    return form_ == Form::kExplicit ? dst_.capacity() * sizeof(NodeId) : 0;
  }

 private:
  enum class Form : std::uint8_t { kShift, kExplicit };

  // Division by a fixed divisor d >= 1 as a multiply and a shift, so the
  // shift form's digit split divides by nothing per lookup:
  // x / d == (x * m) >> s with s = 31 + ceil(log2 d) and m = ceil(2^s / d)
  // < 2^32, for every node id 0 <= x < 2^31. The rounding error
  // x·(m − 2^s/d)/2^s stays below 2^31 / 2^s <= 1/d, less than the gap to
  // the next multiple of d, and x·m < 2^63.
  struct Divisor {
    std::uint32_t m = std::uint32_t{1} << 31;
    std::uint8_t s = 31;

    static constexpr Divisor of(NodeId d) {
      const int s = 31 + std::bit_width(static_cast<std::uint32_t>(d - 1));
      const auto dd = static_cast<std::uint64_t>(d);
      return Divisor{
          static_cast<std::uint32_t>(((std::uint64_t{1} << s) + dd - 1) / dd),
          static_cast<std::uint8_t>(s)};
    }
    constexpr NodeId divide(NodeId x) const {
      return static_cast<NodeId>((static_cast<std::uint64_t>(x) * m) >> s);
    }
  };

  // A node id's shift-form digits: x = a·stride1_ + b·n3_ + c.
  struct Digits {
    NodeId a, b, c;
  };
  Digits digits(NodeId x) const {
    const NodeId a = by_stride1_.divide(x);
    const NodeId r = static_cast<NodeId>(x - a * stride1_);
    const NodeId b = by_n3_.divide(r);
    return Digits{a, b, static_cast<NodeId>(r - b * n3_)};
  }

  // Inline: the take pass calls it once per wake-list visit.
  NodeId shift_dst(NodeId src) const {
    const Digits s = digits(src);
    NodeId da = static_cast<NodeId>(s.a + k1_);
    if (da >= n1_) da = static_cast<NodeId>(da - n1_);
    NodeId db = static_cast<NodeId>(s.b + k2_);
    if (db >= n2_) db = static_cast<NodeId>(db - n2_);
    NodeId dc = static_cast<NodeId>(s.c + k3_);
    if (dc >= n3_) dc = static_cast<NodeId>(dc - n3_);
    return static_cast<NodeId>(da * stride1_ + db * n3_ + dc);
  }

  Form form_ = Form::kShift;
  NodeId n_ = 0;
  // Canonical shift parameters: radix-1 levels are pushed to the front as
  // (1, 0), so a pure cyclic shift always sits in (n3_, k3_) and the
  // dst_of fast path only tests n2_.
  NodeId n1_ = 1, n2_ = 1, n3_ = 1;
  NodeId k1_ = 0, k2_ = 0, k3_ = 0;
  NodeId stride1_ = 1;  // n2_ * n3_
  Divisor by_stride1_;  // Divisor::of(stride1_)
  Divisor by_n3_;       // Divisor::of(n3_)
  std::vector<NodeId> dst_;  // explicit form only
};

}  // namespace sorn
