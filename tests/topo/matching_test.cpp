#include "topo/matching.h"

#include <gtest/gtest.h>

#include <array>
#include <vector>

#include "topo/matching_set.h"

namespace sorn {
namespace {

TEST(MatchingTest, CyclicShiftMapsCorrectly) {
  const Matching m = Matching::cyclic_shift(5, 2);
  EXPECT_EQ(m.dst_of(0), 2);
  EXPECT_EQ(m.dst_of(3), 0);
  EXPECT_EQ(m.dst_of(4), 1);
  EXPECT_EQ(m.src_of(2), 0);
  EXPECT_TRUE(m.is_perfect());
  EXPECT_EQ(m.active_circuits(), 5);
}

TEST(MatchingTest, IdleMatchingHasNoCircuits) {
  const Matching m = Matching::idle(4);
  EXPECT_FALSE(m.is_perfect());
  EXPECT_EQ(m.active_circuits(), 0);
  for (NodeId i = 0; i < 4; ++i) EXPECT_TRUE(m.is_idle(i));
}

TEST(MatchingTest, InverseIsConsistent) {
  const Matching m = Matching::cyclic_shift(7, 3);
  for (NodeId i = 0; i < 7; ++i) EXPECT_EQ(m.src_of(m.dst_of(i)), i);
}

TEST(MatchingTest, RejectsNonPermutation) {
  EXPECT_DEATH(Matching({0, 0, 1}), "not a permutation");
}

TEST(MatchingTest, RejectsOutOfRange) {
  EXPECT_DEATH(Matching({0, 5, 1}), "out of range");
}

TEST(MatchingTest, EqualityComparesMaps) {
  EXPECT_EQ(Matching::cyclic_shift(4, 1), Matching::cyclic_shift(4, 1));
  EXPECT_FALSE(Matching::cyclic_shift(4, 1) == Matching::cyclic_shift(4, 2));
}

// ---- Compact (shift) vs explicit representation ----

// Every accessor must agree between a compact matching and its explicit
// materialization — dst_of, src_of, is_idle, is_perfect, active_circuits,
// and operator== in both directions.
void expect_representation_equivalent(const Matching& compact) {
  ASSERT_TRUE(compact.is_compact());
  const Matching explicit_copy = compact.materialized();
  EXPECT_FALSE(explicit_copy.is_compact());
  ASSERT_EQ(explicit_copy.size(), compact.size());
  for (NodeId i = 0; i < compact.size(); ++i) {
    EXPECT_EQ(compact.dst_of(i), explicit_copy.dst_of(i)) << "node " << i;
    EXPECT_EQ(compact.src_of(i), explicit_copy.src_of(i)) << "node " << i;
    EXPECT_EQ(compact.is_idle(i), explicit_copy.is_idle(i)) << "node " << i;
    EXPECT_EQ(compact.src_of(compact.dst_of(i)), i) << "node " << i;
  }
  EXPECT_EQ(compact.is_perfect(), explicit_copy.is_perfect());
  EXPECT_EQ(compact.active_circuits(), explicit_copy.active_circuits());
  EXPECT_TRUE(compact == explicit_copy);
  EXPECT_TRUE(explicit_copy == compact);
}

TEST(MatchingTest, CompactFormsMatchExplicitMaterialization) {
  expect_representation_equivalent(Matching::idle(9));
  expect_representation_equivalent(Matching::cyclic_shift(16, 5));
  // SORN intra slot: per-clique shift, clique level unshifted.
  expect_representation_equivalent(Matching::radix_shift(1, 0, 4, 0, 8, 3));
  // SORN inter slot: clique shift + port rotation.
  expect_representation_equivalent(Matching::radix_shift(1, 0, 4, 2, 8, 5));
  // Hierarchical pod-level slot: cluster fixed, pod + index shifted.
  expect_representation_equivalent(Matching::radix_shift(2, 0, 3, 1, 4, 2));
  // orn-hd middle-digit shift: untouched digits above and below.
  expect_representation_equivalent(Matching::radix_shift(4, 0, 4, 3, 4, 0));
}

TEST(MatchingTest, RadixShiftMatchesHandBuiltPermutation) {
  // 2x3x4 = 24 nodes, digit shifts (1, 2, 3).
  const Matching m = Matching::radix_shift(2, 1, 3, 2, 4, 3);
  for (NodeId i = 0; i < 24; ++i) {
    const NodeId a = i / 12, b = (i / 4) % 3, c = i % 4;
    const NodeId want = ((a + 1) % 2) * 12 + ((b + 2) % 3) * 4 + (c + 3) % 4;
    EXPECT_EQ(m.dst_of(i), want) << "node " << i;
  }
}

TEST(MatchingTest, EqualityBridgesRepresentations) {
  // Compact vs explicit with the same permutation.
  const Matching compact = Matching::cyclic_shift(6, 2);
  EXPECT_TRUE(compact == compact.materialized());
  EXPECT_FALSE(compact == Matching::cyclic_shift(6, 3).materialized());
  // Different factorizations of the same shift canonicalize together: an
  // unshifted inner digit folds into the outer level, so (3, 1) over
  // (2, 0) is the cyclic shift by 2 over 6 nodes.
  EXPECT_TRUE(Matching::radix_shift(1, 0, 3, 1, 2, 0) ==
              Matching::cyclic_shift(6, 2));
  // Offsets reduce mod their radix.
  EXPECT_TRUE(Matching::cyclic_shift(5, 7) == Matching::cyclic_shift(5, 2));
  // An explicitly-built cyclic shift equals the compact one.
  EXPECT_TRUE(Matching({1, 2, 3, 0}) == Matching::cyclic_shift(4, 1));
}

TEST(MatchingTest, CompactFormOwnsNoHeap) {
  // The memory_bytes() bugfix: the shift form must report its true O(1)
  // footprint, not a phantom destination vector.
  const Matching compact = Matching::cyclic_shift(4096, 17);
  EXPECT_EQ(compact.memory_bytes(), 0u);
  const Matching explicit_copy = compact.materialized();
  EXPECT_GE(explicit_copy.memory_bytes(), 4096u * sizeof(NodeId));
  // >100x is the profiled-smoke gate at N=4096; at the unit level the
  // compact form is strictly free.
  EXPECT_GT(explicit_copy.memory_bytes(), 100u * (compact.memory_bytes() + 1));
}

// Every factorization n = n1 * n2 * n3 (each level's radix a divisor).
std::vector<std::array<NodeId, 3>> factorizations(NodeId n) {
  std::vector<std::array<NodeId, 3>> out;
  for (NodeId n1 = 1; n1 <= n; ++n1) {
    if (n % n1 != 0) continue;
    for (NodeId n2 = 1; n2 <= n / n1; ++n2)
      if ((n / n1) % n2 == 0) out.push_back({n1, n2, n / n1 / n2});
  }
  return out;
}

TEST(MatchingTest, ShiftDigitsMatchTheDivisionForm) {
  // The shift form splits a node id into digits by multiplying with a
  // reciprocal instead of dividing. Against the digit formula written
  // with `/` and `%`, every node of every factorization of these N —
  // powers of two up to the simulator's 65536-node cap, N with odd and
  // prime factors, and N past the cap — maps to the same destination,
  // and src_of inverts it.
  for (const NodeId n :
       {2, 3, 96, 4095, 4096, 65521, 65534, 65535, 65536, 65537, 196611}) {
    for (const auto& [n1, n2, n3] : factorizations(n)) {
      const NodeId k1 = n1 / 2, k2 = n2 - 1, k3 = n3 > 2 ? 1 : 0;
      const Matching m = Matching::radix_shift(n1, k1, n2, k2, n3, k3);
      for (NodeId i = 0; i < n; ++i) {
        const NodeId a = i / (n2 * n3), b = i / n3 % n2, c = i % n3;
        const NodeId want = (a + k1) % n1 * (n2 * n3) +
                            (b + k2) % n2 * n3 + (c + k3) % n3;
        ASSERT_EQ(m.dst_of(i), want)
            << n1 << "x" << n2 << "x" << n3 << " node " << i;
        ASSERT_EQ(m.src_of(want), i)
            << n1 << "x" << n2 << "x" << n3 << " node " << i;
      }
    }
  }
}

TEST(MatchingTest, ShiftFormIsIdleAllOrNothing) {
  const Matching idle = Matching::radix_shift(2, 0, 3, 0, 4, 0);
  EXPECT_EQ(idle.active_circuits(), 0);
  EXPECT_TRUE(idle == Matching::idle(24));
  for (NodeId i = 0; i < 24; ++i) EXPECT_TRUE(idle.is_idle(i));
  const Matching moved = Matching::radix_shift(2, 0, 3, 1, 4, 0);
  EXPECT_EQ(moved.active_circuits(), 24);
  for (NodeId i = 0; i < 24; ++i) EXPECT_FALSE(moved.is_idle(i));
}

TEST(MatchingSetTest, AwgrFamilyCoversAllPairs) {
  const MatchingSet set = MatchingSet::awgr_family(8);
  EXPECT_EQ(set.size(), 7u);
  EXPECT_TRUE(set.covers_all_pairs());
}

TEST(MatchingSetTest, FindLocatesMembers) {
  const MatchingSet set = MatchingSet::awgr_family(6);
  const auto idx = set.find(Matching::cyclic_shift(6, 3));
  ASSERT_TRUE(idx.has_value());
  EXPECT_EQ(*idx, 2u);  // k=1 at index 0
  EXPECT_FALSE(set.find(Matching::idle(6)).has_value());
}

TEST(MatchingSetTest, PartialFamilyDoesNotCoverAllPairs) {
  std::vector<Matching> partial{Matching::cyclic_shift(5, 1)};
  EXPECT_FALSE(MatchingSet(std::move(partial)).covers_all_pairs());
}

// Paper Fig. 2(b): the 8-node example provides matchings m1..m5; a set of
// cyclic shifts behaves as a wavelength table where row=source,
// column=matching.
TEST(MatchingSetTest, EveryMatchingIsPerfectInAwgrFamily) {
  const MatchingSet set = MatchingSet::awgr_family(8);
  for (std::size_t k = 0; k < set.size(); ++k)
    EXPECT_TRUE(set.at(k).is_perfect());
}

}  // namespace
}  // namespace sorn
