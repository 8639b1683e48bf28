// Schedules store each distinct matching once plus a slot order. For every
// builder that interleaves or dwells, each slot must still apply exactly
// the matching and kind an independent per-slot construction gives, the
// distinct count must be one matching per stream step, and the stored
// bytes must be O(distinct * N + period), not O(period * N).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <functional>
#include <limits>
#include <numeric>
#include <vector>

#include "topo/bvn.h"
#include "topo/schedule.h"
#include "topo/schedule_builder.h"
#include "util/rng.h"

namespace sorn {
namespace {

using DstMap = std::vector<NodeId>;

// A stream of the interleave: its step-k destination map and its kind.
struct RefStream {
  std::int64_t share = 0;
  std::int64_t cycle = 0;
  std::function<DstMap(std::int64_t)> at;
  SlotKind kind = SlotKind::kUniform;
};

// Bresenham pick of the two-stream SORN interleave, slot by slot: which
// stream slot t draws from and how many steps it has emitted before t.
std::vector<std::pair<int, std::int64_t>> two_stream_picks(
    std::int64_t intra_slots, std::int64_t inter_slots) {
  std::vector<std::pair<int, std::int64_t>> picks;
  std::int64_t ei = 0;
  std::int64_t ee = 0;
  for (std::int64_t t = 0; t < intra_slots + inter_slots; ++t) {
    if ((ei + 1) * inter_slots <= (ee + 1) * intra_slots && ei < intra_slots)
      picks.emplace_back(0, ei++);
    else
      picks.emplace_back(1, ee++);
  }
  return picks;
}

// Largest-deficit pick of the k-stream interleave, slot by slot.
std::vector<std::pair<int, std::int64_t>> multi_stream_picks(
    const std::vector<std::int64_t>& share, std::int64_t m) {
  const std::int64_t share_sum =
      std::accumulate(share.begin(), share.end(), std::int64_t{0});
  std::vector<std::int64_t> emitted(share.size(), 0);
  std::vector<std::pair<int, std::int64_t>> picks;
  for (std::int64_t t = 0; t < share_sum * m; ++t) {
    int best = -1;
    std::int64_t best_deficit = std::numeric_limits<std::int64_t>::min();
    for (std::size_t i = 0; i < share.size(); ++i) {
      if (emitted[i] >= share[i] * m) continue;
      const std::int64_t deficit = share[i] * (t + 1) - emitted[i] * share_sum;
      if (deficit > best_deficit) {
        best_deficit = deficit;
        best = static_cast<int>(i);
      }
    }
    picks.emplace_back(best, emitted[static_cast<std::size_t>(best)]++);
  }
  return picks;
}

std::int64_t closure(std::int64_t share, std::int64_t cycle) {
  return cycle / std::gcd(share, cycle);
}

// Slot t of `s` applies picks[t]'s stream step, matching and kind alike.
void expect_slots(const CircuitSchedule& s,
                  const std::vector<std::pair<int, std::int64_t>>& picks,
                  const std::vector<RefStream>& streams) {
  ASSERT_EQ(s.period(), static_cast<Slot>(picks.size()));
  for (Slot t = 0; t < s.period(); ++t) {
    const auto& [stream, emitted] = picks[static_cast<std::size_t>(t)];
    const RefStream& ref = streams[static_cast<std::size_t>(stream)];
    ASSERT_TRUE(s.matching_at(t) == Matching(ref.at(emitted % ref.cycle)))
        << "slot " << t;
    ASSERT_EQ(s.kind_at(t), ref.kind) << "slot " << t;
  }
}

void expect_compact_storage(const CircuitSchedule& s) {
  const auto n = static_cast<std::uint64_t>(s.node_count());
  const auto bound =
      s.distinct_count() * (sizeof(Matching) + 4 * n) +
      5 * static_cast<std::uint64_t>(s.period()) + 256;
  EXPECT_LE(s.memory_bytes(), bound);
}

// Clique c's members in the order CliqueAssignment lists them.
std::vector<std::vector<NodeId>> members_of(const std::vector<CliqueId>& of,
                                            CliqueId nc) {
  std::vector<std::vector<NodeId>> members(static_cast<std::size_t>(nc));
  for (std::size_t i = 0; i < of.size(); ++i)
    members[static_cast<std::size_t>(of[i])].push_back(
        static_cast<NodeId>(i));
  return members;
}

std::vector<CliqueId> shuffled_grouping(NodeId n, CliqueId nc,
                                        std::uint64_t seed) {
  std::vector<CliqueId> of(static_cast<std::size_t>(n));
  for (NodeId i = 0; i < n; ++i)
    of[static_cast<std::size_t>(i)] = i / (n / nc);
  Rng rng(seed);
  rng.shuffle(of);
  return of;
}

// Intra step k: within every clique, member idx sends to member
// (idx + 1 + k mod (s-1)) mod s.
RefStream intra_stream(const std::vector<std::vector<NodeId>>& members,
                       NodeId n) {
  const auto s = static_cast<std::int64_t>(members.front().size());
  RefStream r;
  r.cycle = s - 1;
  r.kind = SlotKind::kIntra;
  r.at = [members, n, s](std::int64_t k) {
    DstMap dst(static_cast<std::size_t>(n));
    for (const auto& clique : members)
      for (std::int64_t idx = 0; idx < s; ++idx)
        dst[static_cast<std::size_t>(clique[static_cast<std::size_t>(idx)])] =
            clique[static_cast<std::size_t>((idx + 1 + k % (s - 1)) % s)];
    return dst;
  };
  return r;
}

TEST(DistinctScheduleTest, SornOnNonContiguousCliques) {
  constexpr NodeId kNodes = 48;
  constexpr CliqueId kCliques = 4;
  const std::vector<CliqueId> of = shuffled_grouping(kNodes, kCliques, 11);
  const CliqueAssignment cliques(of);
  ASSERT_FALSE(cliques.contiguous_equal_blocks());
  const Rational q{9, 2};
  const CircuitSchedule s = ScheduleBuilder::sorn(cliques, q);

  const auto members = members_of(of, kCliques);
  const std::int64_t size = kNodes / kCliques;
  RefStream inter;
  inter.cycle = (kCliques - 1) * size;
  inter.kind = SlotKind::kInter;
  // Inter step k: clique shift 1 + k mod (nc-1), port rotation
  // (k / (nc-1)) mod s.
  inter.at = [&](std::int64_t k) {
    DstMap dst(static_cast<std::size_t>(kNodes));
    const std::int64_t shift = 1 + k % (kCliques - 1);
    const std::int64_t rho = (k / (kCliques - 1)) % size;
    for (CliqueId c = 0; c < kCliques; ++c)
      for (std::int64_t j = 0; j < size; ++j)
        dst[static_cast<std::size_t>(
            members[static_cast<std::size_t>(c)][static_cast<std::size_t>(
                j)])] = members[static_cast<std::size_t>((c + shift) %
                                                         kCliques)]
                               [static_cast<std::size_t>((j + rho) % size)];
    return dst;
  };
  const std::vector<RefStream> streams{intra_stream(members, kNodes), inter};
  const std::int64_t m = std::lcm(closure(q.num, streams[0].cycle),
                                  closure(q.den, streams[1].cycle));
  expect_slots(s, two_stream_picks(q.num * m, q.den * m), streams);

  EXPECT_EQ(s.distinct_count(),
            static_cast<std::size_t>(streams[0].cycle + streams[1].cycle));
  EXPECT_LT(static_cast<Slot>(s.distinct_count()) * 40, s.period());
  expect_compact_storage(s);
}

TEST(DistinctScheduleTest, SornWeightedOnNonContiguousCliques) {
  constexpr NodeId kNodes = 24;
  constexpr CliqueId kCliques = 4;
  const std::vector<CliqueId> of = shuffled_grouping(kNodes, kCliques, 5);
  const CliqueAssignment cliques(of);
  std::vector<double> weights(kCliques * kCliques, 0.0);
  Rng rng(3);
  for (CliqueId a = 0; a < kCliques; ++a)
    for (CliqueId b = 0; b < kCliques; ++b)
      if (a != b)
        weights[static_cast<std::size_t>(a * kCliques + b)] =
            rng.next_double();
  const Rational q{3, 1};
  const ScheduleBuilder::WeightedOptions options;
  const CircuitSchedule s =
      ScheduleBuilder::sorn_weighted(cliques, q, weights, options);

  // The emission list of BvN terms, quantized and spread by largest
  // remainder exactly as the builder documents.
  const BvnDecomposition bvn = BvnDecomposition::compute(
      mix_with_uniform(weights, kCliques, options.demand_alpha), kCliques,
      options.bvn);
  const auto& terms = bvn.terms();
  std::vector<std::int64_t> count(terms.size());
  std::int64_t len = 0;
  for (std::size_t i = 0; i < terms.size(); ++i) {
    count[i] = std::max<std::int64_t>(
        1, std::llround(terms[i].coeff / bvn.total_coefficient() *
                        options.emission_slots));
    len += count[i];
  }
  std::vector<std::size_t> emission;
  std::vector<std::int64_t> used(terms.size(), 0);
  for (std::int64_t p = 0; p < len; ++p) {
    std::size_t best = 0;
    std::int64_t best_deficit = std::numeric_limits<std::int64_t>::min();
    for (std::size_t i = 0; i < terms.size(); ++i) {
      const std::int64_t deficit = count[i] * (p + 1) - used[i] * len;
      if (deficit > best_deficit && used[i] < count[i] * (p / len + 1)) {
        best_deficit = deficit;
        best = i;
      }
    }
    emission.push_back(best);
    ++used[best];
  }

  const auto members = members_of(of, kCliques);
  const std::int64_t size = kNodes / kCliques;
  RefStream inter;
  inter.cycle = size * len;
  inter.kind = SlotKind::kInter;
  // Inter step k applies term emission[k mod len], rotated by how many
  // earlier steps applied the same term.
  inter.at = [&](std::int64_t k) {
    const std::size_t term = emission[static_cast<std::size_t>(k % len)];
    std::int64_t rho = 0;
    for (std::int64_t e = 0; e < k; ++e)
      if (emission[static_cast<std::size_t>(e % len)] == term) ++rho;
    rho %= size;
    DstMap dst(static_cast<std::size_t>(kNodes));
    for (CliqueId c = 0; c < kCliques; ++c) {
      const CliqueId to = terms[term].perm[static_cast<std::size_t>(c)];
      for (std::int64_t j = 0; j < size; ++j)
        dst[static_cast<std::size_t>(
            members[static_cast<std::size_t>(c)][static_cast<std::size_t>(
                j)])] = members[static_cast<std::size_t>(to)]
                               [static_cast<std::size_t>((j + rho) % size)];
    }
    return dst;
  };
  const std::vector<RefStream> streams{intra_stream(members, kNodes), inter};
  const std::int64_t m = std::lcm(closure(q.num, streams[0].cycle),
                                  closure(q.den, streams[1].cycle));
  expect_slots(s, two_stream_picks(q.num * m, q.den * m), streams);

  EXPECT_EQ(s.distinct_count(),
            static_cast<std::size_t>(streams[0].cycle + streams[1].cycle));
  expect_compact_storage(s);
}

// 3 clusters x 2 pods x 4 nodes; node = cluster*8 + pod*4 + index.
constexpr NodeId kPod = 4;
constexpr CliqueId kPods = 2;
constexpr CliqueId kClusters = 3;
constexpr NodeId kCluster = kPod * kPods;

TEST(DistinctScheduleTest, SornHierarchical) {
  constexpr NodeId kNodes = kCluster * kClusters;
  const Hierarchy h = Hierarchy::regular(kNodes, kClusters, kPods);
  const ScheduleBuilder::HierShares shares{3, 2, 1};
  const CircuitSchedule s = ScheduleBuilder::sorn_hierarchical(h, shares);

  auto map = [](const std::function<NodeId(NodeId, NodeId, NodeId)>& to) {
    DstMap dst(static_cast<std::size_t>(kCluster * kClusters));
    for (std::size_t i = 0; i < dst.size(); ++i) {
      const auto node = static_cast<NodeId>(i);
      dst[i] = to(node / kCluster, (node % kCluster) / kPod, node % kPod);
    }
    return dst;
  };
  RefStream intra{shares.intra, kPod - 1, [&](std::int64_t k) {
                    const auto o = static_cast<NodeId>(1 + k % (kPod - 1));
                    return map([o](NodeId c, NodeId p, NodeId i) {
                      return c * kCluster + p * kPod + (i + o) % kPod;
                    });
                  },
                  SlotKind::kIntra};
  RefStream inter{shares.inter, (kPods - 1) * kPod, [&](std::int64_t k) {
                    const auto shift = static_cast<NodeId>(1 + k % (kPods - 1));
                    const auto rho = static_cast<NodeId>((k / (kPods - 1)) % kPod);
                    return map([shift, rho](NodeId c, NodeId p, NodeId i) {
                      return c * kCluster + ((p + shift) % kPods) * kPod +
                             (i + rho) % kPod;
                    });
                  },
                  SlotKind::kInter};
  RefStream global{
      shares.global, (kClusters - 1) * kCluster,
      [&](std::int64_t k) {
        const auto shift = static_cast<NodeId>(1 + k % (kClusters - 1));
        const auto rho = static_cast<NodeId>((k / (kClusters - 1)) % kCluster);
        return map([shift, rho](NodeId c, NodeId p, NodeId i) {
          return ((c + shift) % kClusters) * kCluster +
                 (p * kPod + i + rho) % kCluster;
        });
      },
      SlotKind::kGlobal};
  const std::vector<RefStream> streams{intra, inter, global};
  std::int64_t m = 1;
  for (const RefStream& r : streams) m = std::lcm(m, closure(r.share, r.cycle));
  expect_slots(s, multi_stream_picks({3, 2, 1}, m), streams);

  EXPECT_EQ(s.distinct_count(),
            static_cast<std::size_t>(intra.cycle + inter.cycle + global.cycle));
  EXPECT_LT(static_cast<Slot>(s.distinct_count()), s.period());
  expect_compact_storage(s);
}

TEST(DistinctScheduleTest, RotorHoldsEachShiftForItsDwell) {
  constexpr NodeId kNodes = 12;
  constexpr Slot kDwell = 5;
  const CircuitSchedule s = ScheduleBuilder::rotor(kNodes, kDwell);
  ASSERT_EQ(s.period(), (kNodes - 1) * kDwell);
  for (Slot t = 0; t < s.period(); ++t) {
    DstMap dst(static_cast<std::size_t>(kNodes));
    for (NodeId i = 0; i < kNodes; ++i)
      dst[static_cast<std::size_t>(i)] =
          static_cast<NodeId>((i + 1 + t / kDwell) % kNodes);
    ASSERT_TRUE(s.matching_at(t) == Matching(dst)) << "slot " << t;
    ASSERT_EQ(s.kind_at(t), SlotKind::kUniform);
  }
  EXPECT_EQ(s.distinct_count(), static_cast<std::size_t>(kNodes - 1));
  expect_compact_storage(s);
}

TEST(DistinctScheduleTest, RotorRandomHoldsEachRoundForItsDwell) {
  constexpr NodeId kNodes = 16;
  constexpr Slot kDwell = 7;
  constexpr std::uint64_t kSeed = 42;
  const CircuitSchedule s = ScheduleBuilder::rotor_random(kNodes, kDwell, kSeed);

  // The circle-method 1-factorization under the builder's seeded node
  // relabeling and round order.
  Rng rng(kSeed);
  std::vector<NodeId> label(kNodes);
  std::iota(label.begin(), label.end(), 0);
  rng.shuffle(label);
  std::vector<NodeId> rounds(kNodes - 1);
  std::iota(rounds.begin(), rounds.end(), 0);
  rng.shuffle(rounds);

  ASSERT_EQ(s.period(), (kNodes - 1) * kDwell);
  for (Slot t = 0; t < s.period(); ++t) {
    const NodeId r = rounds[static_cast<std::size_t>(t / kDwell)];
    DstMap dst(kNodes);
    auto pair_up = [&](NodeId a, NodeId b) {
      dst[static_cast<std::size_t>(label[static_cast<std::size_t>(a)])] =
          label[static_cast<std::size_t>(b)];
      dst[static_cast<std::size_t>(label[static_cast<std::size_t>(b)])] =
          label[static_cast<std::size_t>(a)];
    };
    pair_up(kNodes - 1, r);
    for (NodeId i = 1; i < kNodes / 2; ++i)
      pair_up((r + i) % (kNodes - 1), (r - i + kNodes - 1) % (kNodes - 1));
    ASSERT_TRUE(s.matching_at(t) == Matching(dst)) << "slot " << t;
    ASSERT_EQ(s.kind_at(t), SlotKind::kUniform);
  }
  EXPECT_EQ(s.distinct_count(), static_cast<std::size_t>(kNodes - 1));
  expect_compact_storage(s);
}

TEST(DistinctScheduleTest, EmptyOrderIsOneMatchingPerSlot) {
  std::vector<Matching> slots{Matching::cyclic_shift(4, 1),
                              Matching::cyclic_shift(4, 2),
                              Matching::cyclic_shift(4, 1)};
  const CircuitSchedule s(std::move(slots),
                          {SlotKind::kIntra, SlotKind::kInter,
                           SlotKind::kIntra});
  EXPECT_EQ(s.period(), 3);
  EXPECT_EQ(s.distinct_count(), 3u);
  EXPECT_EQ(s.dst_of(0, 4), 2);  // slot 4 wraps to slot 1
  EXPECT_EQ(s.kind_at(4), SlotKind::kInter);
}

TEST(DistinctScheduleTest, OrderWalksDistinctMatchings) {
  const CircuitSchedule s(
      {Matching::cyclic_shift(4, 1), Matching::cyclic_shift(4, 3)},
      {SlotKind::kIntra, SlotKind::kInter}, {0, 0, 1, 0, 1});
  EXPECT_EQ(s.period(), 5);
  EXPECT_EQ(s.distinct_count(), 2u);
  EXPECT_EQ(s.dst_of(0, 2), 3);
  EXPECT_EQ(s.dst_of(0, 8), 1);  // slot 8 wraps to slot 3
  EXPECT_DOUBLE_EQ(s.kind_fraction(SlotKind::kInter), 0.4);
  EXPECT_DOUBLE_EQ(s.edge_fraction(0, 1), 0.6);
}

TEST(DistinctScheduleTest, RejectsBadOrders) {
  const std::vector<Matching> two{Matching::cyclic_shift(4, 1),
                                  Matching::cyclic_shift(4, 2)};
  EXPECT_DEATH(CircuitSchedule(two, {}, {0, 2}), "out of range");
  EXPECT_DEATH(CircuitSchedule(two, {}, {0, 0}), "must appear");
}

}  // namespace
}  // namespace sorn
