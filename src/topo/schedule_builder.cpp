#include "topo/schedule_builder.h"

#include <cmath>
#include <functional>
#include <limits>
#include <numeric>

#include "util/assert.h"
#include "util/rng.h"

namespace sorn {
namespace {

// Smallest m such that (a * m) % cycle == 0; cycle == 0 means "no cycle to
// complete" and yields 1.
std::int64_t closure_multiplier(std::int64_t a, std::int64_t cycle) {
  if (cycle == 0) return 1;
  return cycle / std::gcd(a, cycle);
}

// The matching for intra-clique round-robin step t: within every clique,
// position idx connects to position (idx + o) mod size with offset
// o = 1 + (t mod (size-1)). Cliques advance their own cycles, so unequal
// sizes are fine; size-1 cliques idle.
Matching intra_matching(const CliqueAssignment& cliques, std::int64_t t) {
  if (cliques.contiguous_equal_blocks()) {
    // Block layout: every clique is the same size s and owns nodes
    // [c*s, (c+1)*s), so the slot is a block-local cyclic shift —
    // O(1) state instead of an O(n) permutation vector.
    const NodeId s = cliques.clique_size(0);
    if (s < 2) return Matching::idle(cliques.node_count());
    const auto o = static_cast<NodeId>(1 + (t % (s - 1)));
    return Matching::radix_shift(
        1, 0, static_cast<NodeId>(cliques.clique_count()), 0, s, o);
  }
  const NodeId n = cliques.node_count();
  std::vector<NodeId> dst(static_cast<std::size_t>(n));
  for (NodeId i = 0; i < n; ++i) dst[static_cast<std::size_t>(i)] = i;
  for (CliqueId c = 0; c < cliques.clique_count(); ++c) {
    const auto& members = cliques.members(c);
    const auto s = static_cast<std::int64_t>(members.size());
    if (s < 2) continue;
    const std::int64_t o = 1 + (t % (s - 1));
    for (std::int64_t idx = 0; idx < s; ++idx) {
      dst[static_cast<std::size_t>(members[static_cast<std::size_t>(idx)])] =
          members[static_cast<std::size_t>((idx + o) % s)];
    }
  }
  return Matching(std::move(dst));
}

// The matching for inter-clique round-robin step t. Requires equal-sized
// cliques (size s, count nc): with clique shift k = 1 + (t mod (nc-1)) and
// port rotation rho = (t / (nc-1)) mod s, node (c, j) connects to
// (c + k mod nc, (j + rho) mod s). Over a full cycle of (nc-1)*s steps every
// node is connected once to every node of every other clique, preserving the
// "fixed superset of neighbors" property (paper Sec. 5).
Matching inter_matching(const CliqueAssignment& cliques, std::int64_t t) {
  const NodeId n = cliques.node_count();
  const std::int64_t nc = cliques.clique_count();
  const std::int64_t s = cliques.clique_size(0);
  const std::int64_t k = 1 + (t % (nc - 1));
  const std::int64_t rho = (t / (nc - 1)) % s;
  if (cliques.contiguous_equal_blocks()) {
    // Block layout: (c, j) -> (c + k, j + rho) is a two-level shift.
    return Matching::radix_shift(1, 0, static_cast<NodeId>(nc),
                                 static_cast<NodeId>(k),
                                 static_cast<NodeId>(s),
                                 static_cast<NodeId>(rho));
  }
  std::vector<NodeId> dst(static_cast<std::size_t>(n));
  for (NodeId i = 0; i < n; ++i) {
    const std::int64_t c = cliques.clique_of(i);
    const std::int64_t j = cliques.index_in_clique(i);
    const auto cp = static_cast<CliqueId>((c + k) % nc);
    const auto jp = static_cast<std::size_t>((j + rho) % s);
    dst[static_cast<std::size_t>(i)] = cliques.members(cp)[jp];
  }
  return Matching(std::move(dst));
}

// The matchings of one full stream cycle, built once each: a schedule
// that interleaves streams stores these and walks them with its slot
// order, so building it costs O(cycle) matchings instead of O(period).
// Appends to matchings/kinds and returns the index of the first one.
std::uint32_t append_cycle(std::vector<Matching>& matchings,
                           std::vector<SlotKind>& kinds, std::int64_t cycle,
                           const std::function<Matching(std::int64_t)>& at,
                           SlotKind kind) {
  const auto base = static_cast<std::uint32_t>(matchings.size());
  for (std::int64_t t = 0; t < cycle; ++t) {
    matchings.push_back(at(t));
    kinds.push_back(kind);
  }
  return base;
}

// Bresenham interleave of an intra stream (cycle length intra_cycle,
// generator intra_at) and an inter stream (cycle length inter_cycle,
// generator inter_at) in the exact ratio q. Shared by sorn() and
// sorn_weighted().
CircuitSchedule interleave_streams(
    Rational q, std::int64_t intra_cycle, std::int64_t inter_cycle,
    const std::function<Matching(std::int64_t)>& intra_at,
    const std::function<Matching(std::int64_t)>& inter_at, Slot max_period) {
  const std::int64_t m = std::lcm(closure_multiplier(q.num, intra_cycle),
                                  closure_multiplier(q.den, inter_cycle));
  const std::int64_t intra_slots = q.num * m;
  const std::int64_t inter_slots = q.den * m;
  const std::int64_t period = intra_slots + inter_slots;
  SORN_ASSERT(period <= max_period,
              "SORN schedule period too large; coarsen q with "
              "Rational::approximate");

  std::vector<Matching> matchings;
  std::vector<SlotKind> kinds;
  matchings.reserve(static_cast<std::size_t>(intra_cycle + inter_cycle));
  kinds.reserve(static_cast<std::size_t>(intra_cycle + inter_cycle));
  const std::uint32_t intra_base = append_cycle(
      matchings, kinds, intra_cycle, intra_at, SlotKind::kIntra);
  const std::uint32_t inter_base = append_cycle(
      matchings, kinds, inter_cycle, inter_at, SlotKind::kInter);

  std::vector<std::uint32_t> order;
  order.reserve(static_cast<std::size_t>(period));
  std::int64_t emitted_intra = 0;
  std::int64_t emitted_inter = 0;
  for (std::int64_t t = 0; t < period; ++t) {
    const bool pick_intra =
        (emitted_intra + 1) * inter_slots <= (emitted_inter + 1) * intra_slots;
    if (pick_intra && emitted_intra < intra_slots) {
      order.push_back(intra_base + static_cast<std::uint32_t>(
                                       emitted_intra % intra_cycle));
      ++emitted_intra;
    } else {
      order.push_back(inter_base + static_cast<std::uint32_t>(
                                       emitted_inter % inter_cycle));
      ++emitted_inter;
    }
  }
  SORN_ASSERT(emitted_intra == intra_slots && emitted_inter == inter_slots,
              "interleave accounting error");
  return CircuitSchedule(std::move(matchings), std::move(kinds),
                         std::move(order));
}

// Generalized largest-remainder interleave of k periodic streams with
// integer share weights. Streams with share 0 are skipped entirely.
struct Stream {
  std::int64_t share = 0;
  std::int64_t cycle = 0;  // matchings per full stream cycle
  std::function<Matching(std::int64_t)> at;
  SlotKind kind = SlotKind::kUniform;
};

CircuitSchedule interleave_multi(std::vector<Stream> streams,
                                 Slot max_period) {
  // Closure: emit share_i * m matchings of stream i with the smallest m
  // completing every active stream's cycle.
  std::int64_t m = 1;
  std::int64_t share_sum = 0;
  std::int64_t distinct = 0;
  for (const Stream& s : streams) {
    if (s.share == 0) continue;
    SORN_ASSERT(s.cycle > 0, "active stream must have a cycle");
    m = std::lcm(m, closure_multiplier(s.share, s.cycle));
    share_sum += s.share;
    distinct += s.cycle;
  }
  SORN_ASSERT(share_sum > 0, "at least one stream must be active");
  std::int64_t period = share_sum * m;
  SORN_ASSERT(period <= max_period,
              "schedule period too large; coarsen the shares");

  std::vector<Matching> matchings;
  std::vector<SlotKind> kinds;
  matchings.reserve(static_cast<std::size_t>(distinct));
  kinds.reserve(static_cast<std::size_t>(distinct));
  std::vector<std::uint32_t> base(streams.size(), 0);
  std::vector<std::int64_t> target(streams.size(), 0);
  std::vector<std::int64_t> emitted(streams.size(), 0);
  for (std::size_t i = 0; i < streams.size(); ++i) {
    target[i] = streams[i].share * m;
    if (streams[i].share > 0)
      base[i] = append_cycle(matchings, kinds, streams[i].cycle,
                             streams[i].at, streams[i].kind);
  }

  std::vector<std::uint32_t> order;
  order.reserve(static_cast<std::size_t>(period));
  for (std::int64_t t = 0; t < period; ++t) {
    // Emit the stream furthest behind its proportional target.
    std::size_t best = streams.size();
    std::int64_t best_deficit = std::numeric_limits<std::int64_t>::min();
    for (std::size_t i = 0; i < streams.size(); ++i) {
      if (emitted[i] >= target[i]) continue;
      const std::int64_t deficit =
          streams[i].share * (t + 1) - emitted[i] * share_sum;
      if (deficit > best_deficit) {
        best_deficit = deficit;
        best = i;
      }
    }
    SORN_ASSERT(best < streams.size(), "interleave ran out of streams");
    order.push_back(base[best] + static_cast<std::uint32_t>(
                                     emitted[best] % streams[best].cycle));
    ++emitted[best];
  }
  return CircuitSchedule(std::move(matchings), std::move(kinds),
                         std::move(order));
}

// Each of `rounds` matchings held for `dwell` consecutive slots.
std::vector<std::uint32_t> dwell_order(std::size_t rounds, Slot dwell) {
  std::vector<std::uint32_t> order;
  order.reserve(rounds * static_cast<std::size_t>(dwell));
  for (std::size_t r = 0; r < rounds; ++r)
    order.insert(order.end(), static_cast<std::size_t>(dwell),
                 static_cast<std::uint32_t>(r));
  return order;
}

}  // namespace

Rational Rational::approximate(double v, std::int64_t max_den) {
  SORN_ASSERT(v > 0.0, "can only approximate positive ratios");
  SORN_ASSERT(max_den >= 1, "max_den must be at least 1");
  // Continued-fraction expansion, truncated when the denominator would
  // exceed max_den.
  std::int64_t p0 = 0, q0 = 1, p1 = 1, q1 = 0;
  double x = v;
  for (int iter = 0; iter < 64; ++iter) {
    const auto a = static_cast<std::int64_t>(std::floor(x));
    const std::int64_t p2 = a * p1 + p0;
    const std::int64_t q2 = a * q1 + q0;
    if (q2 > max_den) break;
    p0 = p1;
    q0 = q1;
    p1 = p2;
    q1 = q2;
    const double frac = x - static_cast<double>(a);
    if (frac < 1e-12) break;
    x = 1.0 / frac;
  }
  if (q1 == 0) return {1, 1};
  return {p1, q1};
}

CircuitSchedule ScheduleBuilder::round_robin(NodeId n) {
  SORN_ASSERT(n >= 2, "round robin needs at least two nodes");
  std::vector<Matching> slots;
  slots.reserve(static_cast<std::size_t>(n) - 1);
  for (NodeId k = 1; k < n; ++k) slots.push_back(Matching::cyclic_shift(n, k));
  return CircuitSchedule(std::move(slots));
}

CircuitSchedule ScheduleBuilder::rotor(NodeId n, Slot dwell) {
  SORN_ASSERT(n >= 2, "rotor needs at least two nodes");
  SORN_ASSERT(dwell >= 1, "dwell must be at least one slot");
  std::vector<Matching> rounds;
  rounds.reserve(static_cast<std::size_t>(n - 1));
  for (NodeId k = 1; k < n; ++k) rounds.push_back(Matching::cyclic_shift(n, k));
  std::vector<std::uint32_t> order = dwell_order(rounds.size(), dwell);
  return CircuitSchedule(std::move(rounds), {}, std::move(order));
}

CircuitSchedule ScheduleBuilder::rotor_random(NodeId n, Slot dwell,
                                              std::uint64_t seed) {
  SORN_ASSERT(n >= 4 && n % 2 == 0, "rotor_random requires even n >= 4");
  SORN_ASSERT(dwell >= 1, "dwell must be at least one slot");
  Rng rng(seed);
  // Random relabeling of nodes.
  std::vector<NodeId> label(static_cast<std::size_t>(n));
  for (NodeId i = 0; i < n; ++i) label[static_cast<std::size_t>(i)] = i;
  rng.shuffle(label);
  // Random round order.
  std::vector<NodeId> rounds(static_cast<std::size_t>(n - 1));
  for (NodeId r = 0; r < n - 1; ++r) rounds[static_cast<std::size_t>(r)] = r;
  rng.shuffle(rounds);

  std::vector<Matching> matchings;
  matchings.reserve(rounds.size());
  for (const NodeId r : rounds) {
    // Circle method, round r: hub (n-1) pairs with r; (r+i) with (r-i).
    std::vector<NodeId> dst(static_cast<std::size_t>(n));
    auto pair_up = [&](NodeId a, NodeId b) {
      dst[static_cast<std::size_t>(label[static_cast<std::size_t>(a)])] =
          label[static_cast<std::size_t>(b)];
      dst[static_cast<std::size_t>(label[static_cast<std::size_t>(b)])] =
          label[static_cast<std::size_t>(a)];
    };
    pair_up(n - 1, r);
    for (NodeId i = 1; i < n / 2; ++i) {
      const auto a = static_cast<NodeId>((r + i) % (n - 1));
      const auto b = static_cast<NodeId>((r - i + (n - 1)) % (n - 1));
      pair_up(a, b);
    }
    matchings.emplace_back(std::move(dst));
  }
  std::vector<std::uint32_t> order = dwell_order(matchings.size(), dwell);
  return CircuitSchedule(std::move(matchings), {}, std::move(order));
}

CircuitSchedule ScheduleBuilder::orn_hd(NodeId n, int h) {
  SORN_ASSERT(h >= 1, "dimension must be at least 1");
  // Find integer r with r^h == n.
  auto r = static_cast<NodeId>(std::llround(
      std::pow(static_cast<double>(n), 1.0 / static_cast<double>(h))));
  std::int64_t check = 1;
  for (int d = 0; d < h; ++d) check *= r;
  SORN_ASSERT(check == n, "orn_hd requires n to be a perfect h-th power");
  SORN_ASSERT(r >= 2, "each dimension must have at least two coordinates");

  std::vector<Matching> slots;
  slots.reserve(static_cast<std::size_t>(h) * static_cast<std::size_t>(r - 1));
  std::int64_t stride = 1;
  for (int d = 0; d < h; ++d) {
    // Shift one base-r digit: a three-level shift with the moving digit in
    // the middle and the untouched high/low digits around it.
    const auto hi = static_cast<NodeId>(n / (stride * r));
    for (NodeId k = 1; k < r; ++k)
      slots.push_back(Matching::radix_shift(hi, 0, r, k,
                                            static_cast<NodeId>(stride), 0));
    stride *= r;
  }
  return CircuitSchedule(std::move(slots));
}

CircuitSchedule ScheduleBuilder::orn_mixed(
    NodeId n, const std::vector<NodeId>& radices) {
  SORN_ASSERT(!radices.empty(), "need at least one radix");
  std::int64_t product = 1;
  for (const NodeId r : radices) {
    SORN_ASSERT(r >= 2, "each radix must be at least 2");
    product *= r;
  }
  SORN_ASSERT(product == n, "radices must multiply to n");

  std::vector<Matching> slots;
  std::int64_t stride = 1;
  for (const NodeId r : radices) {
    const auto hi = static_cast<NodeId>(n / (stride * r));
    for (NodeId k = 1; k < r; ++k)
      slots.push_back(Matching::radix_shift(hi, 0, r, k,
                                            static_cast<NodeId>(stride), 0));
    stride *= r;
  }
  return CircuitSchedule(std::move(slots));
}

CircuitSchedule ScheduleBuilder::sorn(const CliqueAssignment& cliques,
                                      Rational q, Slot max_period) {
  SORN_ASSERT(q.num >= 1 && q.den >= 1, "q must be a positive rational");
  SORN_ASSERT(q.num >= q.den, "oversubscription q must be >= 1");
  const CliqueId nc = cliques.clique_count();

  // Intra cycle length: lcm over cliques of (size - 1); 0 when no clique
  // has an intra link.
  std::int64_t intra_cycle = 0;
  for (CliqueId c = 0; c < nc; ++c) {
    const std::int64_t s = cliques.clique_size(c);
    if (s >= 2) {
      intra_cycle = intra_cycle == 0 ? s - 1 : std::lcm(intra_cycle, s - 1);
    }
  }
  const bool has_inter = nc >= 2;
  const bool has_intra = intra_cycle > 0;

  if (!has_inter) {
    // Single clique: a flat round robin over its members, tagged intra.
    SORN_ASSERT(has_intra, "a single clique of size 1 has no circuits");
    std::vector<Matching> slots;
    std::vector<SlotKind> kinds;
    for (std::int64_t t = 0; t < intra_cycle; ++t) {
      slots.push_back(intra_matching(cliques, t));
      kinds.push_back(SlotKind::kIntra);
    }
    return CircuitSchedule(std::move(slots), std::move(kinds));
  }

  if (has_intra) {
    SORN_ASSERT(cliques.equal_sized(),
                "inter-clique matchings require equal-sized cliques");
  }
  const std::int64_t s = cliques.clique_size(0);
  const std::int64_t inter_cycle = static_cast<std::int64_t>(nc - 1) * s;

  if (!has_intra) {
    // All cliques are singletons: pure inter round robin (flat ORN over
    // cliques), tagged inter.
    std::vector<Matching> slots;
    std::vector<SlotKind> kinds;
    for (std::int64_t t = 0; t < inter_cycle; ++t) {
      slots.push_back(inter_matching(cliques, t));
      kinds.push_back(SlotKind::kInter);
    }
    return CircuitSchedule(std::move(slots), std::move(kinds));
  }

  return interleave_streams(
      q, intra_cycle, inter_cycle,
      [&cliques](std::int64_t t) { return intra_matching(cliques, t); },
      [&cliques](std::int64_t t) { return inter_matching(cliques, t); },
      max_period);
}

CircuitSchedule ScheduleBuilder::sorn_weighted(
    const CliqueAssignment& cliques, Rational q,
    const std::vector<double>& clique_weights, const WeightedOptions& options,
    Slot max_period) {
  SORN_ASSERT(q.num >= 1 && q.den >= 1 && q.num >= q.den,
              "q must be a rational >= 1");
  const CliqueId nc = cliques.clique_count();
  SORN_ASSERT(nc >= 2, "weighted schedules need at least two cliques");
  SORN_ASSERT(cliques.equal_sized(),
              "inter-clique matchings require equal-sized cliques");
  const std::int64_t s = cliques.clique_size(0);

  // Decompose the (uniform-floored) demand into clique permutations.
  const std::vector<double> mixed =
      mix_with_uniform(clique_weights, nc, options.demand_alpha);
  const BvnDecomposition bvn =
      BvnDecomposition::compute(mixed, nc, options.bvn);

  // Quantize coefficients into an emission list of sigma indices. Every
  // term gets at least one slot so every clique pair stays connected.
  const auto& terms = bvn.terms();
  const double total = bvn.total_coefficient();
  std::vector<std::int64_t> count(terms.size());
  std::int64_t emission_len = 0;
  for (std::size_t i = 0; i < terms.size(); ++i) {
    count[i] = std::max<std::int64_t>(
        1, std::llround(terms[i].coeff / total * options.emission_slots));
    emission_len += count[i];
  }
  // Largest-remainder spread of the sigma indices across the list.
  std::vector<std::size_t> emission;
  emission.reserve(static_cast<std::size_t>(emission_len));
  std::vector<std::int64_t> emitted(terms.size(), 0);
  for (std::int64_t p = 0; p < emission_len; ++p) {
    std::size_t best = 0;
    std::int64_t best_deficit = std::numeric_limits<std::int64_t>::min();
    for (std::size_t i = 0; i < terms.size(); ++i) {
      const std::int64_t deficit = count[i] * (p + 1) - emitted[i] * emission_len;
      if (deficit > best_deficit && emitted[i] < count[i] * (p / emission_len + 1)) {
        best_deficit = deficit;
        best = i;
      }
    }
    emission.push_back(best);
    ++emitted[best];
  }

  // Inter step t: sigma = emission[t % len]; the rotation rho advances per
  // use of that sigma, covering all s rotations over s repetitions of the
  // emission list, so the inter cycle closes at s * len.
  const std::int64_t inter_cycle = s * emission_len;
  auto inter_at = [&cliques, &terms, &emission, emission_len, s,
                   nc](std::int64_t t) {
    const std::size_t sigma_idx = emission[static_cast<std::size_t>(
        t % emission_len)];
    // Uses of this sigma before step t: full passes + uses within the
    // current pass.
    const std::int64_t pass = t / emission_len;
    std::int64_t in_pass = 0;
    for (std::int64_t p = 0; p < t % emission_len; ++p)
      if (emission[static_cast<std::size_t>(p)] == sigma_idx) ++in_pass;
    std::int64_t per_pass = 0;
    for (std::int64_t p = 0; p < emission_len; ++p)
      if (emission[static_cast<std::size_t>(p)] == sigma_idx) ++per_pass;
    const std::int64_t rho = (pass * per_pass + in_pass) % s;

    const auto& sigma = terms[sigma_idx].perm;
    const NodeId n = cliques.node_count();
    std::vector<NodeId> dst(static_cast<std::size_t>(n));
    for (NodeId i = 0; i < n; ++i) {
      const CliqueId c = cliques.clique_of(i);
      const std::int64_t j = cliques.index_in_clique(i);
      const CliqueId cp = sigma[static_cast<std::size_t>(c)];
      SORN_ASSERT(cp != c, "BvN permutation has a fixed point");
      dst[static_cast<std::size_t>(i)] =
          cliques.members(cp)[static_cast<std::size_t>((j + rho) % s)];
    }
    (void)nc;
    return Matching(std::move(dst));
  };

  // Intra cycle identical to sorn().
  std::int64_t intra_cycle = 0;
  for (CliqueId c = 0; c < nc; ++c)
    if (cliques.clique_size(c) >= 2)
      intra_cycle = intra_cycle == 0
                        ? cliques.clique_size(c) - 1
                        : std::lcm<std::int64_t>(intra_cycle,
                                                 cliques.clique_size(c) - 1);
  SORN_ASSERT(intra_cycle > 0,
              "weighted schedules assume cliques of size >= 2");

  return interleave_streams(
      q, intra_cycle, inter_cycle,
      [&cliques](std::int64_t t) { return intra_matching(cliques, t); },
      inter_at, max_period);
}

CircuitSchedule ScheduleBuilder::sorn_hierarchical(const Hierarchy& h,
                                                   HierShares shares,
                                                   Slot max_period) {
  const NodeId n = h.node_count();
  const NodeId s = h.pod_size();
  const CliqueId p = h.pods_per_cluster();
  const CliqueId nc = h.cluster_count();
  SORN_ASSERT(shares.intra >= 0 && shares.inter >= 0 && shares.global >= 0,
              "shares must be nonnegative");
  SORN_ASSERT((shares.intra > 0) == (s >= 2),
              "intra share must be positive iff pods have >= 2 nodes");
  SORN_ASSERT((shares.inter > 0) == (p >= 2),
              "inter share must be positive iff clusters have >= 2 pods");
  SORN_ASSERT((shares.global > 0) == (nc >= 2),
              "global share must be positive iff there are >= 2 clusters");

  const CliqueAssignment pods = h.pods();

  std::vector<Stream> streams;
  {
    Stream intra;
    intra.share = shares.intra;
    intra.cycle = s >= 2 ? s - 1 : 0;
    intra.kind = SlotKind::kIntra;
    intra.at = [pods](std::int64_t t) { return intra_matching(pods, t); };
    streams.push_back(std::move(intra));
  }
  {
    // Pod-level round robin within each cluster: pod shift k, index
    // rotation rho; all clusters move in lock step so the union is a
    // global permutation.
    Stream inter;
    inter.share = shares.inter;
    inter.cycle = p >= 2 ? static_cast<std::int64_t>(p - 1) * s : 0;
    inter.kind = SlotKind::kInter;
    // The hierarchy is contiguous by construction (node id = cluster,
    // pod-in-cluster, index-in-pod in mixed radix), so this is the shift
    // (cluster fixed, pod + k, index + rho) in O(1) state.
    inter.at = [nc, s, p](std::int64_t t) {
      const auto k = static_cast<NodeId>(1 + (t % (p - 1)));
      const auto rho = static_cast<NodeId>((t / (p - 1)) % s);
      return Matching::radix_shift(static_cast<NodeId>(nc), 0,
                                   static_cast<NodeId>(p), k, s, rho);
    };
    streams.push_back(std::move(inter));
  }
  {
    // Cluster-level round robin: cluster shift K, position rotation over
    // the whole cluster.
    Stream global;
    global.share = shares.global;
    const std::int64_t cluster_size = h.cluster_size();
    global.cycle =
        nc >= 2 ? static_cast<std::int64_t>(nc - 1) * cluster_size : 0;
    global.kind = SlotKind::kGlobal;
    // (cluster + K, position + rho): a two-level shift over the
    // contiguous cluster-major layout.
    global.at = [nc, cluster_size](std::int64_t t) {
      const auto big_k = static_cast<NodeId>(1 + (t % (nc - 1)));
      const auto rho = static_cast<NodeId>((t / (nc - 1)) % cluster_size);
      return Matching::radix_shift(1, 0, static_cast<NodeId>(nc), big_k,
                                   static_cast<NodeId>(cluster_size), rho);
    };
    streams.push_back(std::move(global));
  }
  (void)n;
  return interleave_multi(std::move(streams), max_period);
}

}  // namespace sorn
