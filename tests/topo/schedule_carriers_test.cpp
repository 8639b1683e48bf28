// CircuitSchedule::carriers(): the distinct matchings that carry circuit
// i -> h, which the simulator's wake lists are filled from. For every
// registry design at N <= 64 and every pair (i, h), the inverse must be
// exactly the matchings that map i to h, whether the schedule stores them
// as shifts (answered by arithmetic) or explicitly (answered by the
// per-node index), and on a materialized() copy of each.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "control/optimizer.h"
#include "scenario/design.h"
#include "scenario/scenario_config.h"
#include "topo/schedule.h"
#include "topo/schedule_builder.h"
#include "traffic/patterns.h"
#include "traffic/sparse_demand.h"

namespace sorn {
namespace {

// The same schedule with every distinct matching stored explicitly: same
// matching indices, kinds and slot order.
CircuitSchedule materialized(const CircuitSchedule& s) {
  std::vector<Matching> matchings;
  std::vector<SlotKind> kinds(s.distinct_count(), SlotKind::kUniform);
  std::vector<std::uint32_t> order;
  for (std::uint32_t m = 0; m < s.distinct_count(); ++m)
    matchings.push_back(s.matching(m).materialized());
  for (Slot t = 0; t < s.period(); ++t) {
    order.push_back(s.matching_index_at(t));
    kinds[s.matching_index_at(t)] = s.kind_at(t);
  }
  return CircuitSchedule(std::move(matchings), std::move(kinds),
                         std::move(order));
}

// Every pair, including i == h (the matchings that idle i).
void expect_exact_inverse(const CircuitSchedule& s, const std::string& label) {
  std::vector<std::uint32_t> got;
  std::size_t carried = 0;
  for (NodeId i = 0; i < s.node_count(); ++i) {
    for (NodeId h = 0; h < s.node_count(); ++h) {
      std::vector<std::uint32_t> want;
      for (std::uint32_t m = 0; m < s.distinct_count(); ++m)
        if (s.matching(m).dst_of(i) == h) want.push_back(m);
      s.carriers(i, h, &got);
      ASSERT_EQ(got, want) << label << ": " << i << " -> " << h;
      carried += got.size();
    }
  }
  // Each matching maps each node once.
  EXPECT_EQ(carried, s.distinct_count() * static_cast<std::size_t>(
                                               s.node_count()))
      << label;
}

void expect_exact_inverse_both_forms(const CircuitSchedule& s,
                                     const std::string& label) {
  expect_exact_inverse(s, label + " (as built)");
  expect_exact_inverse(materialized(s), label + " (materialized)");
}

BuiltDesign build(const std::string& design, const ScenarioConfig& cfg) {
  BuiltDesign built;
  std::string error;
  EXPECT_TRUE(DesignRegistry::instance().build(design, cfg, &built, &error))
      << design << ": " << error;
  return built;
}

// 16 nodes: even (opera), 4^2 (orn-hd), 4 x 4 (orn-mixed), 4 cliques
// (sorn) and 2 clusters x 2 pods (hier).
ScenarioConfig small_config() {
  ScenarioConfig cfg;
  cfg.nodes = 16;
  cfg.cliques = 4;
  cfg.clusters = 2;
  cfg.pods_per_cluster = 2;
  cfg.orn_dims = 2;
  return cfg;
}

TEST(ScheduleCarriersTest, EveryRegistryDesignAtSixteenNodes) {
  const ScenarioConfig cfg = small_config();
  for (const std::string& name : DesignRegistry::instance().names()) {
    const BuiltDesign built = build(name, cfg);
    ASSERT_NE(built.schedule, nullptr) << name;
    expect_exact_inverse_both_forms(*built.schedule, name);
  }
}

TEST(ScheduleCarriersTest, DesignsAtSixtyFourNodes) {
  ScenarioConfig cfg;
  cfg.nodes = 64;
  cfg.cliques = 8;
  cfg.clusters = 4;
  cfg.pods_per_cluster = 4;
  cfg.orn_dims = 3;
  for (const char* name :
       {"sorn", "hier", "rotor", "opera", "orn-hd", "orn-mixed", "vlb"}) {
    const BuiltDesign built = build(name, cfg);
    ASSERT_NE(built.schedule, nullptr) << name;
    expect_exact_inverse_both_forms(*built.schedule, name);
  }
}

TEST(ScheduleCarriersTest, ClusteredSornIsAnsweredByTheExplicitIndex) {
  // Scattered cliques: node i in clique i mod 4, so intra and inter
  // matchings are stored explicitly.
  std::vector<CliqueId> of;
  for (NodeId i = 0; i < 32; ++i) of.push_back(static_cast<CliqueId>(i % 4));
  const CliqueAssignment cliques(of);
  ScenarioConfig cfg;
  cfg.nodes = 32;
  cfg.cliques = 4;
  cfg.overrides.cliques = &cliques;
  const BuiltDesign built = build("sorn", cfg);
  ASSERT_NE(built.schedule, nullptr);
  ASSERT_FALSE(built.schedule->matching(0).is_compact());
  const std::uint64_t before = built.schedule->memory_bytes();
  expect_exact_inverse_both_forms(*built.schedule, "clustered sorn");
  // The first carriers() builds the index, which the gauge counts: one
  // (peer, matching) entry per node per explicit matching.
  EXPECT_GE(built.schedule->memory_bytes(),
            before + built.schedule->distinct_count() * 32 * 8);
}

TEST(ScheduleCarriersTest, FailureMaskedSornPlan) {
  // The control plane's plan after two node failures: the failed nodes'
  // demand is masked out before clustering, which scatters the cliques.
  const CliqueAssignment planted = CliqueAssignment::contiguous(32, 4);
  const auto estimate = SparseDemand::from_model(
      patterns::locality_mix(planted, 0.7), /*normalize=*/true);
  std::vector<std::uint8_t> failed(32, 0);
  failed[3] = failed[17] = 1;
  SornOptimizer::Options options;
  options.candidate_nc = {4};
  const SornPlan plan =
      SornOptimizer(options).plan(*estimate->without_nodes(failed));
  ScenarioConfig cfg;
  cfg.nodes = 32;
  cfg.cliques = 4;
  cfg.q_num = plan.q.num;
  cfg.q_den = plan.q.den;
  cfg.overrides.cliques = &plan.cliques;
  const BuiltDesign built = build("sorn", cfg);
  ASSERT_NE(built.schedule, nullptr);
  ASSERT_FALSE(built.schedule->matching(0).is_compact());
  expect_exact_inverse_both_forms(*built.schedule, "failure-masked sorn");
}

TEST(ScheduleCarriersTest, WeightedSornMixesShiftsAndBvnSlots) {
  // Contiguous cliques keep the intra slots as shifts; the BvN inter
  // slots are explicit, and several of them can carry one circuit.
  ScenarioConfig cfg;
  cfg.nodes = 32;
  cfg.cliques = 4;
  cfg.weighted_alpha = 0.7;
  for (CliqueId a = 0; a < 4; ++a)
    for (CliqueId b = 0; b < 4; ++b)
      cfg.inter_clique_weights.push_back(a == b ? 0.0 : 1.0 + a * 4 + b);
  const BuiltDesign built = build("sorn", cfg);
  ASSERT_NE(built.schedule, nullptr);
  const CircuitSchedule& s = *built.schedule;
  bool shift = false, explicit_form = false;
  for (std::uint32_t m = 0; m < s.distinct_count(); ++m)
    (s.matching(m).is_compact() ? shift : explicit_form) = true;
  EXPECT_TRUE(shift && explicit_form);
  std::vector<std::uint32_t> got;
  std::size_t shared = 0;
  for (NodeId i = 0; i < 32; ++i) {
    for (NodeId h = 0; h < 32; ++h) {
      s.carriers(i, h, &got);
      shared += got.size() > 1 ? 1 : 0;
    }
  }
  EXPECT_GT(shared, 0u) << "some circuit must ride several BvN slots";
  expect_exact_inverse_both_forms(s, "weighted sorn");
}

TEST(ScheduleCarriersTest, CompactInverseStoresNothingQuadratic) {
  // N = 4096 with 64 contiguous cliques: 4,095 shift matchings. The
  // inverse adds a few dozen bytes per matching, not per node pair, so the
  // schedule stays under the 1 MiB the large-N gate allows.
  const CircuitSchedule s = ScheduleBuilder::sorn(
      CliqueAssignment::contiguous(4096, 64), Rational{9, 2});
  std::vector<std::uint32_t> got;
  s.carriers(0, 1, &got);
  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(s.matching(got[0]).dst_of(0), 1);
  s.carriers(0, 4095, &got);
  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(s.matching(got[0]).dst_of(0), 4095);
  EXPECT_LT(s.memory_bytes(), 1u << 20);
  EXPECT_LE(s.memory_bytes(),
            s.distinct_count() * (sizeof(Matching) + 32) +
                4 * static_cast<std::uint64_t>(s.period()) + 4096);
}

}  // namespace
}  // namespace sorn
