// DesignRegistry: every builtin design is listed and builds a working
// schedule/router pair from a ScenarioConfig; unknown names fail with the
// available set; private registries support custom designs. The sorn and
// hier fabrics it builds derive q and shares from the locality, carry every
// traffic class and match the closed-form predictions at their geometry.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <utility>

#include "analysis/models.h"
#include "control/reconfig.h"
#include "scenario/design.h"
#include "scenario/scenario_config.h"
#include "scenario/scenario_runner.h"
#include "topo/logical_topology.h"
#include "topo/schedule.h"
#include "topo/schedule_builder.h"

namespace sorn {
namespace {

// A config every builtin design can build: 16 nodes is even (opera),
// 4^2 (orn-hd at 2 dims), 4x4 (orn-mixed), and divides into 4 cliques
// (sorn) or 2 clusters x 2 pods (hier).
ScenarioConfig small_config() {
  ScenarioConfig cfg;
  cfg.nodes = 16;
  cfg.cliques = 4;
  cfg.clusters = 2;
  cfg.pods_per_cluster = 2;
  cfg.orn_dims = 2;
  return cfg;
}

BuiltDesign build_or_fail(const std::string& design,
                          const ScenarioConfig& cfg) {
  BuiltDesign built;
  std::string error;
  EXPECT_TRUE(DesignRegistry::instance().build(design, cfg, &built, &error))
      << error;
  return built;
}

TEST(DesignRegistryTest, ListsEveryBuiltinDesign) {
  const std::vector<std::string> names = DesignRegistry::instance().names();
  for (const char* expected :
       {"hier", "opera", "orn-hd", "orn-mixed", "rotor", "sorn", "vlb"}) {
    EXPECT_NE(std::find(names.begin(), names.end(), expected), names.end())
        << "missing design " << expected;
  }
  EXPECT_TRUE(std::is_sorted(names.begin(), names.end()));
  for (const std::string& name : names) {
    const Design* design = DesignRegistry::instance().find(name);
    ASSERT_NE(design, nullptr);
    EXPECT_EQ(design->name(), name);
    EXPECT_FALSE(design->description().empty());
  }
}

TEST(DesignRegistryTest, BuildsEveryBuiltinDesign) {
  const ScenarioConfig cfg = small_config();
  for (const std::string& name : DesignRegistry::instance().names()) {
    BuiltDesign built;
    std::string error;
    ASSERT_TRUE(
        DesignRegistry::instance().build(name, cfg, &built, &error))
        << name << ": " << error;
    ASSERT_NE(built.schedule, nullptr) << name;
    ASSERT_NE(built.router, nullptr) << name;
    EXPECT_EQ(built.schedule->node_count(), cfg.nodes) << name;
    EXPECT_GE(built.schedule->period(), 1) << name;
    EXPECT_GT(built.predicted_throughput, 0.0) << name;
    EXPECT_FALSE(built.summary.empty()) << name;
    EXPECT_NE(built.owner, nullptr) << name;  // keepalive set
  }
}

TEST(DesignRegistryTest, UnknownDesignListsAvailable) {
  BuiltDesign built;
  std::string error;
  EXPECT_FALSE(DesignRegistry::instance().build("warp-drive", small_config(),
                                                &built, &error));
  EXPECT_NE(error.find("warp-drive"), std::string::npos) << error;
  EXPECT_NE(error.find("sorn"), std::string::npos) << error;
  EXPECT_EQ(DesignRegistry::instance().find("warp-drive"), nullptr);
}

TEST(DesignRegistryTest, InvalidGeometryFailsWithMessage) {
  BuiltDesign built;
  std::string error;

  ScenarioConfig cfg = small_config();
  cfg.nodes = 15;  // not divisible into 4 cliques
  EXPECT_FALSE(DesignRegistry::instance().build("sorn", cfg, &built, &error));
  EXPECT_NE(error.find("must divide into 4 equal cliques"), std::string::npos)
      << error;

  cfg = small_config();
  cfg.nodes = 15;  // odd: opera needs a perfect matching per slot
  EXPECT_FALSE(
      DesignRegistry::instance().build("opera", cfg, &built, &error));

  cfg = small_config();
  cfg.nodes = 15;  // not r^2 for any integer r
  EXPECT_FALSE(
      DesignRegistry::instance().build("orn-hd", cfg, &built, &error));

  cfg = small_config();
  cfg.radices = {3, 4};  // product 12 != 16 nodes
  EXPECT_FALSE(
      DesignRegistry::instance().build("orn-mixed", cfg, &built, &error));

  // hier: a level gets slots iff it has circuits. Each of these used to
  // abort in ScheduleBuilder::sorn_hierarchical; the error names the share
  // and the fields it comes from, and so does a period past the cap.
  struct HierCase {
    CliqueId clusters;
    CliqueId pods_per_cluster;
    double x1;
    double x2;
    const char* share;
  };
  for (const HierCase& c : {
           HierCase{2, 8, 0.5, 0.3, "the intra share"},   // 1-node pods
           HierCase{2, 2, 0.8, 0.5, "the global share"},  // x1 + x2 > 1
           HierCase{1, 1, 0.5, 0.3, "the inter share"},   // one pod
       }) {
    cfg = small_config();
    cfg.clusters = c.clusters;
    cfg.pods_per_cluster = c.pods_per_cluster;
    cfg.pod_locality_x1 = c.x1;
    cfg.cluster_locality_x2 = c.x2;
    EXPECT_FALSE(DesignRegistry::instance().build("hier", cfg, &built, &error));
    for (const char* part : {c.share, "pod_locality_x1", "cluster_locality_x2",
                             "clusters", "pods_per_cluster"})
      EXPECT_NE(error.find(part), std::string::npos) << error;
  }
  cfg = small_config();
  cfg.nodes = 60000;
  cfg.pods_per_cluster = 3;
  EXPECT_FALSE(DesignRegistry::instance().build("hier", cfg, &built, &error));
  EXPECT_NE(error.find("period is 1066560000 slots (cap 262144); nodes 60000"),
            std::string::npos)
      << error;

  // rotor and opera: the slot order has (nodes - 1) x dwell_slots entries,
  // 6.3e9 here; the cap is checked before anything is allocated.
  for (const char* design : {"rotor", "opera"}) {
    cfg = small_config();
    cfg.nodes = 64;
    cfg.dwell_slots = 100000000;
    EXPECT_FALSE(DesignRegistry::instance().build(design, cfg, &built, &error));
    for (const char* part : {"nodes 64", "dwell_slots 100000000",
                             "period of 6300000000 slots"})
      EXPECT_NE(error.find(part), std::string::npos) << design << ": " << error;
  }
}

// The period hier_problem checks against the cap is the one
// sorn_hierarchical builds.
TEST(DesignRegistryTest, HierPeriodCheckIsTheBuiltPeriod) {
  for (const auto& [clusters, pods] :
       {std::pair{2, 2}, std::pair{4, 2}, std::pair{2, 8}, std::pair{1, 4}}) {
    ScenarioConfig cfg = small_config();
    cfg.nodes = 64;
    cfg.clusters = clusters;
    cfg.pods_per_cluster = pods;
    cfg.cluster_locality_x2 = clusters == 1 ? 0.5 : 0.3;
    BuiltDesign built;
    std::string error;
    ASSERT_TRUE(DesignRegistry::instance().build("hier", cfg, &built, &error))
        << error;
    const auto optimal = analysis::hier_optimal_shares(
        cfg.pod_locality_x1, cfg.cluster_locality_x2);
    const ScheduleBuilder::HierShares shares{optimal.intra, optimal.inter,
                                             optimal.global};
    const Slot period = built.schedule->period();
    const NodeId pod_size = 64 / (clusters * pods);
    EXPECT_EQ(ScheduleBuilder::hier_problem(pod_size, pods, clusters, shares,
                                            period),
              "");
    EXPECT_EQ(ScheduleBuilder::hier_problem(pod_size, pods, clusters, shares,
                                            period - 1),
              "the schedule period is " + std::to_string(period) +
                  " slots (cap " + std::to_string(period - 1) + ")");
  }
}

// Without explicit shares the hier design takes the optimal split
// intra : inter : global = 2 : (x2 + x3) : x3, scaled by 12.
TEST(DesignRegistryTest, HierSharesFromLocalitySplit) {
  ScenarioConfig cfg = small_config();
  cfg.nodes = 64;
  cfg.clusters = 4;
  cfg.pods_per_cluster = 4;
  cfg.pod_locality_x1 = 0.5;
  cfg.cluster_locality_x2 = 0.3;
  const BuiltDesign built = build_or_fail("hier", cfg);
  // 2 : 0.5 : 0.2 (x3 = 0.2), scaled by 12.
  EXPECT_EQ(built.summary.rfind("shares 24:6:2,", 0), 0u) << built.summary;
  EXPECT_NEAR(built.predicted_throughput, 1.0 / 2.7, 1e-12);
  ASSERT_NE(built.hierarchy, nullptr);
  EXPECT_EQ(built.cliques->clique_count(), 16);  // the pods
}

TEST(DesignRegistryTest, HierFabricDeliversAllClasses) {
  ScenarioConfig cfg = small_config();
  cfg.nodes = 64;
  cfg.clusters = 4;
  cfg.pods_per_cluster = 4;
  const BuiltDesign built = build_or_fail("hier", cfg);
  NetworkConfig ncfg;
  ncfg.propagation_per_hop = 0;
  SlottedNetwork sim(built.schedule, built.router, ncfg);
  sim.inject_cell(0, 2);   // same pod
  sim.inject_cell(0, 9);   // same cluster
  sim.inject_cell(0, 40);  // cross cluster
  sim.run(2000);
  EXPECT_EQ(sim.metrics().delivered_cells(), 3u);
}

// At the built pod, cluster and global geometry and the design's shares,
// a farther class waits on more circuits.
TEST(HierSornNetworkTest, DeltaMOrdering) {
  ScenarioConfig cfg;
  cfg.nodes = 64;
  cfg.clusters = 4;
  cfg.pods_per_cluster = 4;
  const BuiltDesign built = build_or_fail("hier", cfg);
  ASSERT_NE(built.hierarchy, nullptr);
  const auto shares = analysis::hier_optimal_shares(cfg.pod_locality_x1,
                                                    cfg.cluster_locality_x2);
  const std::string shares_text = "shares " + std::to_string(shares.intra) +
                                  ":" + std::to_string(shares.inter) + ":" +
                                  std::to_string(shares.global) + ",";
  EXPECT_EQ(built.summary.rfind(shares_text, 0), 0u) << built.summary;

  const Hierarchy& h = *built.hierarchy;
  const double pod = analysis::hier_delta_m_pod(h.pod_size(), shares);
  const double cluster = analysis::hier_delta_m_cluster(
      h.pod_size(), h.pods_per_cluster(), shares);
  const double global = analysis::hier_delta_m_global(
      h.pod_size(), h.pods_per_cluster(), h.cluster_count(), shares);
  EXPECT_LT(pod, cluster);
  EXPECT_LT(cluster, global);
}

// The sorn design's handle on its fabric carries the clique assignment
// traffic is generated over; a design without cliques carries none.
TEST(DesignRegistryTest, SornDesignExposesItsNetworkHandle) {
  BuiltDesign built;
  std::string error;
  ASSERT_TRUE(DesignRegistry::instance().build("sorn", small_config(), &built,
                                               &error))
      << error;
  ASSERT_NE(built.cliques, nullptr);
  EXPECT_EQ(built.cliques->clique_count(), 4);
  EXPECT_EQ(built.cliques->node_count(), 16);

  ASSERT_TRUE(DesignRegistry::instance().build("vlb", small_config(), &built,
                                               &error))
      << error;
  EXPECT_EQ(built.cliques, nullptr);
}

// Without an explicit q the design takes q*(x) rationalized at
// max_q_denominator; its predicted throughput is the closed form at that q.
TEST(SornNetworkTest, BuildDerivesOptimalQFromLocality) {
  ScenarioConfig cfg;
  cfg.nodes = 32;
  cfg.cliques = 4;
  cfg.locality_x = 0.5;
  const BuiltDesign built = build_or_fail("sorn", cfg);
  EXPECT_EQ(built.summary.rfind("q = 4/1,", 0), 0u) << built.summary;
  EXPECT_NEAR(built.predicted_throughput, 0.4, 1e-9);
}

// Table 1's 4096-node row at a 128-node instance with the same ratios:
// q*(0.56) is 50/11 at denominator 11 (9/2 at the default 6), and the
// table-calibrated inter delta_m at the built clique count and q exceeds
// the intra one.
TEST(SornNetworkTest, PredictionsUseTableCalibratedForms) {
  ScenarioConfig cfg;
  cfg.nodes = 128;
  cfg.cliques = 8;
  cfg.locality_x = 0.56;
  cfg.lanes = 16;
  cfg.max_q_denominator = 11;
  const BuiltDesign built = build_or_fail("sorn", cfg);
  EXPECT_EQ(built.summary.rfind("q = 50/11,", 0), 0u) << built.summary;
  ASSERT_NE(built.cliques, nullptr);

  const double q = 50.0 / 11.0;
  const CliqueId nc = built.cliques->clique_count();
  const double intra = analysis::sorn_delta_m_intra(cfg.nodes, nc, q);
  const double inter = analysis::sorn_delta_m_inter_table(cfg.nodes, nc, q);
  EXPECT_GT(inter, intra);
  const double slot_ns = static_cast<double>(cfg.slot_ns);
  const double prop_ns = static_cast<double>(cfg.propagation_ns);
  EXPECT_GT(analysis::min_latency_us(inter, cfg.lanes, slot_ns, 3, prop_ns),
            analysis::min_latency_us(intra, cfg.lanes, slot_ns, 2, prop_ns));

  cfg.max_q_denominator = 6;
  const BuiltDesign coarse = build_or_fail("sorn", cfg);
  EXPECT_EQ(coarse.summary.rfind("q = 9/2,", 0), 0u) << coarse.summary;
}

TEST(SornNetworkTest, RejectsIndivisibleCliques) {
  ScenarioConfig cfg;
  cfg.nodes = 10;
  cfg.cliques = 4;
  BuiltDesign built;
  std::string error;
  EXPECT_FALSE(DesignRegistry::instance().build("sorn", cfg, &built, &error));
  EXPECT_NE(error.find("nodes (10) must divide into 4 equal cliques"),
            std::string::npos)
      << error;
  EXPECT_EQ(built.schedule, nullptr);
}

TEST(DesignRegistryTest, SornExplicitQOverridesLocality) {
  ScenarioConfig cfg = small_config();
  cfg.cliques = 2;
  cfg.locality_x = 0.5;
  cfg.q_num = 3;
  const BuiltDesign built = build_or_fail("sorn", cfg);
  EXPECT_EQ(built.summary.rfind("q = 3/1,", 0), 0u) << built.summary;
  EXPECT_NEAR(built.predicted_throughput,
              analysis::sorn_throughput_at_q(0.5, 3.0), 1e-12);
}

// Fig. 2(d): two cliques of four at q = 3 give intra edges 3x the inter.
TEST(DesignRegistryTest, SornLogicalTopologyReflectsOversubscription) {
  ScenarioConfig cfg = small_config();
  cfg.nodes = 8;
  cfg.cliques = 2;
  cfg.q_num = 3;
  const BuiltDesign built = build_or_fail("sorn", cfg);
  const LogicalTopology topo(*built.schedule);
  EXPECT_NEAR(topo.intra_fraction(0, *built.cliques), 0.75, 1e-12);
  EXPECT_NEAR(topo.inter_fraction(0, *built.cliques), 0.25, 1e-12);
}

TEST(DesignRegistryTest, SornFabricDeliversIntraAndInterCells) {
  ScenarioConfig cfg = small_config();
  cfg.locality_x = 0.5;
  const BuiltDesign built = build_or_fail("sorn", cfg);
  NetworkConfig ncfg;
  ncfg.propagation_per_hop = 0;
  SlottedNetwork sim(built.schedule, built.router, ncfg);
  sim.inject_cell(0, 3);   // intra
  sim.inject_cell(0, 12);  // inter
  sim.run(300);
  EXPECT_EQ(sim.metrics().delivered_cells(), 2u);
}

// A clique override (a clusterer's assignment) need not be contiguous.
TEST(DesignRegistryTest, SornTakesANonContiguousOverride) {
  std::vector<CliqueId> map(16);
  for (NodeId i = 0; i < 16; ++i) map[static_cast<std::size_t>(i)] = i % 4;
  const CliqueAssignment scattered(map);
  ScenarioConfig cfg = small_config();
  cfg.overrides.cliques = &scattered;
  const BuiltDesign built = build_or_fail("sorn", cfg);
  EXPECT_TRUE(built.cliques->same_clique(0, 4));
  EXPECT_FALSE(built.cliques->same_clique(0, 1));

  const CliqueAssignment too_small = CliqueAssignment::contiguous(8, 4);
  cfg.overrides.cliques = &too_small;
  BuiltDesign rejected;
  std::string error;
  EXPECT_FALSE(
      DesignRegistry::instance().build("sorn", cfg, &rejected, &error));
  EXPECT_NE(error.find("covers 8 nodes, not 16"), std::string::npos) << error;
}

// The design's first fabric and a ReconfigManager swap are one
// construction: for the same assignment, q and weights they realize the
// same matching in every slot and route the same paths from the same seed.
TEST(DesignRegistryTest, SornDesignAndReconfigSwapBuildOneFabric) {
  std::vector<CliqueId> map(16);
  for (NodeId i = 0; i < 16; ++i) map[static_cast<std::size_t>(i)] = i % 4;
  const CliqueAssignment scattered(map);
  for (const bool weighted : {false, true}) {
    ScenarioConfig cfg = small_config();
    cfg.overrides.cliques = &scattered;
    cfg.q_num = 5;
    cfg.q_den = 2;
    if (weighted) {
      cfg.inter_clique_weights = {0, 5, 1, 1, 1, 0, 5, 1,
                                  1, 1, 0, 5, 5, 1, 1, 0};
    }
    const BuiltDesign built = build_or_fail("sorn", cfg);

    SornPlan plan;
    plan.cliques = scattered;
    plan.q = Rational{5, 2};
    plan.inter_weights = cfg.inter_clique_weights;
    SlottedNetwork sim(built.schedule, built.router, NetworkConfig{});
    ReconfigManager reconfig;
    reconfig.request_swap(std::move(plan), 0);
    ASSERT_TRUE(reconfig.tick(sim, 0));

    const CircuitSchedule& a = *built.schedule;
    const CircuitSchedule& b = *reconfig.schedule();
    ASSERT_EQ(a.period(), b.period()) << "weighted " << weighted;
    for (Slot t = 0; t < a.period(); ++t) {
      ASSERT_EQ(a.kind_at(t), b.kind_at(t)) << "slot " << t;
      for (NodeId i = 0; i < 16; ++i)
        ASSERT_EQ(a.dst_of(i, t), b.dst_of(i, t)) << "slot " << t;
    }
    Rng rng_a(9);
    Rng rng_b(9);
    for (Slot t = 0; t < 2 * a.period(); ++t) {
      const auto src = static_cast<NodeId>(t % 16);
      const auto dst = static_cast<NodeId>((t * 7 + 3) % 16);
      if (src == dst) continue;
      const Path pa = built.router->route(src, dst, t, rng_a);
      const Path pb = reconfig.router()->route(src, dst, t, rng_b);
      ASSERT_EQ(pa.size(), pb.size()) << src << " -> " << dst;
      for (int h = 0; h < pa.size(); ++h) ASSERT_EQ(pa.at(h), pb.at(h));
    }
  }
}

// At x = 1 the optimum q* = 2/(1-x) diverges. The design takes the one
// cap on q (analysis::kMaxSornQ), whose schedule period stays small,
// rather than a q so large that the schedule builder aborts.
TEST(DesignRegistryTest, FullLocalitySornRunsAtTheQCap) {
  ScenarioConfig cfg = small_config();
  cfg.locality_x = 1.0;
  cfg.workload = WorkloadKind::kSaturation;
  cfg.warmup_slots = 200;
  cfg.measure_slots = 800;
  std::string error;
  const auto runner = ScenarioRunner::create(cfg, &error);
  ASSERT_NE(runner, nullptr) << error;
  EXPECT_EQ(runner->design().summary.rfind("q = 64/1,", 0), 0u)
      << runner->design().summary;
  ASSERT_TRUE(runner->run(&error)) << error;
  EXPECT_GT(runner->saturation_r(), 0.0);
}

// The sorn design checks its schedule period before building it, with the
// builders' own closed form (weighted or not): past the cap it is an error
// naming the nodes, cliques, q and period, not an abort in the builder.
// So are a q below 1 and a weighted_alpha the BvN mix cannot take.
TEST(DesignRegistryTest, SornPeriodPastTheCapFailsWithMessage) {
  BuiltDesign built;
  std::string error;
  for (const auto& [nodes, cliques] : {std::pair{16, 4}, std::pair{64, 8},
                                       std::pair{8, 1}, std::pair{8, 8}}) {
    ScenarioConfig cfg = small_config();
    cfg.nodes = nodes;
    cfg.cliques = cliques;
    ASSERT_TRUE(DesignRegistry::instance().build("sorn", cfg, &built, &error))
        << error;
    EXPECT_EQ(ScheduleBuilder::sorn_period(cliques, nodes / cliques,
                                           cfg.sorn_q(), {}, {}),
              built.schedule->period())
        << nodes << " nodes, " << cliques << " cliques";
  }

  ScenarioConfig cfg = small_config();
  cfg.nodes = 60000;
  EXPECT_FALSE(DesignRegistry::instance().build("sorn", cfg, &built, &error));
  for (const char* part : {"60000 nodes", "4 cliques", "q = 9/2",
                           "period of 3712252500 slots"})
    EXPECT_NE(error.find(part), std::string::npos) << error;

  cfg = small_config();
  cfg.q_num = 1;
  cfg.q_den = 2;
  EXPECT_FALSE(DesignRegistry::instance().build("sorn", cfg, &built, &error));
  EXPECT_NE(error.find("q (1/2) must be >= 1"), std::string::npos) << error;

  // A weighted schedule's inter cycle follows its BvN emission list.
  ScenarioConfig weighted = small_config();
  weighted.inter_clique_weights = {0, 5, 1, 1, 1, 0, 5, 1,
                                   1, 1, 0, 5, 5, 1, 1, 0};
  ASSERT_TRUE(
      DesignRegistry::instance().build("sorn", weighted, &built, &error))
      << error;
  EXPECT_EQ(ScheduleBuilder::sorn_period(
                4, 4, weighted.sorn_q(), weighted.inter_clique_weights, {}),
            built.schedule->period());
  weighted.nodes = 60000;
  EXPECT_FALSE(
      DesignRegistry::instance().build("sorn", weighted, &built, &error));
  EXPECT_NE(error.find("schedule period of"), std::string::npos) << error;
  weighted.nodes = 16;
  weighted.weighted_alpha = 1.0;
  EXPECT_FALSE(
      DesignRegistry::instance().build("sorn", weighted, &built, &error));
  EXPECT_NE(error.find("weighted_alpha"), std::string::npos) << error;
}

// Designs without cliques get their traffic over contiguous cliques; a
// node count those cannot divide is an error naming both counts.
TEST(DesignRegistryTest, CliquelessDesignNeedsDivisibleTrafficCliques) {
  for (const auto& [design, nodes] :
       {std::pair{"vlb", 2}, std::pair{"rotor", 3},
        std::pair{"orn-mixed", 15}}) {
    ScenarioConfig cfg;  // 8 cliques
    cfg.design = design;
    cfg.nodes = nodes;
    std::string error;
    EXPECT_EQ(ScenarioRunner::create(cfg, &error), nullptr) << design;
    EXPECT_NE(error.find("nodes (" + std::to_string(nodes) + ")"),
              std::string::npos)
        << error;
    EXPECT_NE(error.find("cliques (8)"), std::string::npos) << error;
  }
  ScenarioConfig cfg;
  cfg.design = "vlb";
  cfg.nodes = 16;
  std::string error;
  EXPECT_NE(ScenarioRunner::create(cfg, &error), nullptr) << error;
}

// Private registries let tests (and experiments) stage custom designs
// without mutating the global one.
class EchoDesign : public Design {
 public:
  std::string name() const override { return "echo"; }
  std::string description() const override { return "test-only design"; }
  bool build(const ScenarioConfig&, BuiltDesign*,
             std::string* error) const override {
    if (error != nullptr) *error = "echo cannot build";
    return false;
  }
};

TEST(DesignRegistryTest, PrivateRegistrySupportsCustomDesigns) {
  DesignRegistry registry;
  EXPECT_TRUE(registry.names().empty());
  registry.add(std::make_unique<EchoDesign>());
  ASSERT_EQ(registry.names(), std::vector<std::string>{"echo"});
  BuiltDesign built;
  std::string error;
  EXPECT_FALSE(registry.build("echo", small_config(), &built, &error));
  EXPECT_EQ(error, "echo cannot build");
  // The global registry is untouched.
  EXPECT_EQ(DesignRegistry::instance().find("echo"), nullptr);
}

}  // namespace
}  // namespace sorn
