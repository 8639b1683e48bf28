// DesignRegistry: every builtin design is listed and builds a working
// schedule/router pair from a ScenarioConfig; unknown names fail with the
// available set; private registries support custom designs.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <utility>

#include "core/hier_sorn.h"
#include "core/sorn.h"
#include "scenario/design.h"
#include "scenario/scenario_config.h"
#include "scenario/scenario_runner.h"
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
  EXPECT_FALSE(error.empty());

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
    const ScheduleBuilder::HierShares shares =
        HierSornNetwork::resolve_shares(HierSornConfig{
            .pod_locality_x1 = cfg.pod_locality_x1,
            .cluster_locality_x2 = cfg.cluster_locality_x2});
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

TEST(DesignRegistryTest, SornDesignExposesItsNetworkHandle) {
  BuiltDesign built;
  std::string error;
  ASSERT_TRUE(DesignRegistry::instance().build("sorn", small_config(), &built,
                                               &error))
      << error;
  ASSERT_NE(built.sorn_network, nullptr);
  ASSERT_NE(built.cliques, nullptr);
  EXPECT_EQ(built.cliques->clique_count(), 4);

  ASSERT_TRUE(DesignRegistry::instance().build("vlb", small_config(), &built,
                                               &error))
      << error;
  EXPECT_EQ(built.sorn_network, nullptr);
}

// At x = 1 the optimum q* = 2/(1-x) diverges. The design takes the one
// cap on q (analysis::kMaxSornQ), whose schedule period stays small,
// rather than a q so large that the schedule builder aborts.
TEST(DesignRegistryTest, FullLocalitySornRunsAtTheQCap) {
  ScenarioConfig cfg = small_config();
  cfg.locality_x = 1.0;
  cfg.threads = 1;
  cfg.workload = WorkloadKind::kSaturation;
  cfg.warmup_slots = 200;
  cfg.measure_slots = 800;
  std::string error;
  const auto runner = ScenarioRunner::create(cfg, &error);
  ASSERT_NE(runner, nullptr) << error;
  const Rational q = runner->design().sorn_network->q();
  EXPECT_EQ(q.num, 64);
  EXPECT_EQ(q.den, 1);
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
                                           built.sorn_network->q(), {}, {}),
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
                4, 4, built.sorn_network->q(), weighted.inter_clique_weights,
                built.sorn_network->config().weighted_options),
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
