// Cross-design simulator invariants: for every schedule/router family in
// the library, under random traffic and random lane counts, the fabric
// conserves cells, delivers everything once sources stop, and never
// delivers a cell to the wrong node (checked implicitly: flow completion
// accounting would diverge).
#include <gtest/gtest.h>

#include <functional>
#include <memory>

#include "routing/direct.h"
#include "routing/hier_routing.h"
#include "sim/network.h"
#include "routing/orn_mixed_routing.h"
#include "routing/rotor_routing.h"
#include "routing/sorn_routing.h"
#include "routing/vlb.h"
#include "topo/schedule_builder.h"

namespace sorn {
namespace {

struct Fabric {
  std::string name;
  std::unique_ptr<CircuitSchedule> schedule;
  std::unique_ptr<Router> router;
  // Keep ownership of auxiliary structures alive.
  std::shared_ptr<void> aux;
};

std::vector<Fabric> all_fabrics() {
  std::vector<Fabric> fabrics;
  {
    Fabric f;
    f.name = "1D ORN + VLB";
    f.schedule =
        std::make_unique<CircuitSchedule>(ScheduleBuilder::round_robin(16));
    f.router = std::make_unique<VlbRouter>(f.schedule.get(), LbMode::kRandom);
    fabrics.push_back(std::move(f));
  }
  {
    Fabric f;
    f.name = "2D ORN";
    f.schedule = std::make_unique<CircuitSchedule>(
        ScheduleBuilder::orn_mixed(16, {4, 4}));
    f.router =
        std::make_unique<OrnMixedRouter>(16, std::vector<NodeId>{4, 4});
    fabrics.push_back(std::move(f));
  }
  {
    Fabric f;
    f.name = "mixed-radix ORN";
    f.schedule = std::make_unique<CircuitSchedule>(
        ScheduleBuilder::orn_mixed(16, {4, 2, 2}));
    f.router = std::make_unique<OrnMixedRouter>(
        16, std::vector<NodeId>{4, 2, 2});
    fabrics.push_back(std::move(f));
  }
  {
    Fabric f;
    f.name = "SORN";
    auto cliques = std::make_shared<CliqueAssignment>(
        CliqueAssignment::contiguous(16, 4));
    f.schedule = std::make_unique<CircuitSchedule>(
        ScheduleBuilder::sorn(*cliques, {2, 1}));
    f.router = std::make_unique<SornRouter>(f.schedule.get(), cliques.get(),
                                            LbMode::kRandom);
    f.aux = cliques;
    fabrics.push_back(std::move(f));
  }
  {
    Fabric f;
    f.name = "weighted SORN";
    auto cliques = std::make_shared<CliqueAssignment>(
        CliqueAssignment::contiguous(16, 4));
    std::vector<double> w(16, 1.0);
    w[0 * 4 + 1] = 4.0;
    f.schedule = std::make_unique<CircuitSchedule>(
        ScheduleBuilder::sorn_weighted(*cliques, {2, 1}, w));
    f.router = std::make_unique<SornRouter>(f.schedule.get(), cliques.get(),
                                            LbMode::kFirstAvailable);
    f.aux = cliques;
    fabrics.push_back(std::move(f));
  }
  {
    Fabric f;
    f.name = "hierarchical SORN";
    auto hierarchy =
        std::make_shared<Hierarchy>(Hierarchy::regular(16, 2, 2));
    f.schedule = std::make_unique<CircuitSchedule>(
        ScheduleBuilder::sorn_hierarchical(*hierarchy, {2, 1, 1}));
    f.router = std::make_unique<HierSornRouter>(
        f.schedule.get(), hierarchy.get(), LbMode::kRandom);
    f.aux = hierarchy;
    fabrics.push_back(std::move(f));
  }
  {
    Fabric f;
    f.name = "rotor (Opera)";
    f.schedule = std::make_unique<CircuitSchedule>(
        ScheduleBuilder::rotor_random(16, 10, 3));
    f.router = std::make_unique<RotorRouter>(f.schedule.get(), 2, 6);
    fabrics.push_back(std::move(f));
  }
  {
    Fabric f;
    f.name = "direct";
    f.schedule =
        std::make_unique<CircuitSchedule>(ScheduleBuilder::round_robin(16));
    f.router = std::make_unique<DirectRouter>();
    fabrics.push_back(std::move(f));
  }
  return fabrics;
}

class FabricInvariants : public ::testing::TestWithParam<int> {};

TEST_P(FabricInvariants, ConservationAndCompleteDelivery) {
  const int lanes = GetParam();
  for (Fabric& f : all_fabrics()) {
    NetworkConfig cfg;
    cfg.lanes = lanes;
    cfg.propagation_per_hop = 0;
    SlottedNetwork net(f.schedule.get(), f.router.get(), cfg);
    Rng rng(1000 + static_cast<std::uint64_t>(lanes));
    std::uint64_t injected = 0;
    for (int i = 0; i < 150; ++i) {
      const auto src = static_cast<NodeId>(rng.next_below(16));
      auto dst = static_cast<NodeId>(rng.next_below(16));
      if (dst == src) dst = (dst + 1) % 16;
      net.inject_cell(src, dst);
      ++injected;
      if (i % 3 == 0) net.step();
    }
    // Mid-run conservation.
    EXPECT_EQ(net.metrics().injected_cells(),
              net.metrics().delivered_cells() + net.cells_in_flight())
        << f.name;
    // Complete delivery after sources stop (generous horizon: the rotor
    // fabric needs a full rotation).
    for (Slot t = 0; t < 5000 && net.cells_in_flight() > 0; ++t) net.step();
    EXPECT_EQ(net.metrics().delivered_cells(), injected) << f.name;
    EXPECT_EQ(net.cells_in_flight(), 0u) << f.name;
  }
}

INSTANTIATE_TEST_SUITE_P(Lanes, FabricInvariants, ::testing::Values(1, 2, 4),
                         [](const ::testing::TestParamInfo<int>& info) {
                           return "lanes" + std::to_string(info.param);
                         });

}  // namespace
}  // namespace sorn
