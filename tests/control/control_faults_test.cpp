// ControlFaultModel: scripted and stochastic outage timelines, the
// degraded-estimate filter (staleness + seeded noise), and the
// determinism contract (same seed, same timeline, always).
#include "control/control_faults.h"

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "traffic/patterns.h"
#include "traffic/same_demand.h"
#include "traffic/sparse_demand.h"
#include "traffic/traffic_matrix.h"

namespace sorn {
namespace {

TEST(ControlFaultModelTest, ScriptedWindowsMergeAndCount) {
  ControlFaultOptions opts;
  opts.outages = {{10, 20}, {15, 30}};  // overlap: down on [10, 30)
  ControlFaultModel model(opts);
  std::vector<bool> up;
  for (Slot s = 0; s < 40; ++s) {
    model.tick(s);
    up.push_back(model.controller_up());
  }
  for (Slot s = 0; s < 40; ++s) {
    EXPECT_EQ(up[static_cast<std::size_t>(s)], !(s >= 10 && s < 30))
        << "slot " << s;
  }
  EXPECT_EQ(model.outages_started(), 1u);  // merged windows = one outage
  EXPECT_EQ(model.outage_slots(), 20u);
}

TEST(ControlFaultModelTest, DisjointWindowsAreSeparateOutages) {
  ControlFaultOptions opts;
  opts.outages = {{5, 8}, {20, 25}};
  ControlFaultModel model(opts);
  for (Slot s = 0; s < 40; ++s) model.tick(s);
  EXPECT_EQ(model.outages_started(), 2u);
  EXPECT_EQ(model.outage_slots(), 8u);
}

TEST(ControlFaultModelTest, TickReportsEdgesOnly) {
  ControlFaultOptions opts;
  opts.outages = {{3, 6}};
  ControlFaultModel model(opts);
  std::vector<Slot> edges;
  for (Slot s = 0; s < 10; ++s) {
    if (model.tick(s)) edges.push_back(s);
  }
  EXPECT_EQ(edges, (std::vector<Slot>{3, 6}));
}

TEST(ControlFaultModelTest, StochasticTimelineIsSeedDeterministic) {
  ControlFaultOptions opts;
  opts.mtbf_slots = 200.0;
  opts.mttr_slots = 50.0;
  opts.seed = 99;
  ControlFaultModel a(opts);
  ControlFaultModel b(opts);
  opts.seed = 100;
  ControlFaultModel c(opts);
  bool any_down = false, diverged = false;
  for (Slot s = 0; s < 5000; ++s) {
    a.tick(s);
    b.tick(s);
    c.tick(s);
    ASSERT_EQ(a.controller_up(), b.controller_up()) << "slot " << s;
    if (!a.controller_up()) any_down = true;
    if (a.controller_up() != c.controller_up()) diverged = true;
  }
  EXPECT_TRUE(any_down);  // mtbf 200 over 5000 slots: outages happen
  EXPECT_TRUE(diverged);  // a different seed gives a different timeline
  EXPECT_EQ(a.outages_started(), b.outages_started());
  EXPECT_EQ(a.outage_slots(), b.outage_slots());
}

TEST(ControlFaultModelTest, FilterIsIdentityWhenDisabled) {
  ControlFaultModel model(ControlFaultOptions{});
  TrafficMatrix tm(4);
  tm.set(0, 1, 0.5);
  // No staleness, no noise: the same object comes back, no copy.
  EXPECT_EQ(&model.filter(tm), &tm);
}

TEST(ControlFaultModelTest, StaleFilterServesTheMatrixFromKEpochsAgo) {
  ControlFaultOptions opts;
  opts.estimate_stale_epochs = 2;
  ControlFaultModel model(opts);
  TrafficMatrix a(2), b(2), c(2), d(2);
  a.set(0, 1, 1.0);
  b.set(0, 1, 2.0);
  c.set(0, 1, 3.0);
  d.set(0, 1, 4.0);
  // Until the lag fills, the oldest available observation is served.
  EXPECT_DOUBLE_EQ(model.filter(a).at(0, 1), 1.0);
  EXPECT_DOUBLE_EQ(model.filter(b).at(0, 1), 1.0);
  EXPECT_DOUBLE_EQ(model.filter(c).at(0, 1), 1.0);
  // From here on, exactly two epochs behind.
  EXPECT_DOUBLE_EQ(model.filter(d).at(0, 1), 2.0);
}

TEST(ControlFaultModelTest, NoiseIsBoundedSeededAndSparesZeros) {
  ControlFaultOptions opts;
  opts.estimate_noise = 0.2;
  opts.seed = 7;
  ControlFaultModel a(opts);
  ControlFaultModel b(opts);
  TrafficMatrix tm(3);
  tm.set(0, 1, 1.0);
  tm.set(1, 2, 0.5);
  const DemandModel& da = a.filter(tm);
  const DemandModel& db = b.filter(tm);
  for (NodeId i = 0; i < 3; ++i) {
    for (NodeId j = 0; j < 3; ++j) {
      const double rate = tm.at(i, j);
      if (rate <= 0.0) {
        // A telemetry pipeline that lies about magnitudes still does not
        // invent demand between silent pairs.
        EXPECT_DOUBLE_EQ(da.at(i, j), 0.0);
      } else {
        EXPECT_GE(da.at(i, j), rate * 0.8);
        EXPECT_LE(da.at(i, j), rate * 1.2);
        EXPECT_NE(da.at(i, j), rate);  // noise actually applied
      }
      EXPECT_DOUBLE_EQ(da.at(i, j), db.at(i, j));  // seeded, reproducible
    }
  }
}

TEST(ControlFaultModelTest,
     NoiseOverlayMatchesABuilderOverlayFromTheSameSeed) {
  // The overlay is copied straight from the source's row-major visit. It
  // must equal the one the Builder made before: one draw per visited
  // nonzero, in visit order, from the model's noise stream, across
  // epochs and source backends.
  ControlFaultOptions opts;
  opts.estimate_noise = 0.5;
  opts.seed = 13;
  ControlFaultModel model(opts);
  Rng noise(opts.seed ^ 0x6374726c4e6f6973ULL);  // the model's noise stream

  const CliqueAssignment scattered({2, 0, 1, 2, 1, 0, 0, 2, 1, 1, 0, 2});
  const CliqueAssignment contiguous = CliqueAssignment::contiguous(12, 3);
  std::vector<std::unique_ptr<DemandModel>> sources;
  for (const DemandBackend backend :
       {DemandBackend::kDense, DemandBackend::kSparse,
        DemandBackend::kProcedural}) {
    sources.push_back(patterns::make_locality_mix(contiguous, 0.6, backend));
  }
  sources.push_back(
      patterns::make_clique_ring(scattered, 0.5, 0.6, DemandBackend::kSparse));
  auto sparse_rows = std::make_unique<TrafficMatrix>(12);  // rows 1-10 empty
  sparse_rows->set(0, 5, 0.25);
  sparse_rows->set(0, 9, 1.5);
  sparse_rows->set(11, 3, 0.75);
  sources.push_back(std::move(sparse_rows));

  for (int epoch = 0; epoch < 3; ++epoch) {
    for (std::size_t k = 0; k < sources.size(); ++k) {
      const DemandModel& source = *sources[k];
      const auto& got =
          dynamic_cast<const SparseDemand&>(model.filter(source));
      SparseDemand::Builder builder(source.node_count());
      source.for_each_nonzero([&](NodeId i, NodeId j, double rate) {
        const double factor =
            1.0 + opts.estimate_noise * (2.0 * noise.next_double() - 1.0);
        builder.set(i, j, rate * factor);
      });
      expect_same_demand(got, *builder.build(false),
                         "epoch " + std::to_string(epoch) + " source " +
                             std::to_string(k));
    }
  }
}

TEST(ControlFaultModelTest, StaleHistoryIsBoundedByTheLag) {
  // Regression: the handle history must stay at estimate_stale_epochs + 1
  // entries no matter how long the run is — an unbounded deque here was an
  // O(epochs * N^2) leak on long staleness runs.
  ControlFaultOptions opts;
  opts.estimate_stale_epochs = 3;
  ControlFaultModel model(opts);
  TrafficMatrix tm(8);
  tm.set(0, 1, 1.0);
  tm.set(2, 3, 0.5);
  std::size_t bytes_at_fill = 0;
  for (int epoch = 0; epoch < 500; ++epoch) {
    (void)model.filter(tm);
    EXPECT_LE(model.history_entries(), 4u) << "epoch " << epoch;
    if (epoch == 3) bytes_at_fill = model.history_bytes();
    if (epoch > 3) {
      // Memory is flat once the window fills: same matrices, same bytes.
      EXPECT_EQ(model.history_bytes(), bytes_at_fill) << "epoch " << epoch;
    }
  }
  EXPECT_EQ(model.history_entries(), 4u);
  EXPECT_GT(bytes_at_fill, 0u);
}

TEST(ControlFaultModelTest, ReplanDelayAndSuppressionAccounting) {
  ControlFaultOptions opts;
  opts.replan_apply_delay = 37;
  ControlFaultModel model(opts);
  EXPECT_EQ(model.extra_replan_delay(), 37);
  EXPECT_EQ(model.suppressed_epochs(), 0u);
  model.note_suppressed_epoch();
  model.note_suppressed_epoch();
  EXPECT_EQ(model.suppressed_epochs(), 2u);
}

}  // namespace
}  // namespace sorn
