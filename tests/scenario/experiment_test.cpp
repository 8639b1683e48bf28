// Experiment: a point's row is exactly what ScenarioRunner measures for
// the same config, bands are inclusive and name what they miss, bad files
// are errors (never aborts), and every checked-in experiment builds.
#include "scenario/experiment.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <string>
#include <vector>

#include "scenario/scenario_runner.h"

namespace sorn {
namespace {

// Four small points over one base: closed-loop saturation, open-loop
// flows labeled by clique (so the row carries the per-class values), a
// DCTCP incast into capped VOQs that both drops and ECN-marks cells, and
// flows through a node failure with retransmission, measured over a
// window.
constexpr const char* kPoints = R"({
  "description": "four points",
  "base": {"design": "sorn", "nodes": 16, "cliques": 4,
           "propagation_ns": 0},
  "points": [
    {"set": {"workload": "saturation", "warmup_slots": 200,
             "measure_slots": 800}},
    {"set": {"workload": "flows", "classify": "clique", "load": 0.3,
             "slots": 1500, "flow_size": "fixed"},
     "expect": {"class1_flows": [1, 1e9]}},
    {"set": {"workload": "incast", "incast_fanin": 12, "incast_bytes": 8192,
             "incast_period_slots": 200, "slots": 800, "drain_slots": 20000,
             "max_queue_cells": 8, "transport": "dctcp",
             "ecn_threshold_cells": 2, "retransmit_timeout": 128}},
    {"set": {"workload": "flows", "load": 0.3, "slots": 1500,
             "fault_script": "300 fail-node 3\n700 heal-node 3\n",
             "retransmit_timeout": 16},
     "window": [200, 900]}
  ]})";

double value_of(const ExperimentRow& row, const std::string& name) {
  for (const ExperimentRow::Value& v : row.values)
    if (v.name == name) return v.value;
  ADD_FAILURE() << "row has no value " << name;
  return 0.0;
}

TEST(ExperimentTest, RowsEqualDirectRunnerRuns) {
  Experiment experiment;
  std::string error;
  ASSERT_TRUE(Experiment::from_json(kPoints, &experiment, &error))
      << error;
  EXPECT_EQ(experiment.description, "four points");
  ASSERT_EQ(experiment.points.size(), 4u);
  EXPECT_EQ(experiment.points[0].label,
            R"({"workload":"saturation","warmup_slots":200,)"
            R"("measure_slots":800})");

  // The same configs, written out by hand.
  ScenarioConfig sat;
  sat.nodes = 16;
  sat.cliques = 4;
  sat.propagation_ns = 0;
  ScenarioConfig flows = sat;
  ScenarioConfig incast = sat;
  ScenarioConfig faulted = sat;
  sat.workload = WorkloadKind::kSaturation;
  sat.warmup_slots = 200;
  sat.measure_slots = 800;
  flows.workload = WorkloadKind::kFlows;
  flows.classify = ClassifyKind::kClique;
  flows.load = 0.3;
  flows.slots = 1500;
  flows.flow_size = FlowSizeKind::kFixed;
  incast.workload = WorkloadKind::kIncast;
  incast.incast_fanin = 12;
  incast.incast_bytes = 8192;
  incast.incast_period_slots = 200;
  incast.slots = 800;
  incast.drain_slots = 20000;
  incast.max_queue_cells = 8;
  incast.transport = "dctcp";
  incast.ecn_threshold_cells = 2;
  incast.retransmit_timeout = 128;
  faulted.workload = WorkloadKind::kFlows;
  faulted.load = 0.3;
  faulted.slots = 1500;
  faulted.fault_script = "300 fail-node 3\n700 heal-node 3\n";
  faulted.retransmit_timeout = 16;
  const ScenarioConfig direct[] = {sat, flows, incast, faulted};

  for (std::size_t i = 0; i < 4; ++i) {
    const Experiment::Point& point = experiment.points[i];
    EXPECT_EQ(point.config.to_json(), direct[i].to_json()) << i;
    ExperimentRow row;
    ASSERT_TRUE(run_experiment_point(point, &row, &error)) << error;
    EXPECT_TRUE(row.misses.empty()) << row.misses.front();

    const auto runner = ScenarioRunner::create(direct[i], &error);
    ASSERT_NE(runner, nullptr) << error;
    // The window by hand: delivered cells at the start of slots 200 and
    // 900.
    std::uint64_t at_200 = 0;
    std::uint64_t at_900 = 0;
    runner->set_slot_hook([&](SlottedNetwork& net, Slot now) {
      if (now == 200) at_200 = net.metrics().delivered_cells();
      if (now == 900) at_900 = net.metrics().delivered_cells();
    });
    ASSERT_TRUE(runner->run(&error)) << error;
    const SimMetrics& m = runner->metrics();
    const double predicted = runner->design().predicted_throughput;

    std::vector<std::string> names;
    for (const ExperimentRow::Value& v : row.values) names.push_back(v.name);
    EXPECT_EQ(names, experiment_value_names(point));
    EXPECT_EQ(value_of(row, "predicted_throughput"), predicted);
    EXPECT_EQ(value_of(row, "saturation_r"), runner->saturation_r());
    EXPECT_EQ(value_of(row, "r_over_predicted"),
              runner->saturation_r() / predicted);
    EXPECT_EQ(value_of(row, "mean_hops"), m.mean_hops());
    EXPECT_EQ(value_of(row, "delivered_cells"),
              static_cast<double>(m.delivered_cells()));
    EXPECT_EQ(value_of(row, "dropped_cells"),
              static_cast<double>(m.dropped_cells()));
    EXPECT_EQ(value_of(row, "ecn_marked_cells"),
              static_cast<double>(m.ecn_marked_cells()));
    EXPECT_EQ(value_of(row, "completed_flows"),
              static_cast<double>(m.completed_flows()));
    EXPECT_EQ(value_of(row, "open_flows"),
              static_cast<double>(m.open_flows()));
    EXPECT_EQ(value_of(row, "retransmitted_cells"),
              static_cast<double>(m.retransmitted_cells()));
    EXPECT_EQ(value_of(row, "cell_latency_p50_us"),
              m.cell_latency_ps().percentile(50.0) / 1e6);
    EXPECT_EQ(value_of(row, "cell_latency_p99_us"),
              m.cell_latency_ps().percentile(99.0) / 1e6);
    EXPECT_EQ(value_of(row, "fct_p50_us"), m.fct_ps().percentile(50.0) / 1e6);
    EXPECT_EQ(value_of(row, "fct_p99_us"), m.fct_ps().percentile(99.0) / 1e6);
    if (i == 0) {
      EXPECT_EQ(names.size(), 14u);  // no flow classes
      EXPECT_GT(runner->saturation_r(), 0.0);
      continue;
    }
    if (i == 2) {
      EXPECT_EQ(names.size(), 14u);
      EXPECT_GT(m.dropped_cells(), 0u);
      EXPECT_GT(m.ecn_marked_cells(), 0u);
      continue;
    }
    if (i == 3) {
      EXPECT_EQ(names.size(), 15u);
      EXPECT_EQ(names.back(), "window_cells_per_slot");
      EXPECT_GT(at_900, at_200);
      EXPECT_EQ(value_of(row, "window_cells_per_slot"),
                static_cast<double>(at_900 - at_200) / 700.0);
      EXPECT_GT(m.retransmitted_cells(), 0u);
      continue;
    }
    EXPECT_EQ(names.size(), 20u);
    for (int c = 0; c < 2; ++c) {
      const Percentiles& fct = m.fct_ps_class(c);
      const std::string prefix = "class" + std::to_string(c) + "_";
      EXPECT_GT(fct.count(), 0u) << c;
      EXPECT_EQ(value_of(row, prefix + "flows"),
                static_cast<double>(fct.count()));
      EXPECT_EQ(value_of(row, prefix + "fct_p50_us"),
                fct.percentile(50.0) / 1e6);
      EXPECT_EQ(value_of(row, prefix + "fct_p99_us"),
                fct.percentile(99.0) / 1e6);
    }
  }
}

TEST(ExperimentTest, BandsAreInclusiveAndMissesNameThePointAndValue) {
  Experiment experiment;
  std::string error;
  ASSERT_TRUE(Experiment::from_json(kPoints, &experiment, &error))
      << error;
  Experiment::Point point = experiment.points[0];
  ExperimentRow row;
  ASSERT_TRUE(run_experiment_point(point, &row, &error)) << error;
  const double r = value_of(row, "saturation_r");
  const double hops = value_of(row, "mean_hops");

  // Exactly lo and exactly hi are inside.
  point.expect = {{"saturation_r", r, r + 1.0},
                  {"mean_hops", hops - 1.0, hops}};
  ASSERT_TRUE(run_experiment_point(point, &row, &error)) << error;
  EXPECT_TRUE(row.misses.empty()) << row.misses.front();

  point.expect = {{"saturation_r", r + 1e-9, 1.0},
                  {"mean_hops", 0.0, hops * 2}};
  ASSERT_TRUE(run_experiment_point(point, &row, &error)) << error;
  ASSERT_EQ(row.misses.size(), 1u);
  EXPECT_NE(row.misses[0].find(point.label), std::string::npos)
      << row.misses[0];
  EXPECT_NE(row.misses[0].find("saturation_r"), std::string::npos)
      << row.misses[0];
}

TEST(ExperimentTest, MalformedExperimentsAreErrors) {
  const char* base = R"("base": {"nodes": 16, "cliques": 4})";
  const std::vector<std::pair<std::string, std::string>> docs = {
      {"'nodez'",
       std::string("{") + base + R"(, "points": [{"set": {"nodez": 4}}]})"},
      {"'turbo_r'", std::string("{") + base +
                        R"(, "points": [{"expect": {"turbo_r": [0, 1]}}]})"},
      // A class value on a point that does not classify flows.
      {"'class0_flows'",
       std::string("{") + base +
           R"(, "points": [{"expect": {"class0_flows": [0, 1]}}]})"},
      {"lo <= hi", std::string("{") + base +
                       R"(, "points": [{"expect": {"mean_hops": [2, 1]}}]})"},
      {"two numbers",
       std::string("{") + base +
           R"(, "points": [{"expect": {"mean_hops": [1, 2, 3]}}]})"},
      {"two numbers", std::string("{") + base +
                          R"(, "points": [{"expect": {"mean_hops": 1}}]})"},
      {"two numbers",
       std::string("{") + base +
           R"(, "points": [{"expect": {"mean_hops": ["1", 2]}}]})"},
      {"missing 'base'", R"({"points": [{}]})"},
      {"missing 'points'", std::string("{") + base + "}"},
      {"non-empty", std::string("{") + base + R"(, "points": []})"},
      {"'extra'", std::string("{") + base + R"(, "points": [{}], "extra": 1})"},
      {"'sett'", std::string("{") + base + R"(, "points": [{"sett": {}}]})"},
      {"base", R"({"base": {"nodes": 1}, "points": [{}]})"},
      {"point 1", std::string("{") + base +
                      R"(, "points": [{}, {"set": {"load": -1}}]})"},
      {"given twice",
       std::string("{") + base +
           R"(, "points": [{"expect": {"mean_hops": [1, 2],)"
           R"( "mean_hops": [1, 3]}}]})"},
      {"", "[1, 2]"},
      {"", "{"},
      // Windows: two integer slots 0 <= from < to, on an arrival-driven
      // point: a closed-loop one resets its counters at warmup_slots.
      {"window must be",
       std::string("{") + base + R"(, "points": [{"window": [900, 900]}]})"},
      {"window must be",
       std::string("{") + base + R"(, "points": [{"window": [-1, 900]}]})"},
      {"window must be",
       std::string("{") + base + R"(, "points": [{"window": [0, 900.5]}]})"},
      {"window must be",
       std::string("{") + base + R"(, "points": [{"window": [0]}]})"},
      {"resets its counters at warmup_slots",
       std::string("{") + base +
           R"(, "points": [{"set": {"workload": "saturation"},)"
           R"( "window": [0, 900]}]})"},
      // Only a point with a window reports its rate.
      {"'window_cells_per_slot'",
       std::string("{") + base +
           R"(, "points": [{"expect": {"window_cells_per_slot": [0, 1]}}]})"},
  };
  for (const auto& [needle, doc] : docs) {
    Experiment out;
    out.description = "sentinel";
    std::string error;
    EXPECT_FALSE(Experiment::from_json(doc, &out, &error)) << doc;
    EXPECT_FALSE(error.empty()) << doc;
    EXPECT_NE(error.find(needle), std::string::npos) << error;
    EXPECT_EQ(out.description, "sentinel") << doc;
  }
}

TEST(ExperimentTest, PointThatCreateRejectsIsAnError) {
  Experiment experiment;
  std::string error;
  // 15 nodes do not divide into 4 cliques: the sorn design refuses.
  ASSERT_TRUE(Experiment::from_json(
      R"({"base": {"nodes": 16, "cliques": 4},
          "points": [{"set": {"nodes": 15, "workload": "saturation"}}]})",
      &experiment, &error))
      << error;
  ExperimentRow row;
  EXPECT_FALSE(run_experiment_point(experiment.points[0], &row, &error));
  EXPECT_NE(error.find("cliques"), std::string::npos) << error;
}

TEST(ExperimentTest, WindowTheRunNeverReachesIsAnError) {
  Experiment experiment;
  std::string error;
  // 200 arrival slots of a light load drain long before slot 100000.
  ASSERT_TRUE(Experiment::from_json(
      R"({"base": {"nodes": 16, "cliques": 4},
          "points": [{"set": {"load": 0.05, "slots": 200},
                      "window": [100, 100000]}]})",
      &experiment, &error))
      << error;
  ExperimentRow row;
  EXPECT_FALSE(run_experiment_point(experiment.points[0], &row, &error));
  EXPECT_NE(error.find("window [100, 100000) not reached"), std::string::npos)
      << error;
}

TEST(ExperimentTest, CheckedInExperimentsParseAndBuild) {
  int files = 0;
  for (const auto& entry : std::filesystem::directory_iterator(
           std::string(SORN_SOURCE_DIR) + "/experiments")) {
    if (entry.path().extension() != ".json") continue;
    ++files;
    const std::string path = entry.path().string();
    Experiment experiment;
    std::string error;
    ASSERT_TRUE(Experiment::load_file(path, &experiment, &error)) << error;
    EXPECT_FALSE(experiment.description.empty()) << path;
    for (std::size_t i = 0; i < experiment.points.size(); ++i) {
      const Experiment::Point& point = experiment.points[i];
      EXPECT_FALSE(point.expect.empty()) << path << " point " << i;
      EXPECT_NE(ScenarioRunner::create(point.config, &error), nullptr)
          << path << " point " << i << ": " << error;
    }
  }
  EXPECT_GE(files, 9);
}

// Two checked-in scenarios, which CI's scenario smoke runs, are exactly
// points of experiments: incast_dctcp.json is the DCTCP point of
// incast.json, and degradation_vlb.json the outage point of
// degradation.json where safe mode swaps to VLB.
TEST(ExperimentTest, CiScenariosAreExperimentPoints) {
  const std::string root = SORN_SOURCE_DIR;
  const struct {
    const char* experiment;
    std::size_t points;
    std::size_t point;
    const char* scenario;
  } cases[] = {
      {"incast", 2, 1, "incast_dctcp"},
      {"degradation", 4, 2, "degradation_vlb"},
  };
  for (const auto& c : cases) {
    Experiment experiment;
    ScenarioConfig scenario;
    std::string error;
    ASSERT_TRUE(Experiment::load_file(
        root + "/experiments/" + c.experiment + ".json", &experiment, &error))
        << error;
    ASSERT_TRUE(ScenarioConfig::load_file(
        root + "/ci/scenarios/" + c.scenario + ".json", &scenario, &error))
        << error;
    ASSERT_EQ(experiment.points.size(), c.points) << c.experiment;
    EXPECT_EQ(experiment.points[c.point].config.to_json(), scenario.to_json())
        << c.scenario;
  }
}

}  // namespace
}  // namespace sorn
