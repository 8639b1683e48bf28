#include "obs/export.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>

#include "routing/direct.h"
#include "sim/network.h"
#include "topo/schedule_builder.h"

namespace sorn {
namespace {

NetworkConfig fast_config() {
  NetworkConfig c;
  c.lanes = 1;
  c.propagation_per_hop = 0;
  return c;
}

TEST(ExportTest, RunningStatsBlock) {
  RunningStats s;
  s.add(1.0);
  s.add(3.0);
  JsonWriter w;
  json_running_stats(w, s);
  EXPECT_EQ(w.str(),
            R"({"count":2,"mean":2,"stddev":1.4142135623730951,)"
            R"("min":1,"max":3})");
}

TEST(ExportTest, EmptyRunningStatsHasNullExtrema) {
  RunningStats s;
  JsonWriter w;
  json_running_stats(w, s);
  // min/max of the empty object are +/-inf, which JSON renders as null.
  EXPECT_NE(w.str().find("\"min\":null"), std::string::npos);
  EXPECT_NE(w.str().find("\"max\":null"), std::string::npos);
}

TEST(ExportTest, PercentilesBlockHasFixedKeys) {
  Percentiles p;
  for (int i = 1; i <= 4; ++i) p.add(static_cast<double>(i));
  JsonWriter w;
  json_percentiles(w, p);
  const std::string& s = w.str();
  for (const char* key : {"\"count\":4", "\"mean\":2.5", "\"p0\":1",
                          "\"p50\":2.5", "\"p100\":4"})
    EXPECT_NE(s.find(key), std::string::npos) << "missing " << key;
}

TEST(ExportTest, HistogramBlock) {
  Histogram h(0.0, 2.0, 2);
  h.add(0.5);
  h.add(1.5);
  h.add(1.6);
  JsonWriter w;
  json_histogram(w, h);
  EXPECT_EQ(w.str(),
            R"({"total":3,"bins":[{"low":0,"count":1},{"low":1,"count":2}]})");
}

TEST(ExportTest, RunJsonCoversAggregatesAndTimeseries) {
  const CircuitSchedule s = ScheduleBuilder::round_robin(4);
  const DirectRouter router;
  SlottedNetwork net(&s, &router, fast_config());
  Telemetry telemetry(TelemetryOptions{.sample_every = 1});
  net.add_observer(&telemetry);
  net.inject_flow(1, 0, 1, 512, /*flow_class=*/3);
  net.run(10);

  ExportOptions opts;
  opts.nodes = 4;
  const std::string json = run_to_json(net.metrics(), &telemetry, opts);
  for (const char* key :
       {"\"counters\"", "\"slots_run\":10", "\"completed_flows\":1",
        "\"delivered_per_slot\"", "\"cell_latency_ps\"",
        "\"cell_latency_histogram\"", "\"fct_ps\"", "\"fct_ps_by_class\"",
        "\"3\":", "\"queue_occupancy\"", "\"registry\"",
        "\"sim.flows_injected\":1", "\"timeseries\"", "\"sample_every\":1",
        "\"rows\""})
    EXPECT_NE(json.find(key), std::string::npos) << "missing " << key;
  // Telemetry's seven counters in name order, then the empty gauges.
  EXPECT_NE(json.find("\"registry\":{\"counters\":{\"sim.cells_dropped\":0,"
                      "\"sim.ecn_marks\":0,\"sim.failures\":0,"
                      "\"sim.flows_injected\":1,\"sim.gray_drops\":0,"
                      "\"sim.reconfigures\":0,\"sim.retransmits\":0},"
                      "\"gauges\":{}}"),
            std::string::npos)
      << json;
  // 10 sampled slots.
  EXPECT_EQ(telemetry.timeseries()->samples().size(), 10u);
}

TEST(ExportTest, RunJsonWithoutTelemetryOmitsRegistry) {
  const CircuitSchedule s = ScheduleBuilder::round_robin(4);
  const DirectRouter router;
  SlottedNetwork net(&s, &router, fast_config());
  net.inject_cell(0, 1);
  net.run(2);
  const std::string json = run_to_json(net.metrics(), nullptr);
  EXPECT_EQ(json.find("\"registry\""), std::string::npos);
  EXPECT_EQ(json.find("\"timeseries\""), std::string::npos);
  EXPECT_NE(json.find("\"delivered_cells\":1"), std::string::npos);
}

TEST(ExportTest, WriteTextFileRoundTrip) {
  const std::string path = testing::TempDir() + "/sorn_export_test.json";
  ASSERT_TRUE(write_text_file(path, "{\"ok\":true}\n"));
  std::ifstream in(path);
  std::stringstream ss;
  ss << in.rdbuf();
  EXPECT_EQ(ss.str(), "{\"ok\":true}\n");
  std::remove(path.c_str());
}

TEST(ExportTest, WriteTextFileFailsOnBadPath) {
  EXPECT_FALSE(write_text_file("/nonexistent-dir-xyz/out.json", "x"));
}

// /dev/full opens fine and fails on write or flush, like a full disk.
TEST(ExportTest, WriteTextFileFailsOnAFullDevice) {
  if (!std::ifstream("/dev/full").good()) GTEST_SKIP() << "no /dev/full";
  EXPECT_FALSE(write_text_file("/dev/full", "x"));
}

}  // namespace
}  // namespace sorn
