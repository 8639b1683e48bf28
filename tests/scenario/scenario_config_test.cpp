// ScenarioConfig JSON codec: round-trip fidelity, strict unknown-key
// handling (a typo must be an error, not a silently-defaulted field),
// and cross-field validation.
#include <gtest/gtest.h>

#include <cstdio>
#include <string>

#include "scenario/scenario_config.h"
#include "scenario/scenario_runner.h"

namespace sorn {
namespace {

ScenarioConfig non_default_config() {
  ScenarioConfig cfg;
  cfg.design = "opera";
  cfg.nodes = 96;
  cfg.cliques = 12;
  cfg.locality_x = 0.71;
  cfg.q_num = 3;
  cfg.q_den = 2;
  cfg.max_q_denominator = 8;
  cfg.lb_first_available = true;
  cfg.inter_clique_weights = {0.0, 2.0, 2.0, 0.0};
  cfg.weighted_alpha = 0.9;
  cfg.clusters = 3;
  cfg.pods_per_cluster = 2;
  cfg.pod_locality_x1 = 0.45;
  cfg.cluster_locality_x2 = 0.25;
  cfg.dwell_slots = 64;
  cfg.schedule_seed = 99;
  cfg.max_short_hops = 4;
  cfg.bulk_cutoff_bytes = 1 << 20;
  cfg.orn_dims = 3;
  cfg.radices = {4, 6};
  cfg.lanes = 2;
  cfg.slot_ns = 200;
  cfg.propagation_ns = 500;
  cfg.cell_bytes = 512;
  cfg.max_queue_cells = 64;
  cfg.seed = 1234;
  cfg.threads = 4;
  cfg.traffic = TrafficKind::kRing;
  cfg.ring_heavy_share = 0.75;
  cfg.traffic_backend = DemandBackend::kProcedural;
  cfg.workload = WorkloadKind::kIncast;
  cfg.load = 0.55;
  cfg.slots = 12345;
  cfg.drain_slots = 42;
  cfg.warmup_slots = 11;
  cfg.measure_slots = 22;
  cfg.flow_size = FlowSizeKind::kFixed;
  cfg.fixed_flow_bytes = 4096;
  cfg.flow_size_cap = 65536;
  cfg.classify = ClassifyKind::kSize;
  cfg.arrival_seed = 5;
  cfg.workload_seed = 6;
  cfg.incast_fanin = 12;
  cfg.incast_bytes = 32768;
  cfg.incast_period_slots = 128;
  cfg.collective_kind = "tree";
  cfg.collective_bytes = 1 << 19;
  cfg.collective_phase_gap_slots = 96;
  cfg.rack_local_frac = 0.8;
  cfg.oversub_factor = 2.5;
  cfg.transport = "dctcp";
  cfg.ecn_threshold_cells = 8;
  cfg.init_cwnd_cells = 16;
  cfg.max_cwnd_cells = 128;
  cfg.dctcp_gain = 0.125;
  cfg.trace_path = "out.jsonl";
  cfg.metrics_json_path = "out.json";
  cfg.timeseries_csv_path = "out.csv";
  cfg.sample_every = 10;
  cfg.fault_script = "fail node 3 @ 100";
  cfg.node_mtbf_slots = 5000.0;
  cfg.node_mttr_slots = 400.0;
  cfg.circuit_mtbf_slots = 9000.0;
  cfg.circuit_mttr_slots = 300.0;
  cfg.fault_seed = 77;
  cfg.retransmit_timeout = 256;
  cfg.retransmit_max_attempts = 4;
  cfg.retransmit_jitter = 0.3;
  cfg.epoch_slots = 400;
  cfg.update_delay_slots = 24;
  cfg.control_outages = {100, 300, 900, 1100};
  cfg.controller_mtbf_slots = 7000.0;
  cfg.controller_mttr_slots = 600.0;
  cfg.control_fault_seed = 21;
  cfg.replan_apply_delay = 16;
  cfg.estimate_stale_epochs = 2;
  cfg.estimate_noise = 0.15;
  cfg.safe_mode = "vlb";
  cfg.check_invariants = true;
  return cfg;
}

TEST(ScenarioConfigTest, DefaultsRoundTrip) {
  const ScenarioConfig cfg;
  ScenarioConfig back;
  std::string error;
  ASSERT_TRUE(ScenarioConfig::from_json(cfg.to_json(), &back, &error))
      << error;
  EXPECT_EQ(cfg.to_json(), back.to_json());
}

TEST(ScenarioConfigTest, EveryFieldRoundTrips) {
  const ScenarioConfig cfg = non_default_config();
  const std::string doc = cfg.to_json();
  ScenarioConfig back;
  std::string error;
  ASSERT_TRUE(ScenarioConfig::from_json(doc, &back, &error)) << error;
  // Byte-identical re-serialization proves every serializable field
  // survived (the writer emits all of them in a fixed order).
  EXPECT_EQ(doc, back.to_json());
  EXPECT_EQ(back.design, "opera");
  EXPECT_EQ(back.nodes, 96);
  EXPECT_EQ(back.radices, (std::vector<NodeId>{4, 6}));
  EXPECT_EQ(back.workload, WorkloadKind::kIncast);
  EXPECT_EQ(back.traffic, TrafficKind::kRing);
  EXPECT_EQ(back.traffic_backend, DemandBackend::kProcedural);
  EXPECT_EQ(back.flow_size, FlowSizeKind::kFixed);
  EXPECT_EQ(back.classify, ClassifyKind::kSize);
  EXPECT_DOUBLE_EQ(back.node_mtbf_slots, 5000.0);
  EXPECT_EQ(back.retransmit_timeout, 256);
  EXPECT_EQ(back.incast_fanin, 12);
  EXPECT_EQ(back.incast_bytes, 32768u);
  EXPECT_EQ(back.incast_period_slots, 128);
  EXPECT_EQ(back.collective_kind, "tree");
  EXPECT_DOUBLE_EQ(back.oversub_factor, 2.5);
  EXPECT_EQ(back.transport, "dctcp");
  EXPECT_EQ(back.ecn_threshold_cells, 8u);
  EXPECT_DOUBLE_EQ(back.dctcp_gain, 0.125);
}

TEST(ScenarioConfigTest, AbsentFieldsKeepDefaults) {
  ScenarioConfig back;
  std::string error;
  ASSERT_TRUE(ScenarioConfig::from_json(R"({"design": "vlb", "nodes": 16})",
                                        &back, &error))
      << error;
  EXPECT_EQ(back.design, "vlb");
  EXPECT_EQ(back.nodes, 16);
  const ScenarioConfig defaults;
  EXPECT_EQ(back.cliques, defaults.cliques);
  EXPECT_DOUBLE_EQ(back.load, defaults.load);
  EXPECT_EQ(back.workload, defaults.workload);
}

TEST(ScenarioConfigTest, UnknownKeyIsAnError) {
  ScenarioConfig back;
  std::string error;
  EXPECT_FALSE(
      ScenarioConfig::from_json(R"({"nodez": 16})", &back, &error));
  EXPECT_NE(error.find("nodez"), std::string::npos) << error;
}

TEST(ScenarioConfigTest, TypeMismatchIsAnError) {
  ScenarioConfig back;
  std::string error;
  EXPECT_FALSE(
      ScenarioConfig::from_json(R"({"nodes": "many"})", &back, &error));
  EXPECT_FALSE(error.empty());

  // Unsigned fields refuse negatives rather than wrapping to 2^64 - 1.
  for (const char* key : {"cell_bytes", "max_queue_cells", "fixed_flow_bytes",
                          "ecn_threshold_cells", "seed"}) {
    error.clear();
    const std::string doc = std::string(R"({")") + key + R"(": -1})";
    EXPECT_FALSE(ScenarioConfig::from_json(doc, &back, &error)) << key;
    EXPECT_NE(error.find(key), std::string::npos) << error;
  }
}

TEST(ScenarioConfigTest, BadEnumValueIsAnError) {
  ScenarioConfig back;
  std::string error;
  EXPECT_FALSE(ScenarioConfig::from_json(R"({"workload": "turbo"})", &back,
                                         &error));
  EXPECT_FALSE(error.empty());
}

TEST(ScenarioConfigTest, BadTrafficBackendIsAnError) {
  ScenarioConfig back;
  std::string error;
  EXPECT_FALSE(ScenarioConfig::from_json(
      R"({"traffic_backend": "hologram"})", &back, &error));
  EXPECT_NE(error.find("backend"), std::string::npos) << error;
}

TEST(ScenarioConfigTest, MalformedJsonLeavesOutputUntouched) {
  ScenarioConfig back;
  back.design = "sentinel";
  std::string error;
  EXPECT_FALSE(ScenarioConfig::from_json("{\"nodes\": ", &back, &error));
  EXPECT_EQ(back.design, "sentinel");
}

TEST(ScenarioConfigTest, ValidateRejectsBadRanges) {
  std::string error;
  ScenarioConfig cfg;
  cfg.nodes = 1;
  EXPECT_FALSE(cfg.validate(&error));

  cfg = ScenarioConfig{};
  cfg.locality_x = 1.5;
  EXPECT_FALSE(cfg.validate(&error));

  cfg = ScenarioConfig{};
  cfg.node_mtbf_slots = 1000.0;  // MTBF without MTTR
  EXPECT_FALSE(cfg.validate(&error));
  EXPECT_NE(error.find("MTTR"), std::string::npos) << error;

  cfg = ScenarioConfig{};
  cfg.fault_script = "fail node 0 @ 1";
  cfg.fault_script_path = "script.txt";
  EXPECT_FALSE(cfg.validate(&error));

  cfg = ScenarioConfig{};
  cfg.cell_bytes = 0;
  EXPECT_FALSE(cfg.validate(&error));
  EXPECT_NE(error.find("cell_bytes"), std::string::npos) << error;
  // The runner reports the same error instead of aborting in the engine.
  error.clear();
  EXPECT_EQ(ScenarioRunner::create(cfg, &error), nullptr);
  EXPECT_NE(error.find("cell_bytes"), std::string::npos) << error;

  cfg = ScenarioConfig{};
  cfg.flow_size = FlowSizeKind::kFixed;
  cfg.fixed_flow_bytes = 0;
  EXPECT_FALSE(cfg.validate(&error));
  EXPECT_NE(error.find("fixed_flow_bytes"), std::string::npos) << error;
  error.clear();
  EXPECT_EQ(ScenarioRunner::create(cfg, &error), nullptr);
  EXPECT_NE(error.find("fixed_flow_bytes"), std::string::npos) << error;
  // Only the fixed distribution reads fixed_flow_bytes.
  cfg.flow_size = FlowSizeKind::kPfabricWebSearch;
  EXPECT_TRUE(cfg.validate(&error)) << error;

  cfg = ScenarioConfig{};
  EXPECT_TRUE(cfg.validate(&error)) << error;
}

TEST(ScenarioConfigTest, ValidateRejectsBadControlFaultFields) {
  std::string error;
  ScenarioConfig cfg;
  cfg.epoch_slots = 100;
  cfg.control_outages = {10, 20, 30};  // odd length: not (start, end) pairs
  EXPECT_FALSE(cfg.validate(&error));

  cfg = ScenarioConfig{};
  cfg.epoch_slots = 100;
  cfg.control_outages = {50, 40};  // end before start
  EXPECT_FALSE(cfg.validate(&error));

  cfg = ScenarioConfig{};
  cfg.epoch_slots = 100;
  cfg.controller_mtbf_slots = 1000.0;  // MTBF without MTTR
  EXPECT_FALSE(cfg.validate(&error));

  cfg = ScenarioConfig{};
  cfg.epoch_slots = 100;
  cfg.safe_mode = "panic";
  EXPECT_FALSE(cfg.validate(&error));
  EXPECT_NE(error.find("safe_mode"), std::string::npos) << error;

  cfg = ScenarioConfig{};
  cfg.epoch_slots = 100;
  cfg.estimate_noise = 1.5;
  EXPECT_FALSE(cfg.validate(&error));

  cfg = ScenarioConfig{};
  cfg.retransmit_jitter = -0.1;
  EXPECT_FALSE(cfg.validate(&error));

  // Any control-plane fault knob without a control plane to break is a
  // config error, not a silent no-op.
  cfg = ScenarioConfig{};
  cfg.control_outages = {10, 20};
  EXPECT_FALSE(cfg.validate(&error));
  EXPECT_NE(error.find("epoch_slots"), std::string::npos) << error;

  // The same knobs with a control loop are fine.
  cfg.epoch_slots = 100;
  EXPECT_TRUE(cfg.validate(&error)) << error;
}

TEST(ScenarioConfigTest, ValidateRejectsBadWorkloadAndTransportFields) {
  std::string error;
  ScenarioConfig cfg;
  cfg.workload = WorkloadKind::kIncast;
  cfg.nodes = 16;
  cfg.incast_fanin = 16;  // fanin must leave room for the receiver
  EXPECT_FALSE(cfg.validate(&error));
  EXPECT_NE(error.find("incast_fanin"), std::string::npos) << error;

  // Other workloads tolerate any default fanin at small N.
  cfg = ScenarioConfig{};
  cfg.nodes = 16;
  cfg.cliques = 4;
  EXPECT_TRUE(cfg.validate(&error)) << error;

  cfg = ScenarioConfig{};
  cfg.workload = WorkloadKind::kCollective;
  cfg.collective_kind = "butterfly";
  EXPECT_FALSE(cfg.validate(&error));
  EXPECT_NE(error.find("collective_kind"), std::string::npos) << error;

  cfg = ScenarioConfig{};
  cfg.rack_local_frac = 1.5;
  EXPECT_FALSE(cfg.validate(&error));

  cfg = ScenarioConfig{};
  cfg.oversub_factor = 0.5;
  EXPECT_FALSE(cfg.validate(&error));

  cfg = ScenarioConfig{};
  cfg.transport = "quic";
  EXPECT_FALSE(cfg.validate(&error));
  EXPECT_NE(error.find("transport"), std::string::npos) << error;

  // The closed-loop transport needs a flow driver to pump it.
  cfg = ScenarioConfig{};
  cfg.transport = "dctcp";
  cfg.workload = WorkloadKind::kSaturation;
  EXPECT_FALSE(cfg.validate(&error));

  cfg = ScenarioConfig{};
  cfg.transport = "dctcp";
  cfg.init_cwnd_cells = 64;
  cfg.max_cwnd_cells = 32;  // init above max
  EXPECT_FALSE(cfg.validate(&error));

  cfg = ScenarioConfig{};
  cfg.dctcp_gain = 0.0;
  EXPECT_FALSE(cfg.validate(&error));

  // The happy paths: each new workload and the transport validate.
  cfg = ScenarioConfig{};
  cfg.workload = WorkloadKind::kIncast;
  cfg.transport = "dctcp";
  cfg.ecn_threshold_cells = 8;
  EXPECT_TRUE(cfg.validate(&error)) << error;
  cfg.workload = WorkloadKind::kCollective;
  EXPECT_TRUE(cfg.validate(&error)) << error;
  cfg.workload = WorkloadKind::kOversubRack;
  EXPECT_TRUE(cfg.validate(&error)) << error;
}

TEST(ScenarioConfigTest, LoadFileRoundTrips) {
  const ScenarioConfig cfg = non_default_config();
  const std::string path = ::testing::TempDir() + "scenario_cfg_test.json";
  std::FILE* f = std::fopen(path.c_str(), "w");
  ASSERT_NE(f, nullptr);
  const std::string doc = cfg.to_json();
  std::fwrite(doc.data(), 1, doc.size(), f);
  std::fclose(f);

  ScenarioConfig back;
  std::string error;
  ASSERT_TRUE(ScenarioConfig::load_file(path, &back, &error)) << error;
  EXPECT_EQ(doc, back.to_json());
  std::remove(path.c_str());

  EXPECT_FALSE(
      ScenarioConfig::load_file("/nonexistent/scenario.json", &back, &error));
  EXPECT_FALSE(error.empty());
}

}  // namespace
}  // namespace sorn
