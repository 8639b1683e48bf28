// ScenarioConfig JSON codec: round-trip fidelity, strict unknown-key
// handling (a typo must be an error, not a silently-defaulted field),
// range checks by member type, the sorn_tool flags that share the
// reader, and cross-field validation.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <limits>
#include <map>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "fuzz/mutants.h"
#include "scenario/chaos.h"
#include "scenario/scenario_config.h"
#include "scenario/scenario_runner.h"
#include "util/rng.h"

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

constexpr const char* kDefaultJson =
    R"({"design":"sorn","nodes":64,"cliques":8,)"
    R"("locality":0.56000000000000005,"q_num":0,"q_den":1,)"
    R"("max_q_denominator":6,"lb_first_available":false,)"
    R"("inter_clique_weights":[],"weighted_alpha":0.69999999999999996,)"
    R"("clusters":4,"pods_per_cluster":4,"pod_locality_x1":0.5,)"
    R"("cluster_locality_x2":0.29999999999999999,"dwell_slots":900,)"
    R"("schedule_seed":17,"max_short_hops":6,"bulk_cutoff_bytes":0,)"
    R"("orn_dims":2,"radices":[],"lanes":1,"slot_ns":100,)"
    R"("propagation_ns":0,"cell_bytes":256,"max_queue_cells":0,)"
    R"("seed":42,"traffic":"locality",)"
    R"("ring_heavy_share":0.84999999999999998,)"
    R"("traffic_backend":"dense","workload":"flows",)"
    R"("load":0.29999999999999999,"slots":30000,"drain_slots":200000,)"
    R"("warmup_slots":4000,"measure_slots":8000,)"
    R"("flow_size":"pfabric-web-search","fixed_flow_bytes":2560,)"
    R"("flow_size_cap":0,"classify":"none","arrival_seed":1,)"
    R"("workload_seed":7,"incast_fanin":32,"incast_bytes":16384,)"
    R"("incast_period_slots":512,"collective_kind":"ring",)"
    R"("collective_bytes":262144,"collective_phase_gap_slots":256,)"
    R"("rack_local_frac":0.59999999999999998,"oversub_factor":4,)"
    R"("transport":"open-loop","ecn_threshold_cells":0,)"
    R"("init_cwnd_cells":8,"max_cwnd_cells":256,"dctcp_gain":0.0625,)"
    R"("trace":"","metrics_json":"","timeseries_csv":"",)"
    R"("sample_every":1,"profile":false,"profile_json":"",)"
    R"("fault_script":"","fault_script_path":"","mtbf":0,"mttr":0,)"
    R"("circuit_mtbf":0,"circuit_mttr":0,"fault_seed":1,)"
    R"("epoch_slots":0,"update_delay_slots":0,"control_outages":[],)"
    R"("controller_mtbf":0,"controller_mttr":0,"control_fault_seed":1,)"
    R"("replan_apply_delay":0,"estimate_stale_epochs":0,)"
    R"("estimate_noise":0,"safe_mode":"hold","check_invariants":false,)"
    R"("retransmit_timeout":0,"retransmit_max_attempts":8,)"
    R"("retransmit_jitter":0})" "\n";
constexpr const char* kNonDefaultJson =
    R"({"design":"opera","nodes":96,"cliques":12,)"
    R"("locality":0.70999999999999996,"q_num":3,"q_den":2,)"
    R"("max_q_denominator":8,"lb_first_available":true,)"
    R"("inter_clique_weights":[0,2,2,0],)"
    R"("weighted_alpha":0.90000000000000002,"clusters":3,)"
    R"("pods_per_cluster":2,"pod_locality_x1":0.45000000000000001,)"
    R"("cluster_locality_x2":0.25,"dwell_slots":64,"schedule_seed":99,)"
    R"("max_short_hops":4,"bulk_cutoff_bytes":1048576,"orn_dims":3,)"
    R"("radices":[4,6],"lanes":2,"slot_ns":200,"propagation_ns":500,)"
    R"("cell_bytes":512,"max_queue_cells":64,"seed":1234,)"
    R"("traffic":"ring","ring_heavy_share":0.75,)"
    R"("traffic_backend":"procedural","workload":"incast",)"
    R"("load":0.55000000000000004,"slots":12345,"drain_slots":42,)"
    R"("warmup_slots":11,"measure_slots":22,"flow_size":"fixed",)"
    R"("fixed_flow_bytes":4096,"flow_size_cap":65536,)"
    R"("classify":"size","arrival_seed":5,"workload_seed":6,)"
    R"("incast_fanin":12,"incast_bytes":32768,)"
    R"("incast_period_slots":128,"collective_kind":"tree",)"
    R"("collective_bytes":524288,"collective_phase_gap_slots":96,)"
    R"("rack_local_frac":0.80000000000000004,"oversub_factor":2.5,)"
    R"("transport":"dctcp","ecn_threshold_cells":8,)"
    R"("init_cwnd_cells":16,"max_cwnd_cells":128,"dctcp_gain":0.125,)"
    R"("trace":"out.jsonl","metrics_json":"out.json",)"
    R"("timeseries_csv":"out.csv","sample_every":10,"profile":false,)"
    R"("profile_json":"","fault_script":"fail node 3 @ 100",)"
    R"("fault_script_path":"","mtbf":5000,"mttr":400,)"
    R"("circuit_mtbf":9000,"circuit_mttr":300,"fault_seed":77,)"
    R"("epoch_slots":400,"update_delay_slots":24,)"
    R"("control_outages":[100,300,900,1100],"controller_mtbf":7000,)"
    R"("controller_mttr":600,"control_fault_seed":21,)"
    R"("replan_apply_delay":16,"estimate_stale_epochs":2,)"
    R"("estimate_noise":0.14999999999999999,"safe_mode":"vlb",)"
    R"("check_invariants":true,"retransmit_timeout":256,)"
    R"("retransmit_max_attempts":4,)"
    R"("retransmit_jitter":0.29999999999999999})" "\n";

// The bytes to_json wrote before the field list replaced its hand-written
// body; a valid scenario must keep serializing to exactly these.
TEST(ScenarioConfigTest, ToJsonBytesArePinned) {
  EXPECT_EQ(ScenarioConfig{}.to_json(), kDefaultJson);
  EXPECT_EQ(non_default_config().to_json(), kNonDefaultJson);
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

// "threads" is retired: the engine runs every slot on one thread. The
// reader still takes a non-negative integer there and drops it, so
// sornbench's large-n-t2 config (written with "threads": 2) loads, saves
// without the key and runs on one thread; anything else is an error.
TEST(ScenarioConfigTest, RetiredThreadsKeyIsCheckedThenDropped) {
  constexpr const char* kLargeNT2 = R"({
   "design": "sorn", "propagation_ns": 0, "traffic_backend": "procedural",
   "nodes": 4096, "cliques": 64, "locality": 0.6, "lanes": 16,
   "workload": "flows", "flow_size": "fixed", "fixed_flow_bytes": 40960,
   "load": 2.0, "slots": 15, "drain_slots": 150, "threads": 2,
   "arrival_seed": 1, "seed": 1, "workload_seed": 1, "fault_seed": 1,
   "control_fault_seed": 1})";
  ScenarioConfig cfg;
  std::string error;
  ASSERT_TRUE(ScenarioConfig::from_json(kLargeNT2, &cfg, &error)) << error;
  const std::string saved = cfg.to_json();
  EXPECT_EQ(saved.find("threads"), std::string::npos) << saved;
  ScenarioConfig back;
  ASSERT_TRUE(ScenarioConfig::from_json(saved, &back, &error)) << error;
  EXPECT_EQ(back.to_json(), saved);
  auto runner = ScenarioRunner::create(cfg, &error);
  ASSERT_NE(runner, nullptr) << error;
  ASSERT_TRUE(runner->run(&error)) << error;
  EXPECT_EQ(runner->network().threads(), 1);
  EXPECT_GT(runner->metrics().delivered_cells(), 0u);

  for (const char* doc : {R"({"threads": -1})", R"({"threads": "2"})"}) {
    ScenarioConfig rejected;
    rejected.design = "sentinel";
    error.clear();
    EXPECT_FALSE(ScenarioConfig::from_json(doc, &rejected, &error)) << doc;
    EXPECT_NE(error.find("'threads'"), std::string::npos) << error;
    EXPECT_EQ(rejected.design, "sentinel");
  }
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

// Chaos configs carry full-range uint64 seeds (fault_seed,
// control_fault_seed), which once reloaded clamped to 2^63 - 1.
TEST(ScenarioConfigTest, ChaosConfigsRoundTrip) {
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    const std::string doc = make_chaos_config(seed, ChaosKnobs{}).to_json();
    ScenarioConfig back;
    std::string error;
    ASSERT_TRUE(ScenarioConfig::from_json(doc, &back, &error))
        << "seed " << seed << ": " << error;
    EXPECT_EQ(back.to_json(), doc) << "seed " << seed;
  }
}

TEST(ScenarioConfigTest, SeedsSpanTheFullUint64Range) {
  ScenarioConfig back;
  std::string error;
  ASSERT_TRUE(ScenarioConfig::from_json(
      R"({"seed": 18446744073709551615})", &back, &error))
      << error;
  EXPECT_EQ(back.seed, std::numeric_limits<std::uint64_t>::max());
  EXPECT_NE(back.to_json().find(R"("seed":18446744073709551615,)"),
            std::string::npos);

  EXPECT_FALSE(ScenarioConfig::from_json(
      R"({"seed": 18446744073709551616})", &back, &error));
  EXPECT_NE(error.find("'seed'"), std::string::npos) << error;
  EXPECT_EQ(back.seed, std::numeric_limits<std::uint64_t>::max());
}

// A value outside the member's own type range, or a key given twice, is an
// error naming the key, never a wrapped, clamped or overwritten value that
// runs a different experiment.
TEST(ScenarioConfigTest, BadValuesAreErrorsNamingTheKey) {
  const std::vector<std::pair<std::string, std::string>> docs = {
      {"nodes", R"({"nodes": 4294967328})"},
      {"cliques", R"({"cliques": -2147483649})"},
      {"lanes", R"({"lanes": 2147483648})"},
      {"retransmit_max_attempts",
       R"({"retransmit_max_attempts": 4294967297})"},
      {"slots", R"({"slots": 9223372036854775808})"},
      {"seed", R"({"seed": 99999999999999999999})"},
      {"control_outages", R"({"control_outages": [10, 1e3]})"},
      {"radices", R"({"radices": [4, 4294967296]})"},
      {"load", R"({"load": 1e999})"},
      {"nodes", R"({"nodes": 16, "load": 0.5, "nodes": 32})"},
  };
  for (const auto& [key, doc] : docs) {
    ScenarioConfig back;
    back.design = "sentinel";
    std::string error;
    EXPECT_FALSE(ScenarioConfig::from_json(doc, &back, &error)) << doc;
    EXPECT_NE(error.find("'" + key + "'"), std::string::npos) << error;
    EXPECT_EQ(back.design, "sentinel");
  }
}

// Seeded mutants of a full scenario document. Each must either fail with
// an error and leave *out untouched, or parse into a config whose JSON
// reads back to the same bytes.
TEST(ScenarioConfigTest, MutantsFailCleanlyOrRoundTrip) {
  const std::string doc = non_default_config().to_json();
  ScenarioConfig sentinel;
  sentinel.design = "sentinel";
  const std::string sentinel_json = sentinel.to_json();

  Rng rng(0x5eed);
  int parsed = 0;
  for (int i = 0; i < 3000; ++i) {
    const std::string m = mutant(doc, rng);
    ScenarioConfig out = sentinel;
    std::string error;
    if (!ScenarioConfig::from_json(m, &out, &error)) {
      EXPECT_FALSE(error.empty()) << m;
      EXPECT_EQ(out.to_json(), sentinel_json) << m;
      continue;
    }
    ++parsed;
    const std::string once = out.to_json();
    ScenarioConfig again;
    ASSERT_TRUE(ScenarioConfig::from_json(once, &again, &error))
        << error << "\nmutant: " << m;
    EXPECT_EQ(again.to_json(), once) << "mutant: " << m;
  }
  // Some mutants must reach the field readers, not only the parser.
  EXPECT_GT(parsed, 100);
}

// Flag values as a command line would give them; records every flag the
// config asks about.
struct FakeCommandLine {
  std::map<std::string, std::string> given;
  std::vector<std::string> asked;

  ScenarioConfig::FlagLookup lookup() {
    return [this](const char* flag,
                  bool) -> std::optional<std::string> {
      asked.emplace_back(flag);
      const auto it = given.find(flag);
      if (it == given.end()) return std::nullopt;
      return it->second;
    };
  }
};

// simulate's 48 field flags, name for name.
TEST(ScenarioConfigTest, FlagSetsMatchTheCli) {
  FakeCommandLine cli;
  ScenarioConfig cfg;
  std::string error;
  ASSERT_TRUE(cfg.apply_flags(cli.lookup(), &error)) << error;
  EXPECT_EQ(
      cli.asked,
      (std::vector<std::string>{
          "--design", "--nodes", "--cliques", "--locality", "--seed",
          "--traffic-backend", "--workload", "--load", "--slots",
          "--incast-fanin", "--incast-bytes", "--incast-period",
          "--collective", "--collective-bytes", "--collective-gap",
          "--rack-local-frac", "--oversub-factor", "--transport",
          "--ecn-threshold", "--init-cwnd", "--max-cwnd", "--dctcp-gain",
          "--trace", "--metrics-json", "--timeseries-csv", "--sample-every",
          "--profile", "--profile-json", "--fault-script", "--mtbf",
          "--mttr", "--circuit-mtbf", "--circuit-mttr", "--fault-seed",
          "--epoch-slots", "--update-delay", "--control-outages",
          "--controller-mtbf", "--controller-mttr", "--control-fault-seed",
          "--replan-apply-delay", "--estimate-stale-epochs",
          "--estimate-noise", "--safe-mode", "--check-invariants",
          "--retransmit-timeout", "--retransmit-max-attempts",
          "--retransmit-jitter"}));
  EXPECT_EQ(cfg.to_json(), ScenarioConfig{}.to_json());  // none were given
}

TEST(ScenarioConfigTest, FlagsReadLikeTheirJsonKeys) {
  FakeCommandLine cli;
  cli.given = {{"--nodes", "96"},
               {"--locality", "0.71"},
               {"--seed", "18446744073709551615"},
               {"--workload", "incast"},
               {"--trace", "run.jsonl"},
               {"--fault-script", "faults.txt"},
               {"--control-outages", "100,300,900,1100"},
               {"--profile", ""}};
  ScenarioConfig cfg;
  std::string error;
  ASSERT_TRUE(cfg.apply_flags(cli.lookup(), &error)) << error;
  EXPECT_EQ(cfg.nodes, 96);
  EXPECT_DOUBLE_EQ(cfg.locality_x, 0.71);
  EXPECT_EQ(cfg.seed, std::numeric_limits<std::uint64_t>::max());
  EXPECT_EQ(cfg.workload, WorkloadKind::kIncast);
  EXPECT_EQ(cfg.trace_path, "run.jsonl");
  EXPECT_EQ(cfg.fault_script_path, "faults.txt");
  EXPECT_EQ(cfg.control_outages, (std::vector<Slot>{100, 300, 900, 1100}));
  EXPECT_TRUE(cfg.profile);
}

TEST(ScenarioConfigTest, BadFlagValuesAreErrorsNamingTheFlag) {
  const std::vector<std::pair<std::string, std::string>> bad = {
      {"--nodes", "4294967328"},
      {"--nodes", "12abc"},
      {"--retransmit-max-attempts", "4294967297"},
      {"--seed", "18446744073709551616"},
      {"--seed", "-1"},
      {"--control-outages", "10,20,abc,40"},
      {"--control-outages", "10,,20"},
      {"--load", "nan"},
      {"--workload", "turbo"},
      {"--traffic-backend", "hologram"},
  };
  for (const auto& [flag, text] : bad) {
    FakeCommandLine cli;
    cli.given = {{"--slots", "77"}, {flag, text}};
    ScenarioConfig cfg;
    std::string error;
    EXPECT_FALSE(cfg.apply_flags(cli.lookup(), &error))
        << flag << " " << text;
    EXPECT_EQ(error.rfind(flag, 0), 0u) << error;
    EXPECT_EQ(cfg.slots, ScenarioConfig{}.slots);  // untouched on failure
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

  // Bounds the sorn_tool flags once checked on their own now hold for
  // JSON too.
  cfg = ScenarioConfig{};
  cfg.circuit_mttr_slots = -1.0;
  EXPECT_FALSE(cfg.validate(&error));
  EXPECT_NE(error.find("circuit_mttr"), std::string::npos) << error;

  cfg = ScenarioConfig{};
  cfg.retransmit_max_attempts = 0;
  EXPECT_FALSE(cfg.validate(&error));
  EXPECT_NE(error.find("retransmit_max_attempts"), std::string::npos)
      << error;

  cfg = ScenarioConfig{};
  cfg.incast_fanin = 0;  // not the incast workload, still no fan-in
  EXPECT_FALSE(cfg.validate(&error));
  EXPECT_NE(error.find("incast_fanin"), std::string::npos) << error;

  // Cells store node ids in 16 bits: 65536 nodes is the largest network
  // (whose demand only the procedural backend can hold).
  cfg = ScenarioConfig{};
  cfg.nodes = 65537;
  EXPECT_FALSE(cfg.validate(&error));
  EXPECT_NE(error.find("nodes"), std::string::npos) << error;
  cfg.nodes = 65536;
  cfg.traffic_backend = DemandBackend::kProcedural;
  EXPECT_TRUE(cfg.validate(&error)) << error;

  cfg = ScenarioConfig{};
  EXPECT_TRUE(cfg.validate(&error)) << error;
}

TEST(ScenarioConfigTest, ValidateCapsMaterializedDemandEntries) {
  // Dense demand stores nodes^2 entries and sparse up to nodes x
  // (nodes - 1); past 2^28 the allocation would abort, so validate()
  // names the backend that holds any N.
  std::string error;
  ScenarioConfig cfg;
  cfg.nodes = 16384;  // 2^28 dense entries: at the cap
  EXPECT_TRUE(cfg.validate(&error)) << error;
  cfg.nodes = 16385;
  EXPECT_FALSE(cfg.validate(&error));
  EXPECT_NE(error.find("\"traffic_backend\": \"procedural\""),
            std::string::npos)
      << error;
  EXPECT_NE(error.find("\"dense\""), std::string::npos) << error;
  cfg.traffic_backend = DemandBackend::kSparse;  // 16385 x 16384 > 2^28
  EXPECT_FALSE(cfg.validate(&error));
  EXPECT_NE(error.find("\"sparse\""), std::string::npos) << error;
  cfg.traffic_backend = DemandBackend::kProcedural;
  EXPECT_TRUE(cfg.validate(&error)) << error;

  // The scenario that used to die in std::bad_alloc is rejected with the
  // message on load, and by the runner.
  cfg = ScenarioConfig{};
  EXPECT_FALSE(ScenarioConfig::from_json(
      R"({"design": "rotor", "nodes": 65536, "slots": 2})", &cfg, &error));
  EXPECT_NE(error.find("procedural"), std::string::npos) << error;
  cfg = ScenarioConfig{};
  cfg.design = "rotor";
  cfg.nodes = 65536;
  error.clear();
  EXPECT_EQ(ScenarioRunner::create(cfg, &error), nullptr);
  EXPECT_NE(error.find("procedural"), std::string::npos) << error;
}

TEST(ScenarioConfigTest, ValidateCapsTheControlLoopAtTheDemandCap) {
  // The control loop copies the observed demand into CSR estimates and
  // clusters from a dense N x N affinity on any backend, procedural
  // included: past 2^28 entries its first epoch or replan would abort.
  std::string error;
  ScenarioConfig cfg;
  cfg.traffic_backend = DemandBackend::kProcedural;
  cfg.nodes = 65536;
  cfg.cliques = 64;
  cfg.slots = 2;
  EXPECT_TRUE(cfg.validate(&error)) << error;  // no control loop
  cfg.epoch_slots = 1;
  EXPECT_FALSE(cfg.validate(&error));
  EXPECT_NE(error.find("epoch_slots"), std::string::npos) << error;
  EXPECT_NE(error.find("2^28"), std::string::npos) << error;
  cfg.nodes = 16384;  // N^2 = 2^28: at the cap
  EXPECT_TRUE(cfg.validate(&error)) << error;
  cfg.nodes = 16400;
  EXPECT_FALSE(cfg.validate(&error));
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

// A full disk fails the run naming the artifact, for every sink.
TEST(ScenarioConfigTest, RunFailsWhenAnArtifactCannotBeWritten) {
  if (!std::ifstream("/dev/full").good()) GTEST_SKIP() << "no /dev/full";
  for (std::string ScenarioConfig::*sink :
       {&ScenarioConfig::trace_path, &ScenarioConfig::metrics_json_path,
        &ScenarioConfig::timeseries_csv_path,
        &ScenarioConfig::profile_json_path}) {
    ScenarioConfig cfg;
    cfg.nodes = 16;
    cfg.cliques = 4;
    cfg.slots = 300;
    cfg.*sink = "/dev/full";
    std::string error;
    auto runner = ScenarioRunner::create(cfg, &error);
    ASSERT_NE(runner, nullptr) << error;
    EXPECT_FALSE(runner->run(&error));
    EXPECT_EQ(error, "cannot write /dev/full");
  }
}

}  // namespace
}  // namespace sorn
