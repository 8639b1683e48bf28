// Profiling must sit outside the simulation: attaching the profiler may
// not change a single byte of the sim artifacts (metrics JSON, trace
// JSONL, time-series CSV), even with scripted faults, retransmission,
// and a mid-run reconfigure in play. The profile.json itself is
// wall-clock data and is NOT compared — only its presence and shape are
// checked.
#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdio>
#include <string>

#include "scenario/scenario_runner.h"
#include "pins.h"

namespace sorn {
namespace {

using pins::pin_of;
using pins::slurp;

struct Artifacts {
  std::string metrics_json;
  std::string timeseries_csv;
  std::string trace_jsonl;
  std::string profile_json;
  std::uint64_t delivered = 0;
};

Artifacts run_scenario(bool profile) {
  // PID-unique path: ctest runs each TEST of this binary as its own
  // concurrent process, so a fixed name would be written by several
  // processes at once.
  const std::string trace_path = testing::TempDir() + "prof_det_" +
                                 std::to_string(::getpid()) +
                                 (profile ? "_p" : "_np") + ".jsonl";

  ScenarioConfig cfg;
  cfg.design = "sorn";
  cfg.nodes = 32;
  cfg.cliques = 8;
  cfg.locality_x = 0.6;
  cfg.propagation_ns = 0;
  cfg.load = 0.4;
  cfg.slots = 400;
  cfg.drain_slots = 2000;
  cfg.sample_every = 10;
  cfg.retransmit_timeout = 64;
  cfg.fault_script = "100 fail-node 3\n100 fail-node 17\n"
                     "220 heal-node 3\n220 heal-node 17\n";
  cfg.trace_path = trace_path;
  cfg.profile = profile;

  std::string error;
  auto runner = ScenarioRunner::create(cfg, &error);
  EXPECT_NE(runner, nullptr) << error;
  // Mid-run reconfigure from the slot hook (profiled under slot_hook):
  // exercises the schedule-advance + gauge paths across a schedule swap.
  const BuiltDesign& design = runner->design();
  runner->set_slot_hook([&design](SlottedNetwork& net, Slot slot) {
    if (slot == 150) net.reconfigure(design.schedule, design.router);
  });
  EXPECT_TRUE(runner->run(&error)) << error;

  Artifacts out;
  out.metrics_json = runner->metrics_json();
  out.timeseries_csv = runner->timeseries_csv();
  out.trace_jsonl = slurp(trace_path);
  out.profile_json = runner->profile_json();
  out.delivered = runner->metrics().delivered_cells();
  std::remove(trace_path.c_str());
  return out;
}

TEST(ProfileDeterminismTest, ArtifactsByteIdenticalWithProfilingOnOrOff) {
  const Artifacts off = run_scenario(false);
  const Artifacts on = run_scenario(true);
  ASSERT_GT(off.delivered, 0u);
  EXPECT_EQ(on.metrics_json, off.metrics_json);
  EXPECT_EQ(on.timeseries_csv, off.timeseries_csv);
  ASSERT_FALSE(off.trace_jsonl.empty());
  EXPECT_EQ(on.trace_jsonl, off.trace_jsonl);
  EXPECT_TRUE(off.profile_json.empty());
  EXPECT_FALSE(on.profile_json.empty());
}

TEST(ProfileDeterminismTest, ProfiledArtifactsMatchPinnedDigests) {
  // Captured from an earlier build (the scenario writes no time series).
  const Artifacts run = run_scenario(true);
  EXPECT_EQ(pin_of(run.metrics_json), "1774:01ed3144ce32c4b3");
  EXPECT_EQ(pin_of(run.trace_jsonl), "639:dfa70c182dda4487");
}

TEST(ProfileDeterminismTest, ProfileReportsEveryExercisedPhase) {
  const Artifacts prof = run_scenario(true);
  const std::string& json = prof.profile_json;
  EXPECT_NE(json.find("\"schema\":\"sorn-profile-v1\""), std::string::npos);
  // The scenario exercises faults, retransmission, the slot hook and both
  // passes of every slot; all must appear.
  for (const char* phase :
       {"schedule_advance", "lane_sweep", "merge_replay", "voq_settle",
        "retransmit", "fault_tick", "slot_hook"}) {
    EXPECT_NE(json.find(std::string("\"phase\":\"") + phase + "\""),
              std::string::npos)
        << phase;
  }
  // The pool block keeps its single-thread form.
  EXPECT_NE(json.find("\"threads\":1"), std::string::npos);
  EXPECT_NE(json.find("\"workers\":[]"), std::string::npos);
  // Gauges the network registers on attach.
  for (const char* gauge :
       {"voq_cells", "schedule_matchings", "flow_records",
        "retransmit_state", "metrics_distributions", "sweep_stage"}) {
    EXPECT_NE(json.find(std::string("\"name\":\"") + gauge + "\""),
              std::string::npos)
        << gauge;
  }
}

}  // namespace
}  // namespace sorn
