// Unit tests for the self-profiling layer: PhaseProfiler aggregation,
// ScopedPhase nesting, MemoryAccountant gauges/cadence, and the
// profile.json export shape.
#include <gtest/gtest.h>

#include <string>

#include "obs/prof/memory_accountant.h"
#include "obs/prof/phase_profiler.h"
#include "obs/prof/profile_export.h"
#include "obs/prof/profiler.h"

namespace sorn {
namespace {

TEST(PhaseProfilerTest, RecordAggregatesIntoSlotsAndTotals) {
  PhaseProfiler prof;
  // Slot 0: lane sweep runs twice (two lanes), settle once.
  prof.record(ProfPhase::kLaneSweep, 100);
  prof.record(ProfPhase::kLaneSweep, 50);
  prof.record(ProfPhase::kVoqSettle, 10);
  prof.end_slot();
  // Slot 1: lane sweep only.
  prof.record(ProfPhase::kLaneSweep, 200);
  prof.end_slot();

  EXPECT_EQ(prof.slots(), 2u);
  const auto& sweep = prof.stats(ProfPhase::kLaneSweep);
  EXPECT_EQ(sweep.calls, 3u);
  EXPECT_EQ(sweep.total_ns, 350u);
  EXPECT_EQ(sweep.active_slots, 2u);
  // Per-slot samples are the slot sums: {150, 200}.
  ASSERT_EQ(sweep.slot_ns.count(), 2u);
  EXPECT_DOUBLE_EQ(sweep.slot_ns.percentile(0.0), 150.0);
  EXPECT_DOUBLE_EQ(sweep.slot_ns.percentile(100.0), 200.0);

  const auto& settle = prof.stats(ProfPhase::kVoqSettle);
  EXPECT_EQ(settle.calls, 1u);
  EXPECT_EQ(settle.total_ns, 10u);
  // Only slots where the phase actually ran are sampled: no zero from
  // slot 1 diluting the distribution.
  EXPECT_EQ(settle.active_slots, 1u);
  EXPECT_EQ(settle.slot_ns.count(), 1u);
  EXPECT_DOUBLE_EQ(settle.slot_ns.percentile(50.0), 10.0);
}

TEST(PhaseProfilerTest, PhaseThatNeverRanStaysZero) {
  PhaseProfiler prof;
  prof.record(ProfPhase::kLaneSweep, 1);
  prof.end_slot();
  const auto& retx = prof.stats(ProfPhase::kRetransmit);
  EXPECT_EQ(retx.calls, 0u);
  EXPECT_EQ(retx.total_ns, 0u);
  EXPECT_EQ(retx.active_slots, 0u);
  EXPECT_EQ(retx.slot_ns.count(), 0u);
}

TEST(PhaseProfilerTest, PhaseNamesAreStableIdentifiers) {
  EXPECT_STREQ(prof_phase_name(ProfPhase::kScheduleAdvance),
               "schedule_advance");
  EXPECT_STREQ(prof_phase_name(ProfPhase::kLaneSweep), "lane_sweep");
  EXPECT_STREQ(prof_phase_name(ProfPhase::kTelemetryFlush),
               "telemetry_flush");
}

TEST(ScopedPhaseTest, NullProfilerIsANoOp) {
  // The detached configuration every caller gets by default.
  ScopedPhase scope(nullptr, ProfPhase::kLaneSweep);
}

TEST(ScopedPhaseTest, NestingCountsInclusively) {
  PhaseProfiler prof;
  {
    ScopedPhase outer(&prof, ProfPhase::kSlotHook);
    ScopedPhase inner(&prof, ProfPhase::kFaultTick);
    // Inner closes first, then outer: both record, outer spans inner.
  }
  prof.end_slot();
  const auto& outer = prof.stats(ProfPhase::kSlotHook);
  const auto& inner = prof.stats(ProfPhase::kFaultTick);
  EXPECT_EQ(outer.calls, 1u);
  EXPECT_EQ(inner.calls, 1u);
  EXPECT_GE(outer.total_ns, inner.total_ns);
}

TEST(MemoryAccountantTest, ProvidersTrackValueAndPeak) {
  MemoryAccountant mem;
  std::uint64_t voq = 100;
  mem.register_provider("voq_cells", [&voq] { return voq; });
  mem.sample();
  voq = 500;
  mem.sample();
  voq = 200;
  mem.sample();

  const auto gauges = mem.snapshot();
  ASSERT_EQ(gauges.size(), 1u);
  EXPECT_EQ(gauges[0].name, "voq_cells");
  EXPECT_EQ(gauges[0].bytes, 200u);       // last sample
  EXPECT_EQ(gauges[0].peak_bytes, 500u);  // high-water mark
  EXPECT_EQ(mem.samples(), 3u);
  EXPECT_GT(mem.peak_rss_bytes(), 0u);  // process RSS is never zero
}

TEST(MemoryAccountantTest, SetBytesGaugeAndSortedSnapshot) {
  MemoryAccountant mem;
  mem.set_bytes("zeta", 10);
  mem.set_bytes("alpha", 20);
  mem.set_bytes("zeta", 5);  // drops the value, keeps the peak
  const auto gauges = mem.snapshot();
  ASSERT_EQ(gauges.size(), 2u);
  EXPECT_EQ(gauges[0].name, "alpha");
  EXPECT_EQ(gauges[1].name, "zeta");
  EXPECT_EQ(gauges[1].bytes, 5u);
  EXPECT_EQ(gauges[1].peak_bytes, 10u);
}

TEST(MemoryAccountantTest, RegisterReplacesProviderOfSameName) {
  MemoryAccountant mem;
  mem.register_provider("g", [] { return std::uint64_t{1}; });
  mem.register_provider("g", [] { return std::uint64_t{7}; });
  mem.sample();
  const auto gauges = mem.snapshot();
  ASSERT_EQ(gauges.size(), 1u);
  EXPECT_EQ(gauges[0].bytes, 7u);
}

TEST(MemoryAccountantTest, TickSamplesOnTheCadence) {
  MemoryAccountant mem;
  mem.set_sample_every(4);
  mem.register_provider("g", [] { return std::uint64_t{1}; });
  for (Slot s = 0; s < 10; ++s) mem.tick(s);
  EXPECT_EQ(mem.samples(), 3u);  // slots 0, 4, 8
}

TEST(ProfileExportTest, JsonCarriesSchemaPhasesPoolAndGauges) {
  Profiler prof;
  prof.phases().record(ProfPhase::kLaneSweep, 1000);
  prof.phases().end_slot();
  prof.memory().set_bytes("schedule_matchings", 4096);
  prof.memory().sample();

  const std::string json = profile_to_json(prof);
  EXPECT_NE(json.find("\"schema\":\"sorn-profile-v1\""), std::string::npos);
  EXPECT_NE(json.find("\"phase\":\"lane_sweep\""), std::string::npos);
  EXPECT_NE(json.find("\"phase\":\"telemetry_flush\""), std::string::npos);
  EXPECT_NE(json.find("\"schedule_matchings\""), std::string::npos);
  EXPECT_NE(json.find("\"peak_rss_bytes\""), std::string::npos);
  EXPECT_NE(json.find("\"pool\":{"), std::string::npos);
}

TEST(ProfileExportTest, SingleThreadedProfileHasEmptyPoolBlock) {
  Profiler prof;
  prof.phases().end_slot();
  const std::string json = profile_to_json(prof);
  // One thread and no workers: every slot runs on the calling thread.
  EXPECT_NE(json.find("\"pool\":{\"threads\":1,\"batches\":0,\"shards\":0,"
                      "\"owner_wait_ns\":0,\"window_ns\":0,\"workers\":[]}"),
            std::string::npos)
      << json;
}

}  // namespace
}  // namespace sorn
