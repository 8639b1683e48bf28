#include "obs/prof/profile_export.h"

#include "obs/export.h"
#include "obs/json.h"
#include "obs/prof/profiler.h"

namespace sorn {

std::string profile_to_json(const Profiler& profiler) {
  JsonWriter w;
  w.begin_object();
  w.field("schema", "sorn-profile-v1");

  const PhaseProfiler& phases = profiler.phases();
  w.field("slots", phases.slots());
  w.key("phases").begin_array();
  for (int i = 0; i < kProfPhaseCount; ++i) {
    const auto phase = static_cast<ProfPhase>(i);
    const PhaseProfiler::PhaseStats& s = phases.stats(phase);
    w.begin_object();
    w.field("phase", prof_phase_name(phase));
    w.field("calls", s.calls);
    w.field("total_ns", s.total_ns);
    w.field("active_slots", s.active_slots);
    w.key("slot_ns");
    json_percentiles(w, s.slot_ns);
    w.end_object();
  }
  w.end_array();

  // The engine runs every slot on the calling thread, so the pool block
  // is fixed: one thread, no dispatches, no workers. Its keys stay so the
  // profile's schema does not change.
  w.key("pool").begin_object();
  w.field("threads", std::int64_t{1});
  w.field("batches", std::uint64_t{0});
  w.field("shards", std::uint64_t{0});
  w.field("owner_wait_ns", std::uint64_t{0});
  w.field("window_ns", std::uint64_t{0});
  w.key("workers").begin_array().end_array();
  w.end_object();

  const MemoryAccountant& memory = profiler.memory();
  w.key("memory").begin_object();
  w.field("samples", memory.samples());
  w.field("peak_rss_bytes", memory.peak_rss_bytes());
  w.key("gauges").begin_array();
  for (const MemoryAccountant::Gauge& g : memory.snapshot()) {
    w.begin_object();
    w.field("name", g.name);
    w.field("bytes", g.bytes);
    w.field("peak_bytes", g.peak_bytes);
    w.end_object();
  }
  w.end_array();
  w.end_object();

  w.end_object();
  return w.take();
}

}  // namespace sorn
