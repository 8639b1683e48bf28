// Structured event tracing (JSONL).
//
// The tracer turns simulator and control-plane events into one-line JSON
// records pushed through a TraceSink. Every record carries {"ev": <type>,
// "slot": <slot>} plus event-specific fields; the full schema is
// documented in README.md ("Telemetry & tracing").
//
// Cost model: every event method first checks enabled(); with no sink
// attached that is a single well-predicted branch and no formatting work,
// so tracing can stay compiled into hot paths (verified by
// bench_obs_overhead).
#pragma once

#include <cstdint>
#include <cstdio>
#include <string>
#include <string_view>
#include <vector>

#include "util/time.h"
#include "util/types.h"

namespace sorn {

// Receives one complete JSON object per event, without trailing newline;
// the sink chooses framing (FileTraceSink appends '\n' for JSONL).
class TraceSink {
 public:
  virtual ~TraceSink() = default;
  virtual void write(std::string_view record) = 0;
};

// Swallows everything. Attach to exercise the formatting path without IO
// (benchmarks), or as an explicit "tracing off" sink.
class NullTraceSink final : public TraceSink {
 public:
  void write(std::string_view) override {}
};

// Buffers records in memory; used by tests to assert on the schema.
class MemoryTraceSink final : public TraceSink {
 public:
  void write(std::string_view record) override {
    lines_.emplace_back(record);
  }
  const std::vector<std::string>& lines() const { return lines_; }
  void clear() { lines_.clear(); }

 private:
  std::vector<std::string> lines_;
};

// Appends one line per record to a file (JSONL).
class FileTraceSink final : public TraceSink {
 public:
  explicit FileTraceSink(const std::string& path);
  ~FileTraceSink() override;
  FileTraceSink(const FileTraceSink&) = delete;
  FileTraceSink& operator=(const FileTraceSink&) = delete;

  bool ok() const { return f_ != nullptr; }
  void write(std::string_view record) override;
  // Flush and close the file. False when it never opened or any write,
  // the flush or the close failed; later writes are dropped.
  bool close();

 private:
  std::FILE* f_ = nullptr;
};

class Tracer {
 public:
  Tracer() = default;
  explicit Tracer(TraceSink* sink) : sink_(sink) {}

  // The sink is borrowed and must outlive the tracer (or be detached).
  void set_sink(TraceSink* sink) { sink_ = sink; }
  bool enabled() const { return sink_ != nullptr; }

  // ---- Simulator events ----
  void flow_inject(Slot slot, std::uint64_t flow, NodeId src, NodeId dst,
                   std::uint64_t bytes, int flow_class);
  void flow_complete(Slot slot, std::uint64_t flow, Picoseconds fct_ps,
                     int flow_class);
  void cell_drop(Slot slot, NodeId at, NodeId next_hop, std::uint64_t flow);
  // A schedule/router swap became visible to the data plane.
  void reconfigure(Slot slot);
  void node_fail(Slot slot, NodeId node);
  void node_heal(Slot slot, NodeId node);
  void circuit_fail(Slot slot, NodeId src, NodeId dst);
  void circuit_heal(Slot slot, NodeId src, NodeId dst);
  // Gray failures: a circuit degraded to per-cell loss `loss_p` and/or
  // slot-capacity `capacity`, a cell lost on such a circuit, and the
  // circuit restored to healthy.
  void circuit_degrade(Slot slot, NodeId src, NodeId dst, double loss_p,
                       double capacity);
  void circuit_restore(Slot slot, NodeId src, NodeId dst);
  void gray_drop(Slot slot, NodeId at, NodeId next_hop, std::uint64_t flow);
  // The stall detector re-admitted `cells` undelivered cells of `flow`
  // (backoff round `attempt`, 1-based).
  void retransmit(Slot slot, std::uint64_t flow, std::uint64_t cells,
                  std::uint32_t attempt);

  // ---- Control-plane events ----
  // A re-plan decision. reason is one of "first_observation", "threshold"
  // (macro_change exceeded the replan threshold) or
  // "locality_degradation" (estimate's locality under the current plan
  // fell below what the plan assumed).
  void replan(Slot slot, std::string_view reason, double macro_change,
              double locality_estimate, double planned_locality, int cliques,
              double q, std::uint64_t replans);
  // A swap was materialized and scheduled for `due` (ReconfigManager).
  void reconfig_staged(Slot slot, Slot due, int cliques, double q,
                       bool weighted);
  // The staged swap was applied to the network.
  void reconfig_applied(Slot slot, std::uint64_t swaps_applied);
  // Controller availability transitions (control/control_faults.h).
  void controller_down(Slot slot);
  void controller_up(Slot slot);
  // Safe-mode transitions (control/safe_mode.h): the data plane fell back
  // to `policy` ("hold" or "vlb") during a controller outage, and later
  // returned to the pre-outage configuration.
  void safe_mode_enter(Slot slot, std::string_view policy);
  void safe_mode_exit(Slot slot);

 private:
  TraceSink* sink_ = nullptr;
};

}  // namespace sorn
