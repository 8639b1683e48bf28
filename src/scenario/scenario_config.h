// ScenarioConfig: one declarative description of a full experiment —
// fabric design, scale, traffic, workload, telemetry sinks, faults and
// retransmission — serializable to/from JSON so a scenario is a
// reproducible artifact (`sorn_tool simulate --scenario file.json`).
//
// Determinism contract: two runs of the same config (same seeds) produce
// byte-identical metrics/trace/CSV artifacts; the scenario tests pin
// those bytes, and CI byte-diffs artifacts across traffic backends and
// with profiling on or off.
//
// The reader still accepts "threads", a key older files carry: it must
// be an integer >= 0 and sets nothing, since the engine runs every slot
// on one thread. to_json does not write it.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "topo/clique.h"
#include "topo/schedule_builder.h"
#include "traffic/demand_model.h"
#include "util/time.h"
#include "util/types.h"

namespace sorn {

class FaultScript;
class JsonValue;

// How the runner drives traffic.
enum class WorkloadKind {
  // Open-loop Poisson flow arrivals at `load`, run to `slots`, then drain.
  kFlows,
  // Closed-loop single-cell backlog (SaturationSource): warmup, then
  // measure `measure_slots`; ScenarioRunner::saturation_r() reports r.
  kSaturation,
  // Closed-loop flow-granular backlog (FlowSaturationSource).
  kFlowSaturation,
  // Synchronized incast waves: every incast_period_slots a fresh receiver
  // gets incast_fanin simultaneous flows of incast_bytes each.
  kIncast,
  // Allreduce phases (ring or binary tree per collective_kind), barrier-
  // separated by collective_phase_gap_slots, sized off the demand model.
  kCollective,
  // Rack-local/inter-rack Poisson mix with the inter-rack share
  // multiplied by oversub_factor (racks = the scenario's cliques).
  kOversubRack,
};

// True for the workloads the flow driver runs (arrivals + FCTs + drain):
// these all support faults, the control loop, retransmission and the
// closed-loop transport; the saturation workloads do not.
bool workload_uses_flow_driver(WorkloadKind k);

// Traffic matrix family (patterns.h) the scenario draws demand from.
enum class TrafficKind {
  kLocality,   // patterns::locality_mix(cliques, locality_x)
  kUniform,    // patterns::uniform(nodes)
  kRing,       // patterns::clique_ring(cliques, locality_x, ring_heavy_share)
  kHierLocality,  // patterns::hier_locality_mix(hierarchy, x1, x2)
};

// Flow size population for flow-granular workloads.
enum class FlowSizeKind {
  kPfabricWebSearch,
  kPfabricDataMining,
  kFixed,  // every flow is fixed_flow_bytes
};

// How flows are labeled for split FCT percentiles.
enum class ClassifyKind {
  kNone,    // every flow is class 0
  kClique,  // class 0 = intra-clique, class 1 = inter-clique
  kSize,    // class 0 = bytes <= bulk_cutoff_bytes, class 1 = larger
};

struct ScenarioConfig {
  // ---- fabric design ----
  // A name registered in DesignRegistry: "sorn", "hier", "rotor",
  // "opera", "orn-hd", "orn-mixed", "vlb".
  std::string design = "sorn";
  NodeId nodes = 64;
  CliqueId cliques = 8;
  double locality_x = 0.56;
  // Explicit oversubscription ratio; {0, 1} derives q*(x), rationalized
  // with a denominator of at most max_q_denominator (sorn design only).
  std::int64_t q_num = 0;
  std::int64_t q_den = 1;
  std::int64_t max_q_denominator = 6;
  bool lb_first_available = false;  // LbMode for sorn/vlb/rotor designs
  // Weighted-inter SORN: apportion inter slots to this cliques x cliques
  // aggregate (empty = uniform round robin).
  std::vector<double> inter_clique_weights;
  double weighted_alpha = 0.7;

  // hier design.
  CliqueId clusters = 4;
  CliqueId pods_per_cluster = 4;
  double pod_locality_x1 = 0.5;
  double cluster_locality_x2 = 0.3;

  // rotor / opera designs.
  Slot dwell_slots = 900;
  std::uint64_t schedule_seed = 17;  // opera's random 1-factorization
  int max_short_hops = 6;            // opera expander hop budget
  // Flows larger than this ride the direct rotation circuit (opera's
  // short/bulk split); 0 = no split, everything on the primary router.
  std::uint64_t bulk_cutoff_bytes = 0;

  // orn-hd / orn-mixed designs.
  int orn_dims = 2;
  std::vector<NodeId> radices;  // orn-mixed; empty = factor automatically

  // ---- fabric parameters ----
  int lanes = 1;
  std::int64_t slot_ns = 100;
  std::int64_t propagation_ns = 0;
  std::uint64_t cell_bytes = 256;
  std::uint64_t max_queue_cells = 0;  // 0 = unbounded
  std::uint64_t seed = 42;            // network RNG (routing spray)

  // ---- traffic ----
  TrafficKind traffic = TrafficKind::kLocality;
  double ring_heavy_share = 0.85;
  // Storage backend for the generated demand (traffic/demand_model.h):
  // "dense" (N^2 array, the historical default), "sparse" (CSR) or
  // "procedural" (closed form; falls back to sparse when the clique
  // layout is not contiguous equal blocks). All three produce
  // byte-identical artifacts; only memory/speed differ.
  DemandBackend traffic_backend = DemandBackend::kDense;
  // The most (src, dst) demand entries a backend may materialize: dense
  // stores nodes^2, sparse up to nodes x (nodes - 1), procedural none.
  // 2^28 is N = 16384 dense, 2 GiB of doubles; validate() rejects a
  // scenario past it instead of letting the allocation abort.
  static constexpr std::uint64_t kMaxDemandEntries = std::uint64_t{1} << 28;

  // ---- workload ----
  WorkloadKind workload = WorkloadKind::kFlows;
  double load = 0.3;          // flows: fraction of node bandwidth
  Slot slots = 30000;         // flows: arrival horizon in slots
  Slot drain_slots = 200000;  // flows: post-horizon drain budget
  Slot warmup_slots = 4000;   // saturation: slots before reset_metrics
  Slot measure_slots = 8000;  // saturation: measured slots
  FlowSizeKind flow_size = FlowSizeKind::kPfabricWebSearch;
  std::uint64_t fixed_flow_bytes = 2560;
  std::uint64_t flow_size_cap = 0;  // truncate sizes; 0 = no cap
  ClassifyKind classify = ClassifyKind::kNone;
  std::uint64_t arrival_seed = 1;   // flows: FlowArrivals RNG
  std::uint64_t workload_seed = 7;  // saturation: SaturationConfig::seed

  // ---- incast workload ----
  NodeId incast_fanin = 32;                 // senders per wave
  std::uint64_t incast_bytes = 16384;       // bytes per sender per wave
  Slot incast_period_slots = 512;           // wave spacing

  // ---- collective workload ----
  std::string collective_kind = "ring";     // "ring" | "tree"
  std::uint64_t collective_bytes = 262144;  // per-node gradient bytes
  Slot collective_phase_gap_slots = 256;    // barrier between phases

  // ---- oversub-rack workload ----
  double rack_local_frac = 0.6;   // share of demand staying in-rack
  double oversub_factor = 4.0;    // multiplier on the inter-rack share

  // ---- closed-loop transport ----
  // "open-loop" injects each flow's cells at arrival (the historical
  // behavior); "dctcp" attaches the windowed transport (src/transport)
  // with ECN marking at ecn_threshold_cells. Transport knobs only apply
  // to flow-driver workloads.
  std::string transport = "open-loop";
  std::uint64_t ecn_threshold_cells = 0;  // 0 = no marking
  std::uint64_t init_cwnd_cells = 8;
  std::uint64_t max_cwnd_cells = 256;
  double dctcp_gain = 0.0625;

  // ---- telemetry sinks ----
  std::string trace_path;
  std::string metrics_json_path;
  std::string timeseries_csv_path;
  Slot sample_every = 1;

  // ---- profiling (obs/prof) ----
  // Attach the profiler: slot-phase timers and memory gauges. Implied by a non-empty profile_json_path. Sim artifacts stay
  // byte-identical with profiling on or off; profile.json itself is wall
  // clock and outside the determinism contract.
  bool profile = false;
  std::string profile_json_path;

  // ---- faults ----
  std::string fault_script;       // inline script text (trumps the path)
  std::string fault_script_path;  // file with FaultScript grammar
  double node_mtbf_slots = 0.0;
  double node_mttr_slots = 0.0;
  double circuit_mtbf_slots = 0.0;
  double circuit_mttr_slots = 0.0;
  std::uint64_t fault_seed = 1;

  // ---- closed-loop control plane (sorn design only) ----
  // Epoch length in slots; 0 disables the control loop. When > 0 the
  // runner feeds the scenario's demand matrix to ControlPlane::on_epoch
  // every epoch (perfect telemetry — degrade it with the estimate_*
  // knobs below) and ticks the reconfiguration manager every slot.
  Slot epoch_slots = 0;
  // Replan-staging delay of the reconfiguration manager (state push).
  Slot update_delay_slots = 0;

  // ---- control-plane faults (require epoch_slots > 0) ----
  // Scenario-scripted controller outage windows: flattened [start, end)
  // pairs, e.g. [1000, 3000, 8000, 9000] = two outages.
  std::vector<Slot> control_outages;
  // Stochastic controller outage model (ControlFaultOptions).
  double controller_mtbf_slots = 0.0;
  double controller_mttr_slots = 0.0;
  std::uint64_t control_fault_seed = 1;
  // Extra slots between a replan and its application (on top of
  // update_delay_slots).
  Slot replan_apply_delay = 0;
  // Degraded telemetry: observations lag this many epochs / carry this
  // much seeded multiplicative noise (amplitude in [0, 1]).
  std::int64_t estimate_stale_epochs = 0;
  double estimate_noise = 0.0;
  // Data-plane policy while the controller is down: "hold" keeps the last
  // committed schedule, "vlb" swaps to the pure-oblivious round-robin +
  // VLB floor until recovery.
  std::string safe_mode = "hold";

  // ---- invariant checking ----
  // Attach the per-slot invariant checker (sim/invariants.h): cell
  // conservation, no forwarding through failed elements, delivery
  // dedup sanity. run() fails listing the violations if any fire.
  // Zero-overhead when false.
  bool check_invariants = false;

  // ---- end-host retransmission ----
  Slot retransmit_timeout = 0;  // 0 disables
  std::uint32_t retransmit_max_attempts = 8;
  // Seeded jitter amplitude on the exponential backoff (fraction of the
  // deterministic wait, in [0, 1]; 0 = exact legacy timeline).
  double retransmit_jitter = 0.0;

  // ---- programmatic overrides (never serialized) ----
  // Borrowed pointers for callers that already hold richer objects than
  // the config can describe (a control-plane clique assignment, a
  // measured demand model, a generated fault script). All optional;
  // must outlive the runner.
  struct Overrides {
    const CliqueAssignment* cliques = nullptr;
    const DemandModel* traffic = nullptr;
    const FaultScript* fault_script = nullptr;
  };
  Overrides overrides;

  // ---- JSON round trip ----
  // Every serializable field, in a fixed order, with enum fields as
  // strings; byte-deterministic (obs/json.h writer).
  std::string to_json() const;
  // Parse a JSON object on top of *out. Each of these is an error naming
  // the key (a typo must not silently fall back to a default, nor a bad
  // value run a different experiment): an unknown key, a key given twice,
  // a wrong JSON type, an unknown enum name, a value outside the member's
  // type range (a negative count, "nodes" beyond int32, a seed beyond
  // uint64). Fields absent from the document keep their values in *out:
  // a default-constructed *out reads a whole scenario, and an experiment
  // point reads its changes over the base scenario. On failure returns
  // false and sets *error; *out is untouched.
  static bool from_json(std::string_view text, ScenarioConfig* out,
                        std::string* error);
  // Same, for a document already parsed.
  static bool from_json(const JsonValue& doc, ScenarioConfig* out,
                        std::string* error);
  // Same, reading the file at `path`.
  static bool load_file(const std::string& path, ScenarioConfig* out,
                        std::string* error);

  // ---- command-line flags (sorn_tool simulate) ----
  // Some fields also have a flag, e.g. "--nodes" for "nodes". Apply the
  // flags given on the command line on top of this config.
  // `given(flag, takes_value)` returns the flag's text when it is on the
  // command line (any text for a presence flag) and nullopt otherwise.
  // The text is read exactly like the field's JSON value: a string or
  // enum field takes it verbatim, a list field takes comma-separated JSON
  // items, and a bool field's flag is a presence flag that sets it true.
  // On a bad value returns false, sets *error naming the flag, and leaves
  // *this untouched.
  using FlagLookup = std::function<std::optional<std::string>(
      const char* flag, bool takes_value)>;
  bool apply_flags(const FlagLookup& given, std::string* error);

  // Basic cross-field validation shared by every entry point (positive
  // counts, mtbf/mttr pairing, known design name not checked here — the
  // registry owns that). Returns false and sets *error on problems.
  bool validate(std::string* error) const;

  // The q the sorn design builds: q_num/q_den when q_num > 0, else
  // optimal_q(locality_x, max_q_denominator).
  Rational sorn_q() const;
};

}  // namespace sorn
