#include "scenario/scenario_config.h"

#include <cstdio>

#include "obs/json.h"
#include "obs/json_parse.h"

namespace sorn {

namespace {

struct EnumEntry {
  const char* name;
  int value;
};

constexpr EnumEntry kWorkloads[] = {
    {"flows", static_cast<int>(WorkloadKind::kFlows)},
    {"saturation", static_cast<int>(WorkloadKind::kSaturation)},
    {"flow-saturation", static_cast<int>(WorkloadKind::kFlowSaturation)},
    {"incast", static_cast<int>(WorkloadKind::kIncast)},
    {"collective", static_cast<int>(WorkloadKind::kCollective)},
    {"oversub-rack", static_cast<int>(WorkloadKind::kOversubRack)},
};
constexpr EnumEntry kTraffics[] = {
    {"locality", static_cast<int>(TrafficKind::kLocality)},
    {"uniform", static_cast<int>(TrafficKind::kUniform)},
    {"ring", static_cast<int>(TrafficKind::kRing)},
    {"hier-locality", static_cast<int>(TrafficKind::kHierLocality)},
};
constexpr EnumEntry kFlowSizes[] = {
    {"pfabric-web-search", static_cast<int>(FlowSizeKind::kPfabricWebSearch)},
    {"pfabric-data-mining",
     static_cast<int>(FlowSizeKind::kPfabricDataMining)},
    {"fixed", static_cast<int>(FlowSizeKind::kFixed)},
};
constexpr EnumEntry kClassifies[] = {
    {"none", static_cast<int>(ClassifyKind::kNone)},
    {"clique", static_cast<int>(ClassifyKind::kClique)},
    {"size", static_cast<int>(ClassifyKind::kSize)},
};

template <std::size_t N>
const char* enum_name(const EnumEntry (&table)[N], int value) {
  for (const EnumEntry& e : table)
    if (e.value == value) return e.name;
  return "?";
}

template <std::size_t N>
bool enum_parse(const EnumEntry (&table)[N], std::string_view name,
                int* out) {
  for (const EnumEntry& e : table) {
    if (name == e.name) {
      *out = e.value;
      return true;
    }
  }
  return false;
}

}  // namespace

const char* workload_kind_name(WorkloadKind k) {
  return enum_name(kWorkloads, static_cast<int>(k));
}

bool workload_uses_flow_driver(WorkloadKind k) {
  return k == WorkloadKind::kFlows || k == WorkloadKind::kIncast ||
         k == WorkloadKind::kCollective || k == WorkloadKind::kOversubRack;
}
const char* traffic_kind_name(TrafficKind k) {
  return enum_name(kTraffics, static_cast<int>(k));
}
const char* flow_size_kind_name(FlowSizeKind k) {
  return enum_name(kFlowSizes, static_cast<int>(k));
}
const char* classify_kind_name(ClassifyKind k) {
  return enum_name(kClassifies, static_cast<int>(k));
}

bool parse_workload_kind(std::string_view name, WorkloadKind* out) {
  int v = 0;
  if (!enum_parse(kWorkloads, name, &v)) return false;
  *out = static_cast<WorkloadKind>(v);
  return true;
}
bool parse_traffic_kind(std::string_view name, TrafficKind* out) {
  int v = 0;
  if (!enum_parse(kTraffics, name, &v)) return false;
  *out = static_cast<TrafficKind>(v);
  return true;
}
bool parse_flow_size_kind(std::string_view name, FlowSizeKind* out) {
  int v = 0;
  if (!enum_parse(kFlowSizes, name, &v)) return false;
  *out = static_cast<FlowSizeKind>(v);
  return true;
}
bool parse_classify_kind(std::string_view name, ClassifyKind* out) {
  int v = 0;
  if (!enum_parse(kClassifies, name, &v)) return false;
  *out = static_cast<ClassifyKind>(v);
  return true;
}

std::string ScenarioConfig::to_json() const {
  JsonWriter w;
  w.begin_object();
  w.field("design", design);
  w.field("nodes", static_cast<std::int64_t>(nodes));
  w.field("cliques", static_cast<std::int64_t>(cliques));
  w.field("locality", locality_x);
  w.field("q_num", q_num);
  w.field("q_den", q_den);
  w.field("max_q_denominator", max_q_denominator);
  w.field("lb_first_available", lb_first_available);
  w.key("inter_clique_weights").begin_array();
  for (const double v : inter_clique_weights) w.value(v);
  w.end_array();
  w.field("weighted_alpha", weighted_alpha);
  w.field("clusters", static_cast<std::int64_t>(clusters));
  w.field("pods_per_cluster", static_cast<std::int64_t>(pods_per_cluster));
  w.field("pod_locality_x1", pod_locality_x1);
  w.field("cluster_locality_x2", cluster_locality_x2);
  w.field("dwell_slots", static_cast<std::int64_t>(dwell_slots));
  w.field("schedule_seed", schedule_seed);
  w.field("max_short_hops", static_cast<std::int64_t>(max_short_hops));
  w.field("bulk_cutoff_bytes", bulk_cutoff_bytes);
  w.field("orn_dims", static_cast<std::int64_t>(orn_dims));
  w.key("radices").begin_array();
  for (const NodeId r : radices) w.value(static_cast<std::int64_t>(r));
  w.end_array();
  w.field("lanes", static_cast<std::int64_t>(lanes));
  w.field("slot_ns", slot_ns);
  w.field("propagation_ns", propagation_ns);
  w.field("cell_bytes", cell_bytes);
  w.field("max_queue_cells", max_queue_cells);
  w.field("seed", seed);
  w.field("threads", static_cast<std::int64_t>(threads));
  w.field("traffic", traffic_kind_name(traffic));
  w.field("ring_heavy_share", ring_heavy_share);
  w.field("traffic_backend", demand_backend_name(traffic_backend));
  w.field("workload", workload_kind_name(workload));
  w.field("load", load);
  w.field("slots", static_cast<std::int64_t>(slots));
  w.field("drain_slots", static_cast<std::int64_t>(drain_slots));
  w.field("warmup_slots", static_cast<std::int64_t>(warmup_slots));
  w.field("measure_slots", static_cast<std::int64_t>(measure_slots));
  w.field("flow_size", flow_size_kind_name(flow_size));
  w.field("fixed_flow_bytes", fixed_flow_bytes);
  w.field("flow_size_cap", flow_size_cap);
  w.field("classify", classify_kind_name(classify));
  w.field("arrival_seed", arrival_seed);
  w.field("workload_seed", workload_seed);
  w.field("incast_fanin", static_cast<std::int64_t>(incast_fanin));
  w.field("incast_bytes", incast_bytes);
  w.field("incast_period_slots",
          static_cast<std::int64_t>(incast_period_slots));
  w.field("collective_kind", collective_kind);
  w.field("collective_bytes", collective_bytes);
  w.field("collective_phase_gap_slots",
          static_cast<std::int64_t>(collective_phase_gap_slots));
  w.field("rack_local_frac", rack_local_frac);
  w.field("oversub_factor", oversub_factor);
  w.field("transport", transport);
  w.field("ecn_threshold_cells", ecn_threshold_cells);
  w.field("init_cwnd_cells", init_cwnd_cells);
  w.field("max_cwnd_cells", max_cwnd_cells);
  w.field("dctcp_gain", dctcp_gain);
  w.field("trace", trace_path);
  w.field("metrics_json", metrics_json_path);
  w.field("timeseries_csv", timeseries_csv_path);
  w.field("sample_every", static_cast<std::int64_t>(sample_every));
  w.field("profile", profile);
  w.field("profile_json", profile_json_path);
  w.field("fault_script", fault_script);
  w.field("fault_script_path", fault_script_path);
  w.field("mtbf", node_mtbf_slots);
  w.field("mttr", node_mttr_slots);
  w.field("circuit_mtbf", circuit_mtbf_slots);
  w.field("circuit_mttr", circuit_mttr_slots);
  w.field("fault_seed", fault_seed);
  w.field("epoch_slots", static_cast<std::int64_t>(epoch_slots));
  w.field("update_delay_slots", static_cast<std::int64_t>(update_delay_slots));
  w.key("control_outages").begin_array();
  for (const Slot s : control_outages) w.value(static_cast<std::int64_t>(s));
  w.end_array();
  w.field("controller_mtbf", controller_mtbf_slots);
  w.field("controller_mttr", controller_mttr_slots);
  w.field("control_fault_seed", control_fault_seed);
  w.field("replan_apply_delay",
          static_cast<std::int64_t>(replan_apply_delay));
  w.field("estimate_stale_epochs", estimate_stale_epochs);
  w.field("estimate_noise", estimate_noise);
  w.field("safe_mode", safe_mode);
  w.field("check_invariants", check_invariants);
  w.field("retransmit_timeout", static_cast<std::int64_t>(retransmit_timeout));
  w.field("retransmit_max_attempts",
          static_cast<std::int64_t>(retransmit_max_attempts));
  w.field("retransmit_jitter", retransmit_jitter);
  w.end_object();
  std::string out = w.take();
  out += "\n";
  return out;
}

namespace {

// Field decoding helpers: each checks the JSON type and reports the key
// on mismatch.
bool want_int(const JsonValue& v, const std::string& key, std::int64_t* out,
              std::string* error) {
  if (!v.is_number() || !v.is_integer()) {
    *error = "field '" + key + "' must be an integer";
    return false;
  }
  *out = v.as_int();
  return true;
}

// Unsigned fields refuse negatives instead of wrapping them to ~2^64.
template <typename Unsigned>
bool want_uint(const JsonValue& v, const std::string& key, Unsigned* out,
               std::string* error) {
  std::int64_t i = 0;
  if (!want_int(v, key, &i, error)) return false;
  if (i < 0) {
    *error = "field '" + key + "' must be >= 0";
    return false;
  }
  *out = static_cast<Unsigned>(i);
  return true;
}

bool want_double(const JsonValue& v, const std::string& key, double* out,
                 std::string* error) {
  if (!v.is_number()) {
    *error = "field '" + key + "' must be a number";
    return false;
  }
  *out = v.as_double();
  return true;
}

bool want_string(const JsonValue& v, const std::string& key,
                 std::string* out, std::string* error) {
  if (!v.is_string()) {
    *error = "field '" + key + "' must be a string";
    return false;
  }
  *out = v.as_string();
  return true;
}

bool want_bool(const JsonValue& v, const std::string& key, bool* out,
               std::string* error) {
  if (!v.is_bool()) {
    *error = "field '" + key + "' must be true or false";
    return false;
  }
  *out = v.as_bool();
  return true;
}

}  // namespace

bool ScenarioConfig::from_json(std::string_view text, ScenarioConfig* out,
                               std::string* error) {
  JsonValue doc;
  if (!json_parse(text, &doc, error)) return false;
  if (!doc.is_object()) {
    *error = "scenario document must be a JSON object";
    return false;
  }

  ScenarioConfig cfg;  // defaults; *out untouched until full success
  for (const auto& [key, v] : doc.fields()) {
    std::int64_t i = 0;
    double d = 0.0;
    std::string s;
    if (key == "design") {
      if (!want_string(v, key, &cfg.design, error)) return false;
    } else if (key == "nodes") {
      if (!want_int(v, key, &i, error)) return false;
      cfg.nodes = static_cast<NodeId>(i);
    } else if (key == "cliques") {
      if (!want_int(v, key, &i, error)) return false;
      cfg.cliques = static_cast<CliqueId>(i);
    } else if (key == "locality") {
      if (!want_double(v, key, &cfg.locality_x, error)) return false;
    } else if (key == "q_num") {
      if (!want_int(v, key, &cfg.q_num, error)) return false;
    } else if (key == "q_den") {
      if (!want_int(v, key, &cfg.q_den, error)) return false;
    } else if (key == "max_q_denominator") {
      if (!want_int(v, key, &cfg.max_q_denominator, error)) return false;
    } else if (key == "lb_first_available") {
      if (!want_bool(v, key, &cfg.lb_first_available, error)) return false;
    } else if (key == "inter_clique_weights") {
      if (!v.is_array()) {
        *error = "field 'inter_clique_weights' must be an array";
        return false;
      }
      cfg.inter_clique_weights.clear();
      for (const JsonValue& item : v.items()) {
        if (!want_double(item, key, &d, error)) return false;
        cfg.inter_clique_weights.push_back(d);
      }
    } else if (key == "weighted_alpha") {
      if (!want_double(v, key, &cfg.weighted_alpha, error)) return false;
    } else if (key == "clusters") {
      if (!want_int(v, key, &i, error)) return false;
      cfg.clusters = static_cast<CliqueId>(i);
    } else if (key == "pods_per_cluster") {
      if (!want_int(v, key, &i, error)) return false;
      cfg.pods_per_cluster = static_cast<CliqueId>(i);
    } else if (key == "pod_locality_x1") {
      if (!want_double(v, key, &cfg.pod_locality_x1, error)) return false;
    } else if (key == "cluster_locality_x2") {
      if (!want_double(v, key, &cfg.cluster_locality_x2, error)) return false;
    } else if (key == "dwell_slots") {
      if (!want_int(v, key, &i, error)) return false;
      cfg.dwell_slots = i;
    } else if (key == "schedule_seed") {
      if (!want_uint(v, key, &cfg.schedule_seed, error)) return false;
    } else if (key == "max_short_hops") {
      if (!want_int(v, key, &i, error)) return false;
      cfg.max_short_hops = static_cast<int>(i);
    } else if (key == "bulk_cutoff_bytes") {
      if (!want_uint(v, key, &cfg.bulk_cutoff_bytes, error)) return false;
    } else if (key == "orn_dims") {
      if (!want_int(v, key, &i, error)) return false;
      cfg.orn_dims = static_cast<int>(i);
    } else if (key == "radices") {
      if (!v.is_array()) {
        *error = "field 'radices' must be an array";
        return false;
      }
      cfg.radices.clear();
      for (const JsonValue& item : v.items()) {
        if (!want_int(item, key, &i, error)) return false;
        cfg.radices.push_back(static_cast<NodeId>(i));
      }
    } else if (key == "lanes") {
      if (!want_int(v, key, &i, error)) return false;
      cfg.lanes = static_cast<int>(i);
    } else if (key == "slot_ns") {
      if (!want_int(v, key, &cfg.slot_ns, error)) return false;
    } else if (key == "propagation_ns") {
      if (!want_int(v, key, &cfg.propagation_ns, error)) return false;
    } else if (key == "cell_bytes") {
      if (!want_uint(v, key, &cfg.cell_bytes, error)) return false;
    } else if (key == "max_queue_cells") {
      if (!want_uint(v, key, &cfg.max_queue_cells, error)) return false;
    } else if (key == "seed") {
      if (!want_uint(v, key, &cfg.seed, error)) return false;
    } else if (key == "threads") {
      if (!want_int(v, key, &i, error)) return false;
      cfg.threads = static_cast<int>(i);
    } else if (key == "traffic") {
      if (!want_string(v, key, &s, error)) return false;
      if (!parse_traffic_kind(s, &cfg.traffic)) {
        *error = "unknown traffic pattern '" + s + "'";
        return false;
      }
    } else if (key == "ring_heavy_share") {
      if (!want_double(v, key, &cfg.ring_heavy_share, error)) return false;
    } else if (key == "traffic_backend") {
      if (!want_string(v, key, &s, error)) return false;
      if (!parse_demand_backend(s, &cfg.traffic_backend)) {
        *error = "unknown traffic backend '" + s + "'";
        return false;
      }
    } else if (key == "workload") {
      if (!want_string(v, key, &s, error)) return false;
      if (!parse_workload_kind(s, &cfg.workload)) {
        *error = "unknown workload kind '" + s + "'";
        return false;
      }
    } else if (key == "load") {
      if (!want_double(v, key, &cfg.load, error)) return false;
    } else if (key == "slots") {
      if (!want_int(v, key, &cfg.slots, error)) return false;
    } else if (key == "drain_slots") {
      if (!want_int(v, key, &cfg.drain_slots, error)) return false;
    } else if (key == "warmup_slots") {
      if (!want_int(v, key, &cfg.warmup_slots, error)) return false;
    } else if (key == "measure_slots") {
      if (!want_int(v, key, &cfg.measure_slots, error)) return false;
    } else if (key == "flow_size") {
      if (!want_string(v, key, &s, error)) return false;
      if (!parse_flow_size_kind(s, &cfg.flow_size)) {
        *error = "unknown flow size distribution '" + s + "'";
        return false;
      }
    } else if (key == "fixed_flow_bytes") {
      if (!want_uint(v, key, &cfg.fixed_flow_bytes, error)) return false;
    } else if (key == "flow_size_cap") {
      if (!want_uint(v, key, &cfg.flow_size_cap, error)) return false;
    } else if (key == "classify") {
      if (!want_string(v, key, &s, error)) return false;
      if (!parse_classify_kind(s, &cfg.classify)) {
        *error = "unknown classifier '" + s + "'";
        return false;
      }
    } else if (key == "arrival_seed") {
      if (!want_uint(v, key, &cfg.arrival_seed, error)) return false;
    } else if (key == "workload_seed") {
      if (!want_uint(v, key, &cfg.workload_seed, error)) return false;
    } else if (key == "incast_fanin") {
      if (!want_int(v, key, &i, error)) return false;
      cfg.incast_fanin = static_cast<NodeId>(i);
    } else if (key == "incast_bytes") {
      if (!want_uint(v, key, &cfg.incast_bytes, error)) return false;
    } else if (key == "incast_period_slots") {
      if (!want_int(v, key, &cfg.incast_period_slots, error)) return false;
    } else if (key == "collective_kind") {
      if (!want_string(v, key, &cfg.collective_kind, error)) return false;
    } else if (key == "collective_bytes") {
      if (!want_uint(v, key, &cfg.collective_bytes, error)) return false;
    } else if (key == "collective_phase_gap_slots") {
      if (!want_int(v, key, &cfg.collective_phase_gap_slots, error))
        return false;
    } else if (key == "rack_local_frac") {
      if (!want_double(v, key, &cfg.rack_local_frac, error)) return false;
    } else if (key == "oversub_factor") {
      if (!want_double(v, key, &cfg.oversub_factor, error)) return false;
    } else if (key == "transport") {
      if (!want_string(v, key, &cfg.transport, error)) return false;
    } else if (key == "ecn_threshold_cells") {
      if (!want_uint(v, key, &cfg.ecn_threshold_cells, error)) return false;
    } else if (key == "init_cwnd_cells") {
      if (!want_uint(v, key, &cfg.init_cwnd_cells, error)) return false;
    } else if (key == "max_cwnd_cells") {
      if (!want_uint(v, key, &cfg.max_cwnd_cells, error)) return false;
    } else if (key == "dctcp_gain") {
      if (!want_double(v, key, &cfg.dctcp_gain, error)) return false;
    } else if (key == "trace") {
      if (!want_string(v, key, &cfg.trace_path, error)) return false;
    } else if (key == "metrics_json") {
      if (!want_string(v, key, &cfg.metrics_json_path, error)) return false;
    } else if (key == "timeseries_csv") {
      if (!want_string(v, key, &cfg.timeseries_csv_path, error))
        return false;
    } else if (key == "sample_every") {
      if (!want_int(v, key, &cfg.sample_every, error)) return false;
    } else if (key == "profile") {
      if (!want_bool(v, key, &cfg.profile, error)) return false;
    } else if (key == "profile_json") {
      if (!want_string(v, key, &cfg.profile_json_path, error)) return false;
    } else if (key == "fault_script") {
      if (!want_string(v, key, &cfg.fault_script, error)) return false;
    } else if (key == "fault_script_path") {
      if (!want_string(v, key, &cfg.fault_script_path, error)) return false;
    } else if (key == "mtbf") {
      if (!want_double(v, key, &cfg.node_mtbf_slots, error)) return false;
    } else if (key == "mttr") {
      if (!want_double(v, key, &cfg.node_mttr_slots, error)) return false;
    } else if (key == "circuit_mtbf") {
      if (!want_double(v, key, &cfg.circuit_mtbf_slots, error)) return false;
    } else if (key == "circuit_mttr") {
      if (!want_double(v, key, &cfg.circuit_mttr_slots, error)) return false;
    } else if (key == "fault_seed") {
      if (!want_uint(v, key, &cfg.fault_seed, error)) return false;
    } else if (key == "epoch_slots") {
      if (!want_int(v, key, &cfg.epoch_slots, error)) return false;
    } else if (key == "update_delay_slots") {
      if (!want_int(v, key, &cfg.update_delay_slots, error)) return false;
    } else if (key == "control_outages") {
      if (!v.is_array()) {
        *error = "field 'control_outages' must be an array";
        return false;
      }
      cfg.control_outages.clear();
      for (const JsonValue& item : v.items()) {
        if (!want_int(item, key, &i, error)) return false;
        cfg.control_outages.push_back(i);
      }
    } else if (key == "controller_mtbf") {
      if (!want_double(v, key, &cfg.controller_mtbf_slots, error))
        return false;
    } else if (key == "controller_mttr") {
      if (!want_double(v, key, &cfg.controller_mttr_slots, error))
        return false;
    } else if (key == "control_fault_seed") {
      if (!want_uint(v, key, &cfg.control_fault_seed, error)) return false;
    } else if (key == "replan_apply_delay") {
      if (!want_int(v, key, &cfg.replan_apply_delay, error)) return false;
    } else if (key == "estimate_stale_epochs") {
      if (!want_int(v, key, &cfg.estimate_stale_epochs, error)) return false;
    } else if (key == "estimate_noise") {
      if (!want_double(v, key, &cfg.estimate_noise, error)) return false;
    } else if (key == "safe_mode") {
      if (!want_string(v, key, &cfg.safe_mode, error)) return false;
    } else if (key == "check_invariants") {
      if (!want_bool(v, key, &cfg.check_invariants, error)) return false;
    } else if (key == "retransmit_timeout") {
      if (!want_int(v, key, &cfg.retransmit_timeout, error)) return false;
    } else if (key == "retransmit_max_attempts") {
      if (!want_uint(v, key, &cfg.retransmit_max_attempts, error)) return false;
    } else if (key == "retransmit_jitter") {
      if (!want_double(v, key, &cfg.retransmit_jitter, error)) return false;
    } else {
      *error = "unknown scenario field '" + key + "'";
      return false;
    }
  }

  if (!cfg.validate(error)) return false;
  *out = std::move(cfg);
  return true;
}

bool ScenarioConfig::load_file(const std::string& path, ScenarioConfig* out,
                          std::string* error) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) {
    *error = "cannot open " + path;
    return false;
  }
  std::string text;
  char buf[4096];
  std::size_t got = 0;
  while ((got = std::fread(buf, 1, sizeof buf, f)) > 0) text.append(buf, got);
  std::fclose(f);
  if (!from_json(text, out, error)) {
    *error = path + ": " + *error;
    return false;
  }
  return true;
}

bool ScenarioConfig::validate(std::string* error) const {
  auto fail = [error](const char* msg) {
    if (error != nullptr) *error = msg;
    return false;
  };
  if (nodes < 2) return fail("nodes must be >= 2");
  if (cliques < 1) return fail("cliques must be >= 1");
  if (lanes < 1) return fail("lanes must be >= 1");
  if (threads < 0) return fail("threads must be >= 0");
  if (slot_ns <= 0) return fail("slot_ns must be positive");
  if (propagation_ns < 0) return fail("propagation_ns must be >= 0");
  if (cell_bytes < 1) return fail("cell_bytes must be >= 1");
  if (flow_size == FlowSizeKind::kFixed && fixed_flow_bytes < 1)
    return fail("fixed_flow_bytes must be >= 1");
  if (locality_x < 0.0 || locality_x > 1.0)
    return fail("locality must be in [0, 1]");
  if (q_num < 0 || q_den <= 0) return fail("q must be a nonnegative rational");
  if (load <= 0.0) return fail("load must be positive");
  if (slots < 1) return fail("slots must be >= 1");
  if (drain_slots < 0) return fail("drain_slots must be >= 0");
  if (warmup_slots < 0) return fail("warmup_slots must be >= 0");
  if (measure_slots < 1) return fail("measure_slots must be >= 1");
  if (sample_every < 1) return fail("sample_every must be >= 1");
  if (retransmit_timeout < 0) return fail("retransmit_timeout must be >= 0");
  if ((node_mtbf_slots > 0.0 && node_mttr_slots <= 0.0) ||
      (circuit_mtbf_slots > 0.0 && circuit_mttr_slots <= 0.0))
    return fail("an MTBF needs a matching positive MTTR");
  if (!fault_script.empty() && !fault_script_path.empty())
    return fail("give fault_script or fault_script_path, not both");
  if (epoch_slots < 0) return fail("epoch_slots must be >= 0");
  if (update_delay_slots < 0) return fail("update_delay_slots must be >= 0");
  if (control_outages.size() % 2 != 0)
    return fail("control_outages must be flattened [start, end) pairs");
  for (std::size_t i = 0; i + 1 < control_outages.size(); i += 2) {
    if (control_outages[i] < 0 ||
        control_outages[i + 1] <= control_outages[i])
      return fail("control_outages windows must satisfy 0 <= start < end");
  }
  if (controller_mtbf_slots < 0.0 || controller_mttr_slots < 0.0)
    return fail("controller mtbf/mttr must be >= 0");
  if (controller_mtbf_slots > 0.0 && controller_mttr_slots <= 0.0)
    return fail("controller_mtbf needs a matching positive controller_mttr");
  if (replan_apply_delay < 0) return fail("replan_apply_delay must be >= 0");
  if (estimate_stale_epochs < 0)
    return fail("estimate_stale_epochs must be >= 0");
  if (estimate_noise < 0.0 || estimate_noise > 1.0)
    return fail("estimate_noise must be in [0, 1]");
  if (safe_mode != "hold" && safe_mode != "vlb")
    return fail("safe_mode must be \"hold\" or \"vlb\"");
  const bool control_faults = !control_outages.empty() ||
                              controller_mtbf_slots > 0.0 ||
                              replan_apply_delay > 0 ||
                              estimate_stale_epochs > 0 ||
                              estimate_noise > 0.0;
  if (control_faults && epoch_slots <= 0)
    return fail("control-plane faults require epoch_slots > 0");
  if (retransmit_jitter < 0.0 || retransmit_jitter > 1.0)
    return fail("retransmit_jitter must be in [0, 1]");
  // Fan-in is bounded by the node count, so only enforce it when the
  // incast workload is actually selected (the default fanin must not
  // invalidate small-N configs of other workloads).
  if (workload == WorkloadKind::kIncast &&
      (incast_fanin < 1 || incast_fanin > nodes - 1))
    return fail("incast_fanin must be in [1, nodes - 1]");
  if (incast_bytes < 1) return fail("incast_bytes must be >= 1");
  if (incast_period_slots < 1)
    return fail("incast_period_slots must be >= 1");
  if (collective_kind != "ring" && collective_kind != "tree")
    return fail("collective_kind must be \"ring\" or \"tree\"");
  if (collective_bytes < 1) return fail("collective_bytes must be >= 1");
  if (collective_phase_gap_slots < 1)
    return fail("collective_phase_gap_slots must be >= 1");
  if (rack_local_frac < 0.0 || rack_local_frac > 1.0)
    return fail("rack_local_frac must be in [0, 1]");
  if (oversub_factor < 1.0) return fail("oversub_factor must be >= 1");
  if (workload == WorkloadKind::kOversubRack && cliques < 2 &&
      rack_local_frac < 1.0)
    return fail("oversub-rack inter-rack traffic needs cliques >= 2");
  if (transport != "open-loop" && transport != "dctcp")
    return fail("transport must be \"open-loop\" or \"dctcp\"");
  if (transport == "dctcp" && !workload_uses_flow_driver(workload))
    return fail("transport \"dctcp\" requires a flow-driver workload");
  if (init_cwnd_cells < 1 || max_cwnd_cells < init_cwnd_cells)
    return fail("need 1 <= init_cwnd_cells <= max_cwnd_cells");
  if (dctcp_gain <= 0.0 || dctcp_gain > 1.0)
    return fail("dctcp_gain must be in (0, 1]");
  return true;
}

}  // namespace sorn
