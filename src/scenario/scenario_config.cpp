#include "scenario/scenario_config.h"

#include <algorithm>
#include <cmath>
#include <iterator>
#include <limits>
#include <span>
#include <type_traits>
#include <utility>
#include <variant>

#include "control/optimizer.h"
#include "obs/export.h"
#include "obs/json.h"
#include "obs/json_parse.h"
#include "sim/cell.h"

namespace sorn {

bool workload_is_arrival_driven(WorkloadKind k) {
  return k == WorkloadKind::kFlows || k == WorkloadKind::kIncast ||
         k == WorkloadKind::kCollective || k == WorkloadKind::kOversubRack;
}

namespace {

using C = ScenarioConfig;

// The names an enum field writes and reads.
template <typename E>
struct EnumName {
  const char* name;
  E value;
};

constexpr EnumName<WorkloadKind> kWorkloads[] = {
    {"flows", WorkloadKind::kFlows},
    {"saturation", WorkloadKind::kSaturation},
    {"flow-saturation", WorkloadKind::kFlowSaturation},
    {"incast", WorkloadKind::kIncast},
    {"collective", WorkloadKind::kCollective},
    {"oversub-rack", WorkloadKind::kOversubRack},
};
constexpr EnumName<TrafficKind> kTraffics[] = {
    {"locality", TrafficKind::kLocality},
    {"uniform", TrafficKind::kUniform},
    {"ring", TrafficKind::kRing},
    {"hier-locality", TrafficKind::kHierLocality},
};
constexpr EnumName<FlowSizeKind> kFlowSizes[] = {
    {"pfabric-web-search", FlowSizeKind::kPfabricWebSearch},
    {"pfabric-data-mining", FlowSizeKind::kPfabricDataMining},
    {"fixed", FlowSizeKind::kFixed},
};
constexpr EnumName<ClassifyKind> kClassifies[] = {
    {"none", ClassifyKind::kNone},
    {"clique", ClassifyKind::kClique},
    {"size", ClassifyKind::kSize},
};

std::span<const EnumName<WorkloadKind>> names_of(WorkloadKind) {
  return kWorkloads;
}
std::span<const EnumName<TrafficKind>> names_of(TrafficKind) {
  return kTraffics;
}
std::span<const EnumName<FlowSizeKind>> names_of(FlowSizeKind) {
  return kFlowSizes;
}
std::span<const EnumName<ClassifyKind>> names_of(ClassifyKind) {
  return kClassifies;
}
std::span<const EnumName<DemandBackend>> names_of(DemandBackend) {
  static const EnumName<DemandBackend> kBackends[] = {
      {demand_backend_name(DemandBackend::kDense), DemandBackend::kDense},
      {demand_backend_name(DemandBackend::kSparse), DemandBackend::kSparse},
      {demand_backend_name(DemandBackend::kProcedural),
       DemandBackend::kProcedural},
  };
  return kBackends;
}

// A pointer to a member of any type a scenario field has.
using Member = std::variant<
    bool C::*, std::int32_t C::*, std::int64_t C::*, std::uint32_t C::*,
    std::uint64_t C::*, double C::*, std::string C::*, TrafficKind C::*,
    DemandBackend C::*, WorkloadKind C::*, FlowSizeKind C::*,
    ClassifyKind C::*, std::vector<double> C::*, std::vector<NodeId> C::*,
    std::vector<Slot> C::*>;

struct Field {
  const char* key;  // JSON key
  Member member;
  const char* flag = nullptr;  // sorn_tool simulate flag, if any
};

// The field list, in to_json's key order (reordering it changes the bytes
// of every saved scenario). The writer, the reader and the flag applier
// below all walk it and dispatch on the member's type, so a new field is
// its declaration in the struct plus one line here.
constexpr Field kFields[] = {
    {"design", &C::design, "--design"},
    {"nodes", &C::nodes, "--nodes"},
    {"cliques", &C::cliques, "--cliques"},
    {"locality", &C::locality_x, "--locality"},
    {"q_num", &C::q_num},
    {"q_den", &C::q_den},
    {"max_q_denominator", &C::max_q_denominator},
    {"lb_first_available", &C::lb_first_available},
    {"inter_clique_weights", &C::inter_clique_weights},
    {"weighted_alpha", &C::weighted_alpha},
    {"clusters", &C::clusters},
    {"pods_per_cluster", &C::pods_per_cluster},
    {"pod_locality_x1", &C::pod_locality_x1},
    {"cluster_locality_x2", &C::cluster_locality_x2},
    {"dwell_slots", &C::dwell_slots},
    {"schedule_seed", &C::schedule_seed},
    {"max_short_hops", &C::max_short_hops},
    {"bulk_cutoff_bytes", &C::bulk_cutoff_bytes},
    {"orn_dims", &C::orn_dims},
    {"radices", &C::radices},
    {"lanes", &C::lanes},
    {"slot_ns", &C::slot_ns},
    {"propagation_ns", &C::propagation_ns},
    {"cell_bytes", &C::cell_bytes},
    {"max_queue_cells", &C::max_queue_cells},
    {"seed", &C::seed, "--seed"},
    {"traffic", &C::traffic},
    {"ring_heavy_share", &C::ring_heavy_share},
    {"traffic_backend", &C::traffic_backend, "--traffic-backend"},
    {"workload", &C::workload, "--workload"},
    {"load", &C::load, "--load"},
    {"slots", &C::slots, "--slots"},
    {"drain_slots", &C::drain_slots},
    {"warmup_slots", &C::warmup_slots},
    {"measure_slots", &C::measure_slots},
    {"flow_size", &C::flow_size},
    {"fixed_flow_bytes", &C::fixed_flow_bytes},
    {"flow_size_cap", &C::flow_size_cap},
    {"classify", &C::classify},
    {"arrival_seed", &C::arrival_seed},
    {"workload_seed", &C::workload_seed},
    {"incast_fanin", &C::incast_fanin, "--incast-fanin"},
    {"incast_bytes", &C::incast_bytes, "--incast-bytes"},
    {"incast_period_slots", &C::incast_period_slots, "--incast-period"},
    {"collective_kind", &C::collective_kind, "--collective"},
    {"collective_bytes", &C::collective_bytes, "--collective-bytes"},
    {"collective_phase_gap_slots", &C::collective_phase_gap_slots,
     "--collective-gap"},
    {"rack_local_frac", &C::rack_local_frac, "--rack-local-frac"},
    {"oversub_factor", &C::oversub_factor, "--oversub-factor"},
    {"transport", &C::transport, "--transport"},
    {"ecn_threshold_cells", &C::ecn_threshold_cells, "--ecn-threshold"},
    {"init_cwnd_cells", &C::init_cwnd_cells, "--init-cwnd"},
    {"max_cwnd_cells", &C::max_cwnd_cells, "--max-cwnd"},
    {"dctcp_gain", &C::dctcp_gain, "--dctcp-gain"},
    {"trace", &C::trace_path, "--trace"},
    {"metrics_json", &C::metrics_json_path, "--metrics-json"},
    {"timeseries_csv", &C::timeseries_csv_path, "--timeseries-csv"},
    {"sample_every", &C::sample_every, "--sample-every"},
    {"profile", &C::profile, "--profile"},
    {"profile_json", &C::profile_json_path, "--profile-json"},
    {"fault_script", &C::fault_script},
    {"fault_script_path", &C::fault_script_path, "--fault-script"},
    {"mtbf", &C::node_mtbf_slots, "--mtbf"},
    {"mttr", &C::node_mttr_slots, "--mttr"},
    {"circuit_mtbf", &C::circuit_mtbf_slots, "--circuit-mtbf"},
    {"circuit_mttr", &C::circuit_mttr_slots, "--circuit-mttr"},
    {"fault_seed", &C::fault_seed, "--fault-seed"},
    {"epoch_slots", &C::epoch_slots, "--epoch-slots"},
    {"update_delay_slots", &C::update_delay_slots, "--update-delay"},
    {"control_outages", &C::control_outages, "--control-outages"},
    {"controller_mtbf", &C::controller_mtbf_slots, "--controller-mtbf"},
    {"controller_mttr", &C::controller_mttr_slots, "--controller-mttr"},
    {"control_fault_seed", &C::control_fault_seed, "--control-fault-seed"},
    {"replan_apply_delay", &C::replan_apply_delay, "--replan-apply-delay"},
    {"estimate_stale_epochs", &C::estimate_stale_epochs,
     "--estimate-stale-epochs"},
    {"estimate_noise", &C::estimate_noise, "--estimate-noise"},
    {"safe_mode", &C::safe_mode, "--safe-mode"},
    {"check_invariants", &C::check_invariants, "--check-invariants"},
    {"retransmit_timeout", &C::retransmit_timeout, "--retransmit-timeout"},
    {"retransmit_max_attempts", &C::retransmit_max_attempts,
     "--retransmit-max-attempts"},
    {"retransmit_jitter", &C::retransmit_jitter, "--retransmit-jitter"},
};

template <typename T>
struct IsVector : std::false_type {};
template <typename T>
struct IsVector<std::vector<T>> : std::true_type {};

template <typename T>
void write(JsonWriter& w, const T& v) {
  if constexpr (IsVector<T>::value) {
    w.begin_array();
    for (const auto& item : v) write(w, item);
    w.end_array();
  } else if constexpr (std::is_enum_v<T>) {
    const char* name = "?";
    for (const auto& e : names_of(v))
      if (e.value == v) name = e.name;
    w.value(name);
  } else if constexpr (std::is_same_v<T, bool> || !std::is_integral_v<T>) {
    w.value(v);  // bool, double, string
  } else if constexpr (std::is_signed_v<T>) {
    w.value(static_cast<std::int64_t>(v));
  } else {
    w.value(static_cast<std::uint64_t>(v));
  }
}

// Sets *out when `v` is a value of T; false otherwise.
template <typename T>
bool read(const JsonValue& v, T* out) {
  if constexpr (IsVector<T>::value) {
    if (!v.is_array()) return false;
    T items(v.items().size());
    for (std::size_t i = 0; i < items.size(); ++i)
      if (!read(v.items()[i], &items[i])) return false;
    *out = std::move(items);
    return true;
  } else if constexpr (std::is_enum_v<T>) {
    if (!v.is_string()) return false;
    for (const auto& e : names_of(T{})) {
      if (v.as_string() == e.name) {
        *out = e.value;
        return true;
      }
    }
    return false;
  } else if constexpr (std::is_same_v<T, bool>) {
    if (!v.is_bool()) return false;
    *out = v.as_bool();
    return true;
  } else if constexpr (std::is_integral_v<T>) {
    return v.get_integer(out);
  } else if constexpr (std::is_same_v<T, double>) {
    if (!v.is_number() || !std::isfinite(v.as_double())) return false;
    *out = v.as_double();
    return true;
  } else {
    if (!v.is_string()) return false;
    *out = v.as_string();
    return true;
  }
}

// What read<T> accepts, for error messages.
template <typename T>
std::string expected() {
  if constexpr (IsVector<T>::value) {
    return "a list, each item " + expected<typename T::value_type>();
  } else if constexpr (std::is_enum_v<T>) {
    std::string names;
    for (const auto& e : names_of(T{}))
      names += (names.empty() ? "" : "|") + std::string(e.name);
    return "one of " + names;
  } else if constexpr (std::is_same_v<T, bool>) {
    return "true or false";
  } else if constexpr (std::is_integral_v<T>) {
    return "an integer in [" +
           std::to_string(std::numeric_limits<T>::min()) + ", " +
           std::to_string(std::numeric_limits<T>::max()) + "]";
  } else if constexpr (std::is_same_v<T, double>) {
    return "a finite number";
  } else {
    return "a string";
  }
}

// The JSON value a flag's text stands for.
template <typename T>
bool flag_value(const std::string& text, JsonValue* out) {
  if constexpr (std::is_same_v<T, bool>) {
    *out = JsonValue::boolean(true);
    return true;
  } else if constexpr (std::is_same_v<T, std::string> || std::is_enum_v<T>) {
    *out = JsonValue::string(text);
    return true;
  } else if constexpr (IsVector<T>::value) {
    std::vector<JsonValue> items;
    for (std::size_t pos = 0; !text.empty() && pos <= text.size();) {
      std::size_t comma = text.find(',', pos);
      if (comma == std::string::npos) comma = text.size();
      items.emplace_back();
      if (!json_parse(std::string_view(text).substr(pos, comma - pos),
                      &items.back(), nullptr))
        return false;
      pos = comma + 1;
    }
    *out = JsonValue::array(std::move(items));
    return true;
  } else {
    return json_parse(text, out, nullptr);
  }
}

}  // namespace

std::string ScenarioConfig::to_json() const {
  JsonWriter w;
  w.begin_object();
  for (const Field& f : kFields) {
    w.key(f.key);
    std::visit([&](auto member) { write(w, this->*member); }, f.member);
  }
  w.end_object();
  return w.take() + "\n";
}

bool ScenarioConfig::from_json(std::string_view text, ScenarioConfig* out,
                               std::string* error) {
  JsonValue doc;
  return json_parse(text, &doc, error) && from_json(doc, out, error);
}

bool ScenarioConfig::from_json(const JsonValue& doc, ScenarioConfig* out,
                               std::string* error) {
  if (!doc.is_object()) {
    *error = "scenario document must be a JSON object";
    return false;
  }

  ScenarioConfig cfg = *out;  // *out untouched until full success
  bool seen[std::size(kFields)] = {};
  for (const auto& [key, v] : doc.fields()) {
    // A retired key (scenario_config.h): checked, then dropped.
    if (key == "threads") {
      std::int32_t threads = 0;
      if (!v.get_integer(&threads) || threads < 0) {
        *error = "field 'threads' must be an integer >= 0";
        return false;
      }
      continue;
    }
    const Field* f =
        std::find_if(std::begin(kFields), std::end(kFields),
                     [&](const Field& field) { return key == field.key; });
    if (f == std::end(kFields)) {
      *error = "unknown scenario field '" + key + "'";
      return false;
    }
    const std::string label = "field '" + key + "'";
    if (std::exchange(seen[f - kFields], true)) {
      *error = label + " is given twice";
      return false;
    }
    const bool ok = std::visit(
        [&](auto member) {
          using T = std::remove_reference_t<decltype(cfg.*member)>;
          if (read(v, &(cfg.*member))) return true;
          *error = label + " must be " + expected<T>();
          return false;
        },
        f->member);
    if (!ok) return false;
  }

  if (!cfg.validate(error)) return false;
  *out = std::move(cfg);
  return true;
}

bool ScenarioConfig::apply_flags(const FlagLookup& given, std::string* error) {
  ScenarioConfig cfg = *this;
  for (const Field& f : kFields) {
    if (f.flag == nullptr) continue;
    const bool ok = std::visit(
        [&](auto member) {
          using T = std::remove_reference_t<decltype(cfg.*member)>;
          const std::optional<std::string> text =
              given(f.flag, !std::is_same_v<T, bool>);
          if (!text.has_value()) return true;
          JsonValue v;
          if (flag_value<T>(*text, &v) && read(v, &(cfg.*member)))
            return true;
          *error = std::string(f.flag) + " must be " + expected<T>() +
                   " (got '" + *text + "')";
          return false;
        },
        f.member);
    if (!ok) return false;
  }
  *this = std::move(cfg);
  return true;
}

bool ScenarioConfig::load_file(const std::string& path, ScenarioConfig* out,
                               std::string* error) {
  std::string text;
  if (!read_text_file(path, &text)) {
    *error = "cannot open " + path;
    return false;
  }
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
  // Cells carry node ids in 16 bits (sim/cell.h).
  if (nodes > Cell::kMaxNodes) return fail("nodes must be <= 65536");
  if (overrides.traffic == nullptr &&
      traffic_backend != DemandBackend::kProcedural) {
    const auto n = static_cast<std::uint64_t>(nodes);
    const std::uint64_t entries =
        traffic_backend == DemandBackend::kDense ? n * n : n * (n - 1);
    if (entries > kMaxDemandEntries) {
      if (error != nullptr) {
        *error = std::string("traffic_backend \"") +
                 demand_backend_name(traffic_backend) + "\" would store " +
                 std::to_string(entries) +
                 " demand entries, past the cap of 2^28 (N = 16384); set "
                 "\"traffic_backend\": \"procedural\"";
      }
      return false;
    }
  }
  if (cliques < 1) return fail("cliques must be >= 1");
  if (lanes < 1) return fail("lanes must be >= 1");
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
  if (node_mtbf_slots < 0.0 || node_mttr_slots < 0.0 ||
      circuit_mtbf_slots < 0.0 || circuit_mttr_slots < 0.0)
    return fail("mtbf, mttr, circuit_mtbf and circuit_mttr must be >= 0");
  if ((node_mtbf_slots > 0.0 && node_mttr_slots <= 0.0) ||
      (circuit_mtbf_slots > 0.0 && circuit_mttr_slots <= 0.0))
    return fail("an MTBF needs a matching positive MTTR");
  if (!fault_script.empty() && !fault_script_path.empty())
    return fail("give fault_script or fault_script_path, not both");
  if (epoch_slots < 0) return fail("epoch_slots must be >= 0");
  if (epoch_slots > 0) {
    // Whatever the backend, the control loop copies the demand it observes
    // into CSR estimates (up to N x (N - 1) entries each) and clusters
    // from a dense N x N affinity.
    const auto n = static_cast<std::uint64_t>(nodes);
    if (n * n > kMaxDemandEntries) {
      if (error != nullptr) {
        *error = "epoch_slots (the control loop) would hold a " +
                 std::to_string(n) + " x " + std::to_string(n) +
                 " affinity and estimates of up to " +
                 std::to_string(n * (n - 1)) +
                 " demand entries, past the cap of 2^28 entries (N = "
                 "16384)";
      }
      return false;
    }
  }
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
  if (retransmit_max_attempts < 1)
    return fail("retransmit_max_attempts must be >= 1");
  if (retransmit_jitter < 0.0 || retransmit_jitter > 1.0)
    return fail("retransmit_jitter must be in [0, 1]");
  // Fan-in is bounded by the node count, so only enforce that bound when
  // the incast workload is actually selected (the default fanin must not
  // invalidate small-N configs of other workloads).
  if (incast_fanin < 1 ||
      (workload == WorkloadKind::kIncast && incast_fanin > nodes - 1))
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
  if (transport == "dctcp" && !workload_is_arrival_driven(workload))
    return fail("transport \"dctcp\" requires an arrival-driven workload");
  if (init_cwnd_cells < 1 || max_cwnd_cells < init_cwnd_cells)
    return fail("need 1 <= init_cwnd_cells <= max_cwnd_cells");
  if (dctcp_gain <= 0.0 || dctcp_gain > 1.0)
    return fail("dctcp_gain must be in (0, 1]");
  return true;
}

Rational ScenarioConfig::sorn_q() const {
  return q_num > 0 ? Rational{q_num, q_den}
                   : optimal_q(locality_x, max_q_denominator);
}

}  // namespace sorn
