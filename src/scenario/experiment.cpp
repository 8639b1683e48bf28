#include "scenario/experiment.h"

#include <algorithm>
#include <cmath>
#include <initializer_list>
#include <optional>
#include <utility>

#include "obs/export.h"
#include "obs/json.h"
#include "obs/json_parse.h"
#include "scenario/scenario_runner.h"
#include "util/table.h"

namespace sorn {
namespace {

bool fail(std::string* error, std::string message) {
  *error = std::move(message);
  return false;
}

// ---- the row: every value declared once -----------------------------------

struct RunValue {
  const char* name;
  double (*of)(const ScenarioRunner&);
};

constexpr RunValue kRunValues[] = {
    {"predicted_throughput",
     [](const ScenarioRunner& r) { return r.design().predicted_throughput; }},
    {"saturation_r", [](const ScenarioRunner& r) { return r.saturation_r(); }},
    {"r_over_predicted",
     [](const ScenarioRunner& r) {
       const double predicted = r.design().predicted_throughput;
       return predicted > 0.0 ? r.saturation_r() / predicted : 0.0;
     }},
    {"mean_hops",
     [](const ScenarioRunner& r) { return r.metrics().mean_hops(); }},
    {"delivered_cells",
     [](const ScenarioRunner& r) {
       return static_cast<double>(r.metrics().delivered_cells());
     }},
    {"dropped_cells",
     [](const ScenarioRunner& r) {
       return static_cast<double>(r.metrics().dropped_cells());
     }},
    {"ecn_marked_cells",
     [](const ScenarioRunner& r) {
       return static_cast<double>(r.metrics().ecn_marked_cells());
     }},
    {"completed_flows",
     [](const ScenarioRunner& r) {
       return static_cast<double>(r.metrics().completed_flows());
     }},
    {"open_flows",
     [](const ScenarioRunner& r) {
       return static_cast<double>(r.metrics().open_flows());
     }},
    {"retransmitted_cells",
     [](const ScenarioRunner& r) {
       return static_cast<double>(r.metrics().retransmitted_cells());
     }},
    {"cell_latency_p50_us",
     [](const ScenarioRunner& r) {
       return r.metrics().cell_latency_ps().percentile(50.0) / 1e6;
     }},
    {"cell_latency_p99_us",
     [](const ScenarioRunner& r) {
       return r.metrics().cell_latency_ps().percentile(99.0) / 1e6;
     }},
    {"fct_p50_us",
     [](const ScenarioRunner& r) {
       return r.metrics().fct_ps().percentile(50.0) / 1e6;
     }},
    {"fct_p99_us",
     [](const ScenarioRunner& r) {
       return r.metrics().fct_ps().percentile(99.0) / 1e6;
     }},
};

// Per flow class, from the class's FCTs (one sample per completed flow).
struct ClassValue {
  const char* name;
  double (*of)(const Percentiles& fct_ps);
};

constexpr ClassValue kClassValues[] = {
    {"flows",
     [](const Percentiles& fct) { return static_cast<double>(fct.count()); }},
    {"fct_p50_us",
     [](const Percentiles& fct) { return fct.percentile(50.0) / 1e6; }},
    {"fct_p99_us",
     [](const Percentiles& fct) { return fct.percentile(99.0) / 1e6; }},
};

// Both classifiers label a flow 0 or 1 (scenario_config.h ClassifyKind).
constexpr int kFlowClasses = 2;

// The row of a point: names always, values from the runner and the
// window's rate when there is a runner (zeros otherwise).
std::vector<ExperimentRow::Value> row_of(const Experiment::Point& point,
                                         const ScenarioRunner* runner,
                                         double window_cells_per_slot) {
  std::vector<ExperimentRow::Value> row;
  for (const RunValue& v : kRunValues)
    row.push_back({v.name, runner != nullptr ? v.of(*runner) : 0.0});
  if (point.window)
    row.push_back({"window_cells_per_slot", window_cells_per_slot});
  if (point.config.classify == ClassifyKind::kNone) return row;
  for (int c = 0; c < kFlowClasses; ++c) {
    for (const ClassValue& v : kClassValues) {
      row.push_back({format("class%d_%s", c, v.name),
                     runner != nullptr
                         ? v.of(runner->metrics().fct_ps_class(c))
                         : 0.0});
    }
  }
  return row;
}

// ---- the file --------------------------------------------------------------

// The members of `obj` named by `keys`, in that order (null when absent).
// Any other key, or one given twice, is an error naming `where`.
bool members(const JsonValue& obj, const std::string& where,
             std::initializer_list<const char*> keys,
             std::vector<const JsonValue*>* found, std::string* error) {
  if (!obj.is_object()) return fail(error, where + " must be a JSON object");
  found->assign(keys.size(), nullptr);
  for (const auto& [key, value] : obj.fields()) {
    const auto it = std::find(keys.begin(), keys.end(), key);
    if (it == keys.end())
      return fail(error, where + ": unknown key '" + key + "'");
    const JsonValue*& slot =
        (*found)[static_cast<std::size_t>(it - keys.begin())];
    if (slot != nullptr)
      return fail(error, where + ": key '" + key + "' is given twice");
    slot = &value;
  }
  return true;
}

// Compact JSON text of a parsed value. Integers keep their exact value and
// other numbers print with %.15g, which gives back any literal of up to 15
// significant digits as written.
void append_compact(std::string& out, const JsonValue& v) {
  std::int64_t i = 0;
  std::uint64_t u = 0;
  switch (v.kind()) {
    case JsonValue::Kind::kNull:
      out += "null";
      break;
    case JsonValue::Kind::kBool:
      out += v.as_bool() ? "true" : "false";
      break;
    case JsonValue::Kind::kNumber:
      if (v.get_integer(&i))
        out += std::to_string(i);
      else if (v.get_integer(&u))
        out += std::to_string(u);
      else
        out += format("%.15g", v.as_double());
      break;
    case JsonValue::Kind::kString:
      json_escape(out, v.as_string());
      break;
    case JsonValue::Kind::kArray:
      out += '[';
      for (std::size_t k = 0; k < v.items().size(); ++k) {
        if (k > 0) out += ',';
        append_compact(out, v.items()[k]);
      }
      out += ']';
      break;
    case JsonValue::Kind::kObject:
      out += '{';
      for (std::size_t k = 0; k < v.fields().size(); ++k) {
        if (k > 0) out += ',';
        json_escape(out, v.fields()[k].first);
        out += ':';
        append_compact(out, v.fields()[k].second);
      }
      out += '}';
      break;
  }
}

// `window` as [from, to]: two integer slots with 0 <= from < to.
bool read_window(const JsonValue& doc, Experiment::Window* out) {
  return doc.is_array() && doc.items().size() == 2 &&
         doc.items()[0].get_integer(&out->from) &&
         doc.items()[1].get_integer(&out->to) && 0 <= out->from &&
         out->from < out->to;
}

bool read_point(const JsonValue& doc, const ScenarioConfig& base,
                const std::string& where, Experiment::Point* out,
                std::string* error) {
  std::vector<const JsonValue*> m;
  if (!members(doc, where, {"set", "window", "expect"}, &m, error))
    return false;
  const JsonValue* set = m[0];
  const JsonValue* window = m[1];
  const JsonValue* expect = m[2];

  Experiment::Point point;
  point.config = base;
  if (set != nullptr) {
    if (!ScenarioConfig::from_json(*set, &point.config, error))
      return fail(error, where + ": set: " + *error);
    append_compact(point.label, *set);
  } else {
    point.label = "{}";
  }

  if (window != nullptr) {
    Experiment::Window w;
    if (!read_window(*window, &w))
      return fail(error, where + ": window must be [from, to], two integer "
                                 "slots with 0 <= from < to");
    if (!workload_is_arrival_driven(point.config.workload))
      return fail(error, where + ": a window needs an arrival-driven "
                                 "workload (flows, incast, collective or "
                                 "oversub-rack); a closed-loop one resets "
                                 "its counters at warmup_slots");
    point.window = w;
  }

  if (expect != nullptr) {
    if (!expect->is_object())
      return fail(error, where + ": expect must be a JSON object");
    const std::vector<std::string> names = experiment_value_names(point);
    for (const auto& [name, band] : expect->fields()) {
      const std::string label = where + ": expect '" + name + "'";
      if (std::find(names.begin(), names.end(), name) == names.end())
        return fail(error, label + " is not a value this point reports");
      for (const Experiment::Band& seen : point.expect)
        if (seen.value == name) return fail(error, label + " is given twice");
      if (!band.is_array() || band.items().size() != 2 ||
          !band.items()[0].is_number() || !band.items()[1].is_number())
        return fail(error, label + " must be a band [lo, hi] of two numbers");
      const double lo = band.items()[0].as_double();
      const double hi = band.items()[1].as_double();
      if (!std::isfinite(lo) || !std::isfinite(hi) || lo > hi)
        return fail(error, label + " needs finite lo <= hi");
      point.expect.push_back({name, lo, hi});
    }
  }
  *out = std::move(point);
  return true;
}

}  // namespace

std::vector<std::string> experiment_value_names(
    const Experiment::Point& point) {
  std::vector<std::string> names;
  for (ExperimentRow::Value& v : row_of(point, nullptr, 0.0))
    names.push_back(std::move(v.name));
  return names;
}

bool Experiment::from_json(std::string_view text, Experiment* out,
                           std::string* error) {
  JsonValue doc;
  if (!json_parse(text, &doc, error)) return false;
  std::vector<const JsonValue*> m;
  if (!members(doc, "experiment", {"description", "base", "points"}, &m,
               error))
    return false;
  const JsonValue* description = m[0];
  const JsonValue* base_doc = m[1];
  const JsonValue* points_doc = m[2];
  if (base_doc == nullptr) return fail(error, "experiment: missing 'base'");
  if (points_doc == nullptr)
    return fail(error, "experiment: missing 'points'");

  Experiment experiment;
  if (description != nullptr) {
    if (!description->is_string())
      return fail(error, "experiment: description must be a string");
    experiment.description = description->as_string();
  }
  ScenarioConfig base;
  if (!ScenarioConfig::from_json(*base_doc, &base, error))
    return fail(error, "base: " + *error);
  if (!points_doc->is_array() || points_doc->items().empty())
    return fail(error, "experiment: points must be a non-empty list");
  for (std::size_t i = 0; i < points_doc->items().size(); ++i) {
    Point point;
    if (!read_point(points_doc->items()[i], base,
                    "point " + std::to_string(i), &point, error))
      return false;
    experiment.points.push_back(std::move(point));
  }
  *out = std::move(experiment);
  return true;
}

bool Experiment::load_file(const std::string& path, Experiment* out,
                           std::string* error) {
  std::string text;
  if (!read_text_file(path, &text)) return fail(error, "cannot open " + path);
  if (!from_json(text, out, error)) return fail(error, path + ": " + *error);
  return true;
}

bool run_experiment_point(const Experiment::Point& point, ExperimentRow* row,
                          std::string* error) {
  const auto runner = ScenarioRunner::create(point.config, error);
  if (runner == nullptr) return false;
  // Delivered cells at the start of the window's first and end slots.
  std::optional<std::uint64_t> at_from;
  std::optional<std::uint64_t> at_to;
  if (point.window) {
    const Experiment::Window w = *point.window;
    runner->set_slot_hook([&at_from, &at_to, w](SlottedNetwork& net,
                                                Slot now) {
      if (now == w.from) at_from = net.metrics().delivered_cells();
      if (now == w.to) at_to = net.metrics().delivered_cells();
    });
  }
  if (!runner->run(error)) return false;
  double window_cells_per_slot = 0.0;
  if (point.window) {
    const Experiment::Window w = *point.window;
    if (!at_from || !at_to) {
      const Slot ended = runner->network().now();
      return fail(error, format("window [%lld, %lld) not reached: the run "
                                "ended at slot %lld",
                                static_cast<long long>(w.from),
                                static_cast<long long>(w.to),
                                static_cast<long long>(ended)));
    }
    window_cells_per_slot = static_cast<double>(*at_to - *at_from) /
                            static_cast<double>(w.to - w.from);
  }
  ExperimentRow result;
  result.values = row_of(point, runner.get(), window_cells_per_slot);
  for (const Experiment::Band& band : point.expect) {
    const auto it = std::find_if(
        result.values.begin(), result.values.end(),
        [&](const ExperimentRow::Value& v) { return v.name == band.value; });
    if (it == result.values.end()) {
      result.misses.push_back(point.label + ": no value named " + band.value);
    } else if (!(band.lo <= it->value && it->value <= band.hi)) {
      result.misses.push_back(format("%s: %s = %.6g outside [%.6g, %.6g]",
                                     point.label.c_str(), band.value.c_str(),
                                     it->value, band.lo, band.hi));
    }
  }
  *row = std::move(result);
  return true;
}

}  // namespace sorn
