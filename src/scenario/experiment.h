// Experiment: one simulated paper figure as a checked-in file — a base
// scenario, the points swept over it, and the band each measured value
// must fall in. `sorn_tool sweep --experiment FILE` runs one; CI runs
// every experiments/*.json and fails on any value outside its band.
//
//   {"description": "Fig. 2f ...",
//    "base": {"design": "sorn", "nodes": 128, "workload": "saturation"},
//    "points": [{"set": {"locality": 0.3},
//                "expect": {"saturation_r": [0.345, 0.355]}}]}
//
// `set` is read by ScenarioConfig's strict reader on top of `base`, so a
// point takes exactly the scenario keys and values. Each key of `expect`
// names a value of the point's row (experiment_value_names) and gives an
// inclusive [lo, hi] band. Points run one after another, each through
// ScenarioRunner::create/run.
//
// A point of an arrival-driven workload may also give "window":
// [from, to], two integer slots with 0 <= from < to (a closed-loop point
// resets its counters at warmup_slots, so it takes none). Its row then reports
// window_cells_per_slot: the delivered-cell count read at the start of
// slot `to` less the count at the start of slot `from`, over to - from.
// A run that never starts slot `to` (the drain ended first) is an error.
#pragma once

#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "scenario/scenario_config.h"

namespace sorn {

struct Experiment {
  struct Band {
    std::string value;  // a name from experiment_value_names
    double lo = 0.0;
    double hi = 0.0;
  };
  struct Window {
    Slot from = 0;
    Slot to = 0;
  };
  struct Point {
    // The point's `set` as compact JSON, e.g. {"locality":0.3,"seed":43};
    // "{}" when the point runs the base unchanged.
    std::string label;
    ScenarioConfig config;  // base with `set` applied
    std::optional<Window> window;
    std::vector<Band> expect;
  };

  std::string description;
  std::vector<Point> points;

  // Parse an experiment document. A malformed document, an unknown key at
  // any level, a missing `base` or `points`, a `set` the scenario reader
  // rejects, a window that is not two integers 0 <= from < to or that is
  // on a closed-loop workload, an `expect` name the point does
  // not report, and a band that is not two finite numbers with lo <= hi
  // are errors naming the point.
  // On failure returns false and sets *error; *out is untouched.
  static bool from_json(std::string_view text, Experiment* out,
                        std::string* error);
  // Same, reading the file at `path`.
  static bool load_file(const std::string& path, Experiment* out,
                        std::string* error);
};

// The values one point reports, in row order:
//   predicted_throughput  the design's closed-form r at the q it built
//   saturation_r          measured r (saturation workloads; else 0)
//   r_over_predicted      their ratio (0 when nothing is predicted)
//   mean_hops, delivered_cells, dropped_cells (tail and gray drops),
//   ecn_marked_cells, completed_flows, open_flows (left open at the end),
//   retransmitted_cells
//   cell_latency_p50_us, cell_latency_p99_us, fct_p50_us, fct_p99_us
// then, when the point has a window, window_cells_per_slot, and, when the
// scenario classifies flows, for classes c = 0 and 1:
//   class{c}_flows, class{c}_fct_p50_us, class{c}_fct_p99_us
// (class{c}_flows counts the class's completed flows).
std::vector<std::string> experiment_value_names(
    const Experiment::Point& point);

struct ExperimentRow {
  struct Value {
    std::string name;
    double value = 0.0;
  };
  std::vector<Value> values;  // named as experiment_value_names
  // One message per value outside its band, naming the point and value.
  std::vector<std::string> misses;
};

// Run one point and check its bands. Returns false and sets *error when
// create() rejects the point's config, run() fails or the run never
// reaches the point's window; a value outside its band is a miss in the
// row, not an error.
bool run_experiment_point(const Experiment::Point& point, ExperimentRow* row,
                          std::string* error);

}  // namespace sorn
