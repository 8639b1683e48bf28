// CSV persistence for traffic matrices.
//
// The control plane's measured aggregates are the durable artifact of a
// deployment (the macro pattern is stable for hours — paper Sec. 3);
// operators snapshot them, replay them in planning tools, and seed new
// clusters from them. Format: one CSV row per source node, N columns of
// demand rates; no header.
#pragma once

#include <optional>
#include <string>

#include "traffic/traffic_matrix.h"

namespace sorn {

// Serialize to CSV text.
std::string matrix_to_csv(const DemandModel& tm);

// Parse CSV text; returns nullopt on malformed input (ragged rows,
// non-numeric or non-finite cells, negative demand, nonzero diagonal, a
// non-square shape, or a total demand past the largest double).
std::optional<TrafficMatrix> matrix_from_csv(const std::string& csv);

// File convenience wrappers; return false / nullopt on IO failure.
bool save_matrix_csv(const DemandModel& tm, const std::string& path);
std::optional<TrafficMatrix> load_matrix_csv(const std::string& path);

}  // namespace sorn
