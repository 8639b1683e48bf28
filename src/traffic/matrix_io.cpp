#include "traffic/matrix_io.h"

#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <vector>

#include "util/table.h"

namespace sorn {

std::string matrix_to_csv(const DemandModel& tm) {
  std::string out;
  const NodeId n = tm.node_count();
  for (NodeId i = 0; i < n; ++i) {
    for (NodeId j = 0; j < n; ++j) {
      if (j != 0) out += ',';
      out += format("%.12g", tm.at(i, j));
    }
    out += '\n';
  }
  return out;
}

std::optional<TrafficMatrix> matrix_from_csv(const std::string& csv) {
  std::vector<std::vector<double>> rows;
  std::size_t pos = 0;
  while (pos < csv.size()) {
    std::size_t end = csv.find('\n', pos);
    if (end == std::string::npos) end = csv.size();
    const std::string line = csv.substr(pos, end - pos);
    pos = end + 1;
    if (line.empty()) continue;
    std::vector<double> row;
    std::size_t cell_start = 0;
    for (;;) {
      std::size_t comma = line.find(',', cell_start);
      const std::string cell =
          line.substr(cell_start, comma == std::string::npos
                                      ? std::string::npos
                                      : comma - cell_start);
      errno = 0;
      char* parse_end = nullptr;
      const double value = std::strtod(cell.c_str(), &parse_end);
      if (parse_end == cell.c_str() || *parse_end != '\0' || errno != 0 ||
          !std::isfinite(value) || value < 0.0)
        return std::nullopt;
      row.push_back(value);
      if (comma == std::string::npos) break;
      cell_start = comma + 1;
    }
    rows.push_back(std::move(row));
  }
  if (rows.empty()) return std::nullopt;
  const std::size_t n = rows.size();
  for (const auto& row : rows)
    if (row.size() != n) return std::nullopt;  // ragged or non-square
  TrafficMatrix tm(static_cast<NodeId>(n));
  for (std::size_t i = 0; i < n; ++i) {
    if (rows[i][i] != 0.0) return std::nullopt;  // self-demand is invalid
    for (std::size_t j = 0; j < n; ++j)
      if (i != j)
        tm.set(static_cast<NodeId>(i), static_cast<NodeId>(j), rows[i][j]);
  }
  if (!std::isfinite(tm.total())) return std::nullopt;  // sum overflowed
  return tm;
}

bool save_matrix_csv(const DemandModel& tm, const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const std::string csv = matrix_to_csv(tm);
  const bool ok = std::fwrite(csv.data(), 1, csv.size(), f) == csv.size();
  return std::fclose(f) == 0 && ok;
}

std::optional<TrafficMatrix> load_matrix_csv(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return std::nullopt;
  std::string csv;
  char buf[4096];
  std::size_t got = 0;
  while ((got = std::fread(buf, 1, sizeof buf, f)) > 0) csv.append(buf, got);
  std::fclose(f);
  return matrix_from_csv(csv);
}

}  // namespace sorn
