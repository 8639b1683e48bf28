// DemandModel: the read-only traffic-demand abstraction.
//
// The paper's control plane never consumes the raw N x N matrix — only the
// locality ratio x, row/column loads, and the clique-level aggregate
// (Sec. 3). This interface captures exactly that consumer contract so the
// demand can live in one of three backends:
//
//   dense       TrafficMatrix (traffic_matrix.h) — the historical N^2
//               array; still the only mutable backend.
//   sparse      SparseDemand (sparse_demand.h) — CSR over the nonzero
//               entries, O(nnz) statistics and O(log nnz) sampling.
//   procedural  ProceduralDemand (procedural_demand.h) — closed-form
//               generators (uniform / locality-mix / clique-ring /
//               hier-locality) answering everything from per-row run
//               descriptions with O(N) state.
//
// Byte-identity contract: all three backends produce BIT-IDENTICAL values
// for every statistic and for every seeded sample sequence. The key fact
// making that possible: adding an exact 0.0 to a double accumulator is a
// bit-exact no-op, so folding only the nonzero entries in the same order
// as the dense loops (row-major for total/locality/aggregate/sample_pair,
// j-ascending within a row for row_sum, i-ascending for col_sum) yields
// the same bits as folding all N^2 entries. The generic implementations
// below encode the canonical dense fold orders; backends may override them
// with faster equivalents but must preserve the fold order over nonzeros.
#pragma once

#include <cstddef>
#include <functional>
#include <memory>
#include <string_view>
#include <utility>
#include <vector>

#include "topo/clique.h"
#include "util/rng.h"
#include "util/types.h"

namespace sorn {

// Which backend a scenario materializes its demand into
// (ScenarioConfig::traffic_backend).
enum class DemandBackend {
  kDense,
  kSparse,
  kProcedural,
};

const char* demand_backend_name(DemandBackend backend);
bool parse_demand_backend(std::string_view name, DemandBackend* out);

class DemandModel {
 public:
  virtual ~DemandModel() = default;

  virtual NodeId node_count() const = 0;

  // Demand rate from src to dst (0 on the diagonal).
  virtual double at(NodeId src, NodeId dst) const = 0;

  // Visit every nonzero entry in row-major order (rows ascending, columns
  // ascending within a row) — the canonical fold order. Backends may skip
  // entries whose stored value is exactly 0.0.
  using NonzeroVisitor = std::function<void(NodeId, NodeId, double)>;
  virtual void for_each_nonzero(const NonzeroVisitor& visit) const;

  virtual double total() const;
  virtual double row_sum(NodeId src) const;
  virtual double col_sum(NodeId dst) const;
  // Max over nodes of max(row_sum, col_sum): the load the busiest node
  // must carry.
  virtual double max_node_load() const;

  // Fraction of total demand that stays within a clique (the paper's x).
  virtual double locality_ratio(const CliqueAssignment& cliques) const;
  // locality_ratio of each assignment, with its bits. The default calls
  // it once per assignment; a backend may fold the demand once with one
  // accumulator per assignment, each added to in locality_ratio's order.
  virtual std::vector<double> locality_ratios(
      const std::vector<const CliqueAssignment*>& cliques) const;

  // Clique-level aggregate: entry (a, b) sums demand from clique a to b.
  virtual std::vector<double> aggregate(const CliqueAssignment& cliques) const;

  // Draw a (src, dst) pair with probability proportional to demand;
  // consumes exactly one rng.next_double(). Requires total() > 0.
  virtual std::pair<NodeId, NodeId> sample_pair(Rng& rng) const = 0;

  // Draw a destination for `src` proportional to the row's demand;
  // consumes exactly one rng.next_double(). Callers must check
  // row_sum(src) > 0 first (the closed-loop sources skip silent rows
  // without touching the RNG). The draw can land on the clamped last
  // column (n - 1) — including src itself — exactly as the historical
  // per-row CDF upper_bound did; callers skip that case themselves.
  virtual NodeId sample_dst(NodeId src, Rng& rng) const = 0;

  // Deep copy preserving the backend (fault-model staleness history holds
  // these instead of dense matrices).
  virtual std::unique_ptr<DemandModel> clone() const = 0;

  // Bytes of heap state currently held (including lazily built sampling
  // caches) — the `traffic_demand` profiler gauge.
  virtual std::size_t memory_bytes() const = 0;

  virtual DemandBackend backend() const = 0;

 protected:
  DemandModel() = default;
  DemandModel(const DemandModel&) = default;
  DemandModel& operator=(const DemandModel&) = default;
};

}  // namespace sorn
