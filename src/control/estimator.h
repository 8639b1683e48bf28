// Macro-pattern estimation (paper Sec. 3 and 5).
//
// The control plane never tries to predict per-pair demand; it maintains an
// exponentially weighted average of observed traffic matrices and exposes
// only macro statistics: the smoothed matrix (for clustering), the locality
// ratio under a candidate grouping, and a stability signal comparing
// consecutive clique-level aggregates — the quantity the paper claims is
// predictable over hours.
//
// Storage is sparse-delta: the smoothed and latest estimates live in
// SparseDemand (CSR over the union of observed supports) instead of two
// dense N^2 matrices. An epoch touches the demand once per copy: the
// observation is normalized into a CSR (an array copy when it is one
// already, as the fault model's noisy overlay is), and the EWMA update
// blends the two CSRs into the next one (SparseDemand::blend), evaluating
// keep * s + add * o per union entry — bit-identical to the dense per-cell
// loop because absent entries contribute an exact 0.0.
#pragma once

#include <memory>
#include <optional>

#include "topo/clique.h"
#include "traffic/sparse_demand.h"

namespace sorn {

class TrafficEstimator {
 public:
  // alpha in (0, 1]: weight of the newest observation.
  explicit TrafficEstimator(NodeId nodes, double alpha = 0.3);

  // Feed one measurement epoch's observed demand (any backend).
  void observe(const DemandModel& epoch);

  bool has_estimate() const { return observations_ > 0; }
  std::uint64_t observations() const { return observations_; }

  // The smoothed demand estimate (normalized to unit peak node load).
  // All-zero until the first observation.
  const SparseDemand& estimate() const { return *smoothed_; }

  // The most recent (normalized) observation, un-smoothed.
  const SparseDemand& latest() const { return *latest_; }

  // Discard the smoothed history and restart from the latest observation.
  // Called after change-point detection: once the macro pattern has
  // shifted, the stale EWMA would otherwise bias the next plan toward the
  // dead pattern for several epochs.
  void reset_to_latest();

  // Locality ratio of the estimate under the given grouping.
  double locality(const CliqueAssignment& cliques) const;

  // Relative L1 change of the clique-level aggregate between the previous
  // and the latest observation: || agg_t - agg_{t-1} ||_1 / || agg_t ||_1.
  // Values near zero mean the macro pattern is stable. nullopt until two
  // observations have been made with set_reference_grouping() in effect.
  std::optional<double> macro_change() const { return macro_change_; }

  // The grouping against which macro_change() aggregates are computed.
  void set_reference_grouping(const CliqueAssignment& cliques);

  // Heap bytes held by the smoothed/latest estimates and the spare arrays
  // the next blend writes (profiler gauge).
  std::size_t memory_bytes() const {
    return smoothed_->memory_bytes() + latest_->memory_bytes() +
           (spare_ != nullptr ? spare_->memory_bytes() : 0);
  }

 private:
  NodeId nodes_;
  double alpha_;
  std::unique_ptr<SparseDemand> smoothed_;
  std::unique_ptr<SparseDemand> latest_;
  // The estimate the last blend replaced; the next blend writes into it.
  std::unique_ptr<SparseDemand> spare_;
  std::uint64_t observations_ = 0;
  std::optional<CliqueAssignment> reference_;
  std::vector<double> last_aggregate_;
  std::optional<double> macro_change_;
};

}  // namespace sorn
