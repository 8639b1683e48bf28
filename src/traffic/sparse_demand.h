// SparseDemand: CSR demand backend with O(nnz) statistics and sampling.
//
// Stores only the nonzero entries, row-major with columns ascending, the
// row and column sums, and — built on the first sample_pair/sample_dst,
// since the control loop's copies are never sampled — two prefix-sum
// arrays over the nonzeros:
//
//   pair_cdf_  one continuous fold across the whole matrix (the dense
//              sample_pair CDF restricted to its increase points), and
//   row_cdf_   per-row folds restarting at zero (the dense per-row
//              sample_dst CDFs restricted to their increase points).
//
// Byte-identity with the dense backend falls out of fold-order
// preservation: every statistic folds the same nonzero values in the same
// order the dense loops visit them, and skipping the exact-0.0 entries is
// a bit-exact no-op. Sampling identity: std::upper_bound on a dense CDF
// can only land on an index where the CDF strictly increased — a nonzero
// entry — except the u >= total clamp, which both backends map to the last
// linear index (n-1, n-1) / column n-1 explicitly.
//
// Every matrix is written row-major straight into the CSR arrays and
// finalized once. from_model() appends each entry of a model's row-major
// for_each_nonzero visit (the control loop's copies, noise overlays and
// failure masks), blend() merges two CSRs row by row (the estimator's
// EWMA), and Builder serves the pattern generators, whose rows set
// columns out of order.
#pragma once

#include <cstddef>
#include <functional>
#include <memory>
#include <vector>

#include "traffic/demand_model.h"

namespace sorn {

class SparseDemand : public DemandModel {
 public:
  // Row-major construction sink for the pattern generators: set() rows in
  // nondecreasing row order (any column order within a row; a dense
  // N-sized row buffer absorbs the order), then build(). With normalize
  // true the build replicates TrafficMatrix::normalize_node_load(1.0)
  // bit-for-bit (raw folds including zeros, factor = 1/max_node_load,
  // each stored value = raw * factor).
  class Builder {
   public:
    explicit Builder(NodeId n);
    void set(NodeId src, NodeId dst, double rate);
    std::unique_ptr<SparseDemand> build(bool normalize_node_load);

   private:
    void flush_row();

    NodeId current_row_ = 0;
    std::vector<double> row_buffer_;
    std::unique_ptr<SparseDemand> out_;
  };

  // Maps one visited entry (src, dst, rate) to the value to store.
  using EntryMap = std::function<double(NodeId, NodeId, double)>;

  // Copy any model into CSR straight from its for_each_nonzero visit,
  // whose row-major order (rows ascending, columns strictly ascending) is
  // asserted. `map`, when set, rewrites each visited value once, in visit
  // order, before it is stored. Exact zeros are dropped, as the Builder
  // drops them. With normalize true the copy is scaled to unit peak node
  // load exactly as Builder::build(true) scales, from the raw row and
  // column folds taken during the visit.
  static std::unique_ptr<SparseDemand> from_model(const DemandModel& model,
                                                  bool normalize = false,
                                                  const EntryMap& map = {});

  // keep * a + add * b over the union of the two supports, merged row by
  // row: the estimator's EWMA. An entry absent from one side, or stored
  // there as 0.0 (which for_each_nonzero skips), counts as an exact 0.0,
  // so every union entry has the dense per-cell value bit for bit. A
  // union entry whose value rounds to 0.0 is still stored.
  static std::unique_ptr<SparseDemand> blend(double keep,
                                             const SparseDemand& a,
                                             double add,
                                             const SparseDemand& b);

  // The all-zero n x n matrix.
  explicit SparseDemand(NodeId n);

  NodeId node_count() const override { return n_; }
  double at(NodeId src, NodeId dst) const override;
  void for_each_nonzero(const NonzeroVisitor& visit) const override;

  double total() const override { return total_; }
  double row_sum(NodeId src) const override {
    return row_sums_[static_cast<std::size_t>(src)];
  }
  double col_sum(NodeId dst) const override {
    return col_sums_[static_cast<std::size_t>(dst)];
  }
  double max_node_load() const override;

  // The generic folds, looping over the stored arrays instead of a
  // callback per entry.
  double locality_ratio(const CliqueAssignment& cliques) const override;
  std::vector<double> aggregate(
      const CliqueAssignment& cliques) const override;

  std::pair<NodeId, NodeId> sample_pair(Rng& rng) const override;
  NodeId sample_dst(NodeId src, Rng& rng) const override;

  std::unique_ptr<DemandModel> clone() const override;
  std::size_t memory_bytes() const override;
  DemandBackend backend() const override { return DemandBackend::kSparse; }

  // Stored entries, counting any exact 0.0 a blend() stored.
  std::size_t nonzero_count() const { return vals_.size(); }

 private:
  // Row-major writing into a fresh all-zero matrix: append() one entry
  // (rows ascending, columns strictly ascending within a row; exact zeros
  // are dropped), folding its raw value into row_sums_ and col_sums_;
  // then close() once.
  void append(NodeId src, NodeId dst, double rate);
  // Turn the per-row counts into row offsets, scale to unit peak node
  // load when asked (factor 1 / the largest raw row or column fold), and
  // finalize().
  void close(bool normalize_node_load);

  // Recompute the row/col sums and the total from row_ptr_, cols_, vals_
  // (called once per matrix written).
  void finalize();
  // Build pair_cdf_ and row_cdf_ if they are not built yet.
  void ensure_cdfs() const;

  NodeId n_ = 1;
  std::vector<std::size_t> row_ptr_;  // n_ + 1
  std::vector<NodeId> cols_;
  std::vector<double> vals_;
  std::vector<double> row_sums_;
  std::vector<double> col_sums_;
  // Sampling caches, aligned with vals_ once built (empty until then).
  mutable std::vector<double> pair_cdf_;  // continuous fold
  mutable std::vector<double> row_cdf_;   // per-row folds
  double total_ = 0.0;
};

}  // namespace sorn
