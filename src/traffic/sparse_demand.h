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
// finalized once (twice when a visit copy is normalized: the raw folds set
// the scale). from_model() appends each entry of a model's row-major
// for_each_nonzero visit (the noise overlay of the configured demand), or
// copies a CSR source array by array (the estimator's normalized copy and
// reset); without_nodes() is the failure mask's array pass; blend() merges
// two CSRs row by row (the estimator's EWMA), or adds them elementwise
// when their supports are equal; and Builder serves the pattern
// generators, whose rows set columns out of order.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "traffic/demand_model.h"
#include "util/assert.h"

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

  // from_model() and blend() take `reuse`: a matrix the caller is done
  // with, whose arrays they overwrite (keeping their capacity) instead of
  // allocating fresh ones. The control loop passes the matrix each result
  // replaces, so a steady epoch allocates nothing.

  // Copy any model into CSR straight from its for_each_nonzero visit,
  // whose row-major order (rows ascending, columns strictly ascending) is
  // asserted. Exact zeros are dropped, as the Builder drops them. With
  // normalize true the copy is scaled to unit peak node load exactly as
  // Builder::build(true) scales: by 1 / the largest raw row or column
  // fold. A SparseDemand source is copied array by array instead of
  // visited: its stored entries less any stored 0.0 are the visited ones,
  // and its own finalize() folds, which the scale then reads, are the
  // folds of the copy (a skipped 0.0 adds nothing), so both paths store
  // the same bits.
  static std::unique_ptr<SparseDemand> from_model(
      const DemandModel& model, bool normalize = false,
      std::unique_ptr<SparseDemand> reuse = nullptr);

  // As above, always through the visit, with every visited value
  // rewritten once by map(src, dst, rate), in visit order, before it is
  // stored. The map is inlined into the visit's one per-entry call.
  template <typename Map>
  static std::unique_ptr<SparseDemand> from_model(
      const DemandModel& model, bool normalize, Map map,
      std::unique_ptr<SparseDemand> reuse = nullptr);

  // A copy without the stored 0.0 entries and without every entry whose
  // row or column node is flagged in `dropped` (size node_count()): the
  // visit copy whose map zeroes those entries, in one pass over the arrays.
  std::unique_ptr<SparseDemand> without_nodes(
      const std::vector<std::uint8_t>& dropped) const;

  // keep * a + add * b over the union of the two supports: the estimator's
  // EWMA. An entry absent from one side, or stored there as 0.0 (which
  // for_each_nonzero skips), counts as an exact 0.0, so every union entry
  // has the dense per-cell value bit for bit. A union entry whose value
  // rounds to 0.0 is still stored. Supports that are equal with no stored
  // 0.0 on either side (the steady state) are added elementwise, the
  // same expression on the same entries; any other pair is merged row by
  // row.
  static std::unique_ptr<SparseDemand> blend(
      double keep, const SparseDemand& a, double add, const SparseDemand& b,
      std::unique_ptr<SparseDemand> reuse = nullptr);

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
  // callback per entry. locality_ratios folds the arrays once for up to
  // eight assignments.
  double locality_ratio(const CliqueAssignment& cliques) const override;
  std::vector<double> locality_ratios(
      const std::vector<const CliqueAssignment*>& cliques) const override;
  std::vector<double> aggregate(
      const CliqueAssignment& cliques) const override;

  std::pair<NodeId, NodeId> sample_pair(Rng& rng) const override;
  NodeId sample_dst(NodeId src, Rng& rng) const override;

  std::unique_ptr<DemandModel> clone() const override;
  std::size_t memory_bytes() const override;
  DemandBackend backend() const override { return DemandBackend::kSparse; }

  // Stored entries, counting any exact 0.0 a blend() stored.
  std::size_t nonzero_count() const { return vals_.size(); }

  // visit(src, dst, rate) for every stored entry in row-major order, any
  // stored 0.0 included, with the visitor inlined: for folds to which an
  // exact 0.0 adds nothing.
  template <typename Visit>
  void for_each_stored(Visit&& visit) const {
    for (NodeId i = 0; i < n_; ++i) {
      for (std::size_t m = row_ptr_[static_cast<std::size_t>(i)];
           m < row_ptr_[static_cast<std::size_t>(i) + 1]; ++m) {
        visit(i, cols_[m], vals_[m]);
      }
    }
  }

 private:
  // Row-major writing into a fresh all-zero matrix: append() one entry
  // (rows ascending, columns strictly ascending within a row; exact zeros
  // are dropped), then close() once.
  void append(NodeId src, NodeId dst, double rate) {
    if (rate == 0.0) return;
    SORN_ASSERT(rate > 0.0, "demand must be nonnegative");
    SORN_ASSERT(src != dst, "diagonal demand is invalid");
    cols_.push_back(dst);
    vals_.push_back(rate);
    ++row_ptr_[static_cast<std::size_t>(src) + 1];
  }
  // Turn the per-row counts into row offsets and finalize(); to normalize,
  // scale every value by 1 / max_node_load() of those folds (the raw
  // folds) and finalize() again.
  void close(bool normalize_node_load);
  // The all-zero n x n matrix, in `reuse`'s arrays when it has n nodes and
  // is neither source of the call (a source is left to `reuse`, which the
  // caller holds until its copy is done).
  static std::unique_ptr<SparseDemand> blank(
      NodeId n, std::unique_ptr<SparseDemand>& reuse,
      const DemandModel* source, const DemandModel* other = nullptr);
  // src's entries less its stored 0.0 entries and those whose row or
  // column is flagged in `dropped` (nullptr: none), each value times
  // `factor`, finalized.
  static std::unique_ptr<SparseDemand> copy_of(
      const SparseDemand& src, const std::uint8_t* dropped, double factor,
      std::unique_ptr<SparseDemand> reuse);
  // The factor that scales a matrix with these row and column folds to
  // unit peak node load (1 for an all-zero one).
  double unit_load_factor() const;

  // Recompute the row/col sums, the total and stored_zero_ from row_ptr_,
  // cols_, vals_ (called once per matrix written).
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
  // vals_ holds an exact 0.0 (a blend() may store one).
  bool stored_zero_ = false;
};

template <typename Map>
std::unique_ptr<SparseDemand> SparseDemand::from_model(
    const DemandModel& model, bool normalize, Map map,
    std::unique_ptr<SparseDemand> reuse) {
  auto out = blank(model.node_count(), reuse, &model);
  if (const auto* csr = dynamic_cast<const SparseDemand*>(&model)) {
    out->cols_.reserve(csr->vals_.size());
    out->vals_.reserve(csr->vals_.size());
  }
  NodeId row = 0;
  NodeId col = kNoNode;  // the last visited entry
  SparseDemand& sink = *out;
  model.for_each_nonzero([&](NodeId i, NodeId j, double d) {
    SORN_ASSERT(i > row || (i == row && j > col),
                "for_each_nonzero must visit rows ascending and columns "
                "strictly ascending within a row");
    row = i;
    col = j;
    sink.append(i, j, map(i, j, d));
  });
  out->close(normalize);
  return out;
}

}  // namespace sorn
