#include "traffic/sparse_demand.h"

#include <algorithm>

#include "util/assert.h"

namespace sorn {

// ---------------------------------------------------------------- Builder

SparseDemand::Builder::Builder(NodeId n)
    : row_buffer_(static_cast<std::size_t>(n), 0.0),
      out_(std::make_unique<SparseDemand>(n)) {}

void SparseDemand::Builder::set(NodeId src, NodeId dst, double rate) {
  SORN_ASSERT(rate >= 0.0, "demand must be nonnegative");
  SORN_ASSERT(src >= current_row_,
              "sparse builder rows must be written in nondecreasing order");
  while (current_row_ < src) flush_row();
  if (src != dst) row_buffer_[static_cast<std::size_t>(dst)] = rate;
}

void SparseDemand::Builder::flush_row() {
  for (NodeId j = 0; j < out_->n_; ++j) {
    double& v = row_buffer_[static_cast<std::size_t>(j)];
    out_->append(current_row_, j, v);
    v = 0.0;
  }
  ++current_row_;
}

std::unique_ptr<SparseDemand> SparseDemand::Builder::build(
    bool normalize_node_load) {
  while (current_row_ < out_->n_) flush_row();
  out_->close(normalize_node_load);
  return std::move(out_);
}

// ----------------------------------------------------------- construction

SparseDemand::SparseDemand(NodeId n)
    : n_(n),
      row_ptr_(static_cast<std::size_t>(n) + 1, 0),
      row_sums_(static_cast<std::size_t>(n), 0.0),
      col_sums_(static_cast<std::size_t>(n), 0.0) {
  SORN_ASSERT(n >= 1, "sparse demand needs at least one node");
}

void SparseDemand::append(NodeId src, NodeId dst, double rate) {
  if (rate == 0.0) return;
  SORN_ASSERT(rate > 0.0, "demand must be nonnegative");
  SORN_ASSERT(src != dst, "diagonal demand is invalid");
  cols_.push_back(dst);
  vals_.push_back(rate);
  ++row_ptr_[static_cast<std::size_t>(src) + 1];
  row_sums_[static_cast<std::size_t>(src)] += rate;
  col_sums_[static_cast<std::size_t>(dst)] += rate;
}

void SparseDemand::close(bool normalize_node_load) {
  for (NodeId i = 0; i < n_; ++i) {
    row_ptr_[static_cast<std::size_t>(i) + 1] +=
        row_ptr_[static_cast<std::size_t>(i)];
  }
  if (normalize_node_load) {
    // Replicate TrafficMatrix::normalize_node_load(1.0): the raw row folds
    // (columns ascending) and column folds (rows ascending, realized by
    // accumulating row-major) that append() took, their max across
    // nodes, then every stored value scaled by 1/load. Skipped zeros are
    // bit-exact no-ops in the dense folds, so these folds have the same
    // bits.
    const double load = max_node_load();
    if (load > 0.0) {
      const double factor = 1.0 / load;
      for (double& v : vals_) v *= factor;
    }
  }
  finalize();
}

std::unique_ptr<SparseDemand> SparseDemand::from_model(
    const DemandModel& model, bool normalize, const EntryMap& map) {
  auto out = std::make_unique<SparseDemand>(model.node_count());
  NodeId row = 0;
  NodeId col = kNoNode;  // the last visited entry
  model.for_each_nonzero([&](NodeId i, NodeId j, double d) {
    SORN_ASSERT(i > row || (i == row && j > col),
                "for_each_nonzero must visit rows ascending and columns "
                "strictly ascending within a row");
    row = i;
    col = j;
    out->append(i, j, map ? map(i, j, d) : d);
  });
  out->close(normalize);
  return out;
}

std::unique_ptr<SparseDemand> SparseDemand::blend(double keep,
                                                  const SparseDemand& a,
                                                  double add,
                                                  const SparseDemand& b) {
  SORN_ASSERT(a.n_ == b.n_, "blended matrices differ in size");
  auto out = std::make_unique<SparseDemand>(a.n_);
  // Equal supports, the steady state, fill this exactly.
  const std::size_t reserve = std::max(a.vals_.size(), b.vals_.size());
  out->cols_.reserve(reserve);
  out->vals_.reserve(reserve);
  for (NodeId i = 0; i < a.n_; ++i) {
    std::size_t p = a.row_ptr_[static_cast<std::size_t>(i)];
    std::size_t q = b.row_ptr_[static_cast<std::size_t>(i)];
    const std::size_t p_end = a.row_ptr_[static_cast<std::size_t>(i) + 1];
    const std::size_t q_end = b.row_ptr_[static_cast<std::size_t>(i) + 1];
    for (;;) {
      while (p < p_end && a.vals_[p] == 0.0) ++p;
      while (q < q_end && b.vals_[q] == 0.0) ++q;
      if (p == p_end && q == q_end) break;
      NodeId col;
      double av = 0.0;
      double bv = 0.0;
      if (q == q_end || (p < p_end && a.cols_[p] < b.cols_[q])) {
        col = a.cols_[p];
        av = a.vals_[p++];
      } else if (p == p_end || b.cols_[q] < a.cols_[p]) {
        col = b.cols_[q];
        bv = b.vals_[q++];
      } else {
        col = a.cols_[p];
        av = a.vals_[p++];
        bv = b.vals_[q++];
      }
      out->cols_.push_back(col);
      out->vals_.push_back(keep * av + add * bv);
    }
    out->row_ptr_[static_cast<std::size_t>(i) + 1] = out->cols_.size();
  }
  out->finalize();
  return out;
}

void SparseDemand::finalize() {
  row_sums_.assign(static_cast<std::size_t>(n_), 0.0);
  col_sums_.assign(static_cast<std::size_t>(n_), 0.0);
  double acc = 0.0;
  for (NodeId i = 0; i < n_; ++i) {
    double row_acc = 0.0;
    for (std::size_t m = row_ptr_[static_cast<std::size_t>(i)];
         m < row_ptr_[static_cast<std::size_t>(i) + 1]; ++m) {
      const double v = vals_[m];
      acc += v;
      row_acc += v;
      col_sums_[static_cast<std::size_t>(cols_[m])] += v;
    }
    row_sums_[static_cast<std::size_t>(i)] = row_acc;
  }
  total_ = acc;
}

void SparseDemand::ensure_cdfs() const {
  if (pair_cdf_.size() == vals_.size()) return;
  // The same two folds finalize() takes for total_ and row_sums_, kept
  // entry by entry.
  pair_cdf_.resize(vals_.size());
  row_cdf_.resize(vals_.size());
  double acc = 0.0;
  for (NodeId i = 0; i < n_; ++i) {
    double row_acc = 0.0;
    for (std::size_t m = row_ptr_[static_cast<std::size_t>(i)];
         m < row_ptr_[static_cast<std::size_t>(i) + 1]; ++m) {
      acc += vals_[m];
      pair_cdf_[m] = acc;
      row_acc += vals_[m];
      row_cdf_[m] = row_acc;
    }
  }
}

// ---------------------------------------------------------------- queries

double SparseDemand::at(NodeId src, NodeId dst) const {
  const auto begin = cols_.begin() +
                     static_cast<std::ptrdiff_t>(
                         row_ptr_[static_cast<std::size_t>(src)]);
  const auto end = cols_.begin() +
                   static_cast<std::ptrdiff_t>(
                       row_ptr_[static_cast<std::size_t>(src) + 1]);
  const auto it = std::lower_bound(begin, end, dst);
  if (it == end || *it != dst) return 0.0;
  return vals_[static_cast<std::size_t>(it - cols_.begin())];
}

void SparseDemand::for_each_nonzero(const NonzeroVisitor& visit) const {
  for (NodeId i = 0; i < n_; ++i) {
    for (std::size_t m = row_ptr_[static_cast<std::size_t>(i)];
         m < row_ptr_[static_cast<std::size_t>(i) + 1]; ++m) {
      if (vals_[m] != 0.0) visit(i, cols_[m], vals_[m]);
    }
  }
}

double SparseDemand::locality_ratio(const CliqueAssignment& cliques) const {
  SORN_ASSERT(cliques.node_count() == n_, "assignment size mismatch");
  // The generic fold over the stored entries; a stored 0.0 adds nothing.
  double intra = 0.0;
  double all = 0.0;
  for (NodeId i = 0; i < n_; ++i) {
    const CliqueId ci = cliques.clique_of(i);
    for (std::size_t m = row_ptr_[static_cast<std::size_t>(i)];
         m < row_ptr_[static_cast<std::size_t>(i) + 1]; ++m) {
      all += vals_[m];
      if (cliques.clique_of(cols_[m]) == ci) intra += vals_[m];
    }
  }
  return all > 0.0 ? intra / all : 0.0;
}

std::vector<double> SparseDemand::aggregate(
    const CliqueAssignment& cliques) const {
  SORN_ASSERT(cliques.node_count() == n_, "assignment size mismatch");
  const auto nc = static_cast<std::size_t>(cliques.clique_count());
  std::vector<double> agg(nc * nc, 0.0);
  for (NodeId i = 0; i < n_; ++i) {
    double* row =
        agg.data() + static_cast<std::size_t>(cliques.clique_of(i)) * nc;
    for (std::size_t m = row_ptr_[static_cast<std::size_t>(i)];
         m < row_ptr_[static_cast<std::size_t>(i) + 1]; ++m) {
      row[static_cast<std::size_t>(cliques.clique_of(cols_[m]))] += vals_[m];
    }
  }
  return agg;
}

double SparseDemand::max_node_load() const {
  double worst = 0.0;
  for (NodeId i = 0; i < n_; ++i) {
    worst = std::max({worst, row_sums_[static_cast<std::size_t>(i)],
                      col_sums_[static_cast<std::size_t>(i)]});
  }
  return worst;
}

std::pair<NodeId, NodeId> SparseDemand::sample_pair(Rng& rng) const {
  SORN_ASSERT(total_ > 0.0, "cannot sample from an empty matrix");
  ensure_cdfs();
  const double u = rng.next_double() * total_;
  const auto it = std::upper_bound(pair_cdf_.begin(), pair_cdf_.end(), u);
  if (it == pair_cdf_.end()) {
    // Dense clamp: u >= total lands on the last linear index (n-1, n-1).
    return {n_ - 1, n_ - 1};
  }
  const auto m = static_cast<std::size_t>(it - pair_cdf_.begin());
  const auto row_it =
      std::upper_bound(row_ptr_.begin(), row_ptr_.end(), m);
  const auto row = static_cast<NodeId>(row_it - row_ptr_.begin() - 1);
  return {row, cols_[m]};
}

NodeId SparseDemand::sample_dst(NodeId src, Rng& rng) const {
  ensure_cdfs();
  const double row_total = row_sums_[static_cast<std::size_t>(src)];
  const double u = rng.next_double() * row_total;
  const auto begin = row_cdf_.begin() +
                     static_cast<std::ptrdiff_t>(
                         row_ptr_[static_cast<std::size_t>(src)]);
  const auto end = row_cdf_.begin() +
                   static_cast<std::ptrdiff_t>(
                       row_ptr_[static_cast<std::size_t>(src) + 1]);
  const auto it = std::upper_bound(begin, end, u);
  if (it == end) return n_ - 1;  // dense clamp: column n-1
  return cols_[static_cast<std::size_t>(it - row_cdf_.begin())];
}

std::unique_ptr<DemandModel> SparseDemand::clone() const {
  return std::unique_ptr<SparseDemand>(new SparseDemand(*this));
}

std::size_t SparseDemand::memory_bytes() const {
  return row_ptr_.capacity() * sizeof(std::size_t) +
         cols_.capacity() * sizeof(NodeId) +
         (vals_.capacity() + row_sums_.capacity() + col_sums_.capacity() +
          pair_cdf_.capacity() + row_cdf_.capacity()) *
             sizeof(double);
}

}  // namespace sorn
