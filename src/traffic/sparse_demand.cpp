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

void SparseDemand::close(bool normalize_node_load) {
  for (NodeId i = 0; i < n_; ++i) {
    row_ptr_[static_cast<std::size_t>(i) + 1] +=
        row_ptr_[static_cast<std::size_t>(i)];
  }
  finalize();
  if (normalize_node_load) {
    // Replicate TrafficMatrix::normalize_node_load(1.0): the raw row folds
    // (columns ascending) and column folds (rows ascending, realized by
    // accumulating row-major) that finalize() just took, their max across
    // nodes, then every stored value scaled by 1/load. Skipped zeros are
    // bit-exact no-ops in the dense folds, so these folds have the same
    // bits.
    const double factor = unit_load_factor();
    if (factor != 1.0) {
      for (double& v : vals_) v *= factor;
      finalize();
    }
  }
}

double SparseDemand::unit_load_factor() const {
  const double load = max_node_load();
  return load > 0.0 ? 1.0 / load : 1.0;
}

std::unique_ptr<SparseDemand> SparseDemand::blank(
    NodeId n, std::unique_ptr<SparseDemand>& reuse, const DemandModel* source,
    const DemandModel* other) {
  if (reuse == nullptr || reuse->n_ != n || reuse.get() == source ||
      reuse.get() == other)
    return std::make_unique<SparseDemand>(n);
  auto out = std::move(reuse);
  out->row_ptr_.assign(static_cast<std::size_t>(n) + 1, 0);
  out->cols_.clear();
  out->vals_.clear();
  out->pair_cdf_.clear();
  out->row_cdf_.clear();
  return out;
}

std::unique_ptr<SparseDemand> SparseDemand::from_model(
    const DemandModel& model, bool normalize,
    std::unique_ptr<SparseDemand> reuse) {
  if (const auto* csr = dynamic_cast<const SparseDemand*>(&model)) {
    return copy_of(*csr, nullptr, normalize ? csr->unit_load_factor() : 1.0,
                   std::move(reuse));
  }
  return from_model(
      model, normalize, [](NodeId, NodeId, double d) { return d; },
      std::move(reuse));
}

std::unique_ptr<SparseDemand> SparseDemand::without_nodes(
    const std::vector<std::uint8_t>& dropped) const {
  SORN_ASSERT(dropped.size() == static_cast<std::size_t>(n_),
              "one flag per node");
  return copy_of(*this, dropped.data(), 1.0, nullptr);
}

std::unique_ptr<SparseDemand> SparseDemand::copy_of(
    const SparseDemand& src, const std::uint8_t* dropped, double factor,
    std::unique_ptr<SparseDemand> reuse) {
  auto out = blank(src.n_, reuse, &src);
  if (dropped == nullptr && !src.stored_zero_) {
    // Every stored entry is kept: plain array copies.
    out->row_ptr_ = src.row_ptr_;
    out->cols_ = src.cols_;
    out->vals_.resize(src.vals_.size());
    for (std::size_t m = 0; m < src.vals_.size(); ++m)
      out->vals_[m] = src.vals_[m] * factor;
  } else {
    out->cols_.resize(src.vals_.size());
    out->vals_.resize(src.vals_.size());
    auto is_dropped = [dropped](NodeId node) {
      return dropped != nullptr && dropped[static_cast<std::size_t>(node)] != 0;
    };
    std::size_t k = 0;
    for (NodeId i = 0; i < src.n_; ++i) {
      if (!is_dropped(i)) {
        for (std::size_t m = src.row_ptr_[static_cast<std::size_t>(i)];
             m < src.row_ptr_[static_cast<std::size_t>(i) + 1]; ++m) {
          if (src.vals_[m] == 0.0 || is_dropped(src.cols_[m])) continue;
          out->cols_[k] = src.cols_[m];
          out->vals_[k] = src.vals_[m] * factor;
          ++k;
        }
      }
      out->row_ptr_[static_cast<std::size_t>(i) + 1] = k;
    }
    out->cols_.resize(k);
    out->vals_.resize(k);
  }
  out->finalize();
  return out;
}

std::unique_ptr<SparseDemand> SparseDemand::blend(
    double keep, const SparseDemand& a, double add, const SparseDemand& b,
    std::unique_ptr<SparseDemand> reuse) {
  SORN_ASSERT(a.n_ == b.n_, "blended matrices differ in size");
  auto out = blank(a.n_, reuse, &a, &b);
  if (!a.stored_zero_ && !b.stored_zero_ && a.row_ptr_ == b.row_ptr_ &&
      a.cols_ == b.cols_) {
    // Equal supports, the steady state: the merge below would pair every
    // entry with its twin and skip none.
    out->row_ptr_ = a.row_ptr_;
    out->cols_ = a.cols_;
    out->vals_.resize(a.vals_.size());
    for (std::size_t m = 0; m < a.vals_.size(); ++m)
      out->vals_[m] = keep * a.vals_[m] + add * b.vals_[m];
    out->finalize();
    return out;
  }
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
  bool zero = false;
  for (NodeId i = 0; i < n_; ++i) {
    double row_acc = 0.0;
    for (std::size_t m = row_ptr_[static_cast<std::size_t>(i)];
         m < row_ptr_[static_cast<std::size_t>(i) + 1]; ++m) {
      const double v = vals_[m];
      acc += v;
      row_acc += v;
      col_sums_[static_cast<std::size_t>(cols_[m])] += v;
      zero |= v == 0.0;
    }
    row_sums_[static_cast<std::size_t>(i)] = row_acc;
  }
  total_ = acc;
  stored_zero_ = zero;
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
  // Its fold of every entry is finalize()'s total_.
  double intra = 0.0;
  for (NodeId i = 0; i < n_; ++i) {
    const CliqueId ci = cliques.clique_of(i);
    for (std::size_t m = row_ptr_[static_cast<std::size_t>(i)];
         m < row_ptr_[static_cast<std::size_t>(i) + 1]; ++m) {
      if (cliques.clique_of(cols_[m]) == ci) intra += vals_[m];
    }
  }
  return total_ > 0.0 ? intra / total_ : 0.0;
}

std::vector<double> SparseDemand::locality_ratios(
    const std::vector<const CliqueAssignment*>& cliques) const {
  // One pass per block of up to kBlock assignments (one pass for the
  // optimizer's five candidates), with the block's accumulators in
  // registers. Node-major clique ids, so an entry reads each endpoint's
  // ids from one place. A block's unused accumulators fold padding and
  // are never read.
  constexpr std::size_t kBlock = 8;
  std::vector<double> ratios;
  ratios.reserve(cliques.size());
  std::vector<CliqueId> of(static_cast<std::size_t>(n_) * kBlock, 0);
  for (std::size_t first = 0; first < cliques.size(); first += kBlock) {
    const std::size_t k = std::min(kBlock, cliques.size() - first);
    for (std::size_t c = 0; c < k; ++c) {
      const CliqueAssignment& a = *cliques[first + c];
      SORN_ASSERT(a.node_count() == n_, "assignment size mismatch");
      for (NodeId i = 0; i < n_; ++i)
        of[static_cast<std::size_t>(i) * kBlock + c] = a.clique_of(i);
    }
    // Each accumulator takes the entries locality_ratio adds, in its
    // order; an entry across cliques adds +0.0, which leaves every value
    // but -0.0 unchanged, and a sum that starts at +0.0 is never -0.0.
    double intra[kBlock] = {};
    for (NodeId i = 0; i < n_; ++i) {
      const CliqueId* row = of.data() + static_cast<std::size_t>(i) * kBlock;
      for (std::size_t m = row_ptr_[static_cast<std::size_t>(i)];
           m < row_ptr_[static_cast<std::size_t>(i) + 1]; ++m) {
        const CliqueId* col =
            of.data() + static_cast<std::size_t>(cols_[m]) * kBlock;
        const double v = vals_[m];
        for (std::size_t c = 0; c < kBlock; ++c)
          intra[c] += row[c] == col[c] ? v : 0.0;
      }
    }
    for (std::size_t c = 0; c < k; ++c)
      ratios.push_back(total_ > 0.0 ? intra[c] / total_ : 0.0);
  }
  return ratios;
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
