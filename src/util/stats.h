// Streaming and batch statistics for experiment metrics.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace sorn {

// Welford's online mean/variance plus min/max; O(1) memory.
class RunningStats {
 public:
  void add(double x);

  std::size_t count() const { return n_; }
  double mean() const;
  double variance() const;  // Sample variance; 0 when fewer than 2 samples.
  double stddev() const;
  double min() const;       // +inf when empty.
  double max() const;       // -inf when empty.
  double sum() const { return sum_; }

 private:
  std::size_t n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
  double sum_ = 0.0;
};

// Batch percentile computation. Keeps all samples; suited to FCT/latency
// distributions of bounded experiment size.
class Percentiles {
 public:
  void add(double x) {
    samples_.push_back(x);
    sorted_ = false;
  }
  void reserve(std::size_t n) { samples_.reserve(n); }

  std::size_t count() const { return samples_.size(); }

  // Linear-interpolated percentile, p in [0, 100]. Empty -> 0.
  double percentile(double p) const;
  double median() const { return percentile(50.0); }
  double mean() const;

  // The samples in ascending order (sorts lazily, like percentile()).
  const std::vector<double>& sorted() const;

 private:
  mutable std::vector<double> samples_;
  mutable bool sorted_ = false;
};

// Fixed-bin histogram over [lo, hi); values outside are clamped to the
// first/last bin so totals are conserved.
class Histogram {
 public:
  Histogram(double lo, double hi, std::size_t bins);

  void add(double x, std::uint64_t weight = 1);
  std::uint64_t bin_count(std::size_t i) const { return counts_[i]; }
  std::size_t bins() const { return counts_.size(); }
  double bin_low(std::size_t i) const;
  std::uint64_t total() const { return total_; }

 private:
  double lo_;
  double hi_;
  std::vector<std::uint64_t> counts_;
  std::uint64_t total_ = 0;
};

}  // namespace sorn
