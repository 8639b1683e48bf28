#include "util/upper_bound.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <limits>
#include <vector>

#include "topo/clique.h"
#include "traffic/patterns.h"
#include "util/rng.h"

namespace sorn {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

// upper_bound_index must land where std::upper_bound does for `value`.
void expect_same(const std::vector<double>& a, double value) {
  const auto want = static_cast<std::size_t>(
      std::upper_bound(a.begin(), a.end(), value) - a.begin());
  EXPECT_EQ(upper_bound_index(a.data(), a.size(), value), want)
      << "value " << value << " over " << a.size() << " elements";
}

// Every element, both its nextafter neighbours, and values past both
// ends.
void expect_same_everywhere(const std::vector<double>& a) {
  for (const double v : a) {
    expect_same(a, v);
    expect_same(a, std::nextafter(v, -kInf));
    expect_same(a, std::nextafter(v, kInf));
  }
  for (const double v : {-kInf, std::numeric_limits<double>::lowest(), -1.0,
                         0.0, 1e300, std::numeric_limits<double>::max(),
                         kInf, std::numeric_limits<double>::quiet_NaN()})
    expect_same(a, v);
}

TEST(UpperBoundTest, ShortArraysMatchStdUpperBound) {
  // Lengths 0 to 3, distinct and equal values.
  expect_same_everywhere({});
  expect_same_everywhere({0.5});
  expect_same_everywhere({0.5, 0.75});
  expect_same_everywhere({0.5, 0.5});
  expect_same_everywhere({0.25, 0.5, 0.75});
  expect_same_everywhere({0.25, 0.25, 0.75});
  expect_same_everywhere({0.25, 0.75, 0.75});
  expect_same_everywhere({0.75, 0.75, 0.75});
}

TEST(UpperBoundTest, RunsOfEqualValuesMatchAtOddAndEvenLengths) {
  // Every length from 1 to 40 (odd and even), built of runs of equal
  // values whose lengths cycle through 1, 2, 3 and 5, so equal values
  // straddle every halving point somewhere.
  const int run_lengths[] = {1, 2, 3, 5};
  for (std::size_t n = 1; n <= 40; ++n) {
    std::vector<double> a;
    double value = -2.0;
    for (int r = 0; a.size() < n; ++r) {
      for (int k = 0; k < run_lengths[r % 4] && a.size() < n; ++k)
        a.push_back(value);
      value += 0.375;
    }
    expect_same_everywhere(a);
    // One constant run over the whole array.
    expect_same_everywhere(std::vector<double>(n, 1.0 / 3.0));
  }
}

TEST(UpperBoundTest, DemandPrefixDrawsMatchStdUpperBound) {
  // The array sample_dst searches: a class's diagonal-less prefix, two
  // long constant runs of rounded partial sums (N = 512, 16 cliques,
  // x = 0.6), probed at seeded draws and at every element.
  const auto demand = patterns::make_locality_mix(
      CliqueAssignment::contiguous(512, 16), 0.6, DemandBackend::kDense);
  std::vector<double> prefix;
  double acc = 0.0;
  for (NodeId j = 0; j < 512; ++j) {
    if (j == 40) continue;  // row 40's own diagonal
    acc += demand->at(40, j);
    prefix.push_back(acc);
  }
  ASSERT_EQ(prefix.size(), 511u);
  expect_same_everywhere(prefix);
  Rng rng(5);
  for (int draw = 0; draw < 20000; ++draw)
    expect_same(prefix, rng.next_double() * prefix.back());
}

}  // namespace
}  // namespace sorn
