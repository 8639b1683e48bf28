#include "util/stats.h"

#include <gtest/gtest.h>

#include <limits>
#include <vector>

namespace sorn {
namespace {

TEST(RunningStatsTest, EmptyDefaults) {
  RunningStats s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_DOUBLE_EQ(s.mean(), 0.0);
  EXPECT_DOUBLE_EQ(s.variance(), 0.0);
}

TEST(RunningStatsTest, EmptyExtremaAreInfinitiesAsDocumented) {
  // stats.h documents min() -> +inf and max() -> -inf on the empty
  // object (the identity elements of min/max); lock the behavior in.
  RunningStats s;
  EXPECT_EQ(s.min(), std::numeric_limits<double>::infinity());
  EXPECT_EQ(s.max(), -std::numeric_limits<double>::infinity());
  // The first sample replaces both extrema, even when negative.
  s.add(-3.0);
  EXPECT_DOUBLE_EQ(s.min(), -3.0);
  EXPECT_DOUBLE_EQ(s.max(), -3.0);
}

TEST(RunningStatsTest, KnownValues) {
  RunningStats s;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(x);
  EXPECT_EQ(s.count(), 8u);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_NEAR(s.variance(), 32.0 / 7.0, 1e-12);  // sample variance
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
  EXPECT_DOUBLE_EQ(s.sum(), 40.0);
}

TEST(RunningStatsTest, SingleSampleHasZeroVariance) {
  RunningStats s;
  s.add(42.0);
  EXPECT_DOUBLE_EQ(s.variance(), 0.0);
  EXPECT_DOUBLE_EQ(s.mean(), 42.0);
}

TEST(PercentilesTest, EmptyIsAllZeros) {
  // stats.h documents percentile() -> 0 on the empty set; the profiler's
  // phase export relies on it (phases that never ran serialize as zeroed
  // percentile blocks, not NaNs). Lock the whole empty surface in.
  Percentiles p;
  EXPECT_EQ(p.count(), 0u);
  EXPECT_DOUBLE_EQ(p.percentile(0.0), 0.0);
  EXPECT_DOUBLE_EQ(p.percentile(50.0), 0.0);
  EXPECT_DOUBLE_EQ(p.percentile(100.0), 0.0);
  EXPECT_DOUBLE_EQ(p.mean(), 0.0);
}

TEST(PercentilesTest, MedianOfOddCount) {
  Percentiles p;
  for (double x : {5.0, 1.0, 3.0}) p.add(x);
  EXPECT_DOUBLE_EQ(p.median(), 3.0);
}

TEST(PercentilesTest, InterpolatesBetweenSamples) {
  Percentiles p;
  for (double x : {0.0, 10.0}) p.add(x);
  EXPECT_DOUBLE_EQ(p.percentile(50.0), 5.0);
  EXPECT_DOUBLE_EQ(p.percentile(0.0), 0.0);
  EXPECT_DOUBLE_EQ(p.percentile(100.0), 10.0);
}

TEST(PercentilesTest, TailPercentile) {
  Percentiles p;
  for (int i = 1; i <= 100; ++i) p.add(static_cast<double>(i));
  EXPECT_NEAR(p.percentile(99.0), 99.01, 0.011);
  EXPECT_DOUBLE_EQ(p.mean(), 50.5);
}

TEST(PercentilesTest, SortedSamplesAccessor) {
  Percentiles p;
  for (double x : {3.0, 1.0, 2.0}) p.add(x);
  EXPECT_EQ(p.sorted(), (std::vector<double>{1.0, 2.0, 3.0}));
}

TEST(PercentilesTest, AddAfterQueryStaysConsistent) {
  Percentiles p;
  p.add(1.0);
  p.add(3.0);
  EXPECT_DOUBLE_EQ(p.median(), 2.0);
  // A late sample below the median must be sorted in before the next
  // query; a new maximum would pass even without the re-sort.
  p.add(0.0);
  EXPECT_DOUBLE_EQ(p.median(), 1.0);
  p.add(100.0);
  EXPECT_DOUBLE_EQ(p.median(), 2.0);
  EXPECT_EQ(p.sorted(), (std::vector<double>{0.0, 1.0, 3.0, 100.0}));
}

TEST(HistogramTest, BinsAndClamping) {
  Histogram h(0.0, 10.0, 5);
  h.add(-1.0);       // clamps to first bin
  h.add(0.5);
  h.add(9.9);
  h.add(100.0);      // clamps to last bin
  EXPECT_EQ(h.bin_count(0), 2u);
  EXPECT_EQ(h.bin_count(4), 2u);
  EXPECT_EQ(h.total(), 4u);
  EXPECT_DOUBLE_EQ(h.bin_low(0), 0.0);
  EXPECT_DOUBLE_EQ(h.bin_low(4), 8.0);
}

TEST(HistogramTest, WeightedAdd) {
  Histogram h(0.0, 1.0, 2);
  h.add(0.1, 7);
  EXPECT_EQ(h.bin_count(0), 7u);
  EXPECT_EQ(h.total(), 7u);
}

}  // namespace
}  // namespace sorn
