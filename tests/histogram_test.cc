#include "sim/histogram.h"

#include <gtest/gtest.h>

namespace bdisk::sim {
namespace {

TEST(HistogramTest, BucketsObservationsCorrectly) {
  Histogram h(0.0, 10.0, 5);  // Cells of width 2.
  h.Add(0.0);
  h.Add(1.9);
  h.Add(2.0);
  h.Add(9.99);
  EXPECT_EQ(h.Count(), 4U);
  EXPECT_EQ(h.BucketCount(0), 2U);
  EXPECT_EQ(h.BucketCount(1), 1U);
  EXPECT_EQ(h.BucketCount(4), 1U);
  EXPECT_EQ(h.Underflow(), 0U);
  EXPECT_EQ(h.Overflow(), 0U);
}

TEST(HistogramTest, UnderAndOverflow) {
  Histogram h(0.0, 10.0, 5);
  h.Add(-1.0);
  h.Add(10.0);  // hi is exclusive.
  h.Add(100.0);
  EXPECT_EQ(h.Underflow(), 1U);
  EXPECT_EQ(h.Overflow(), 2U);
  EXPECT_EQ(h.Count(), 3U);
}

TEST(HistogramTest, BucketLowEdges) {
  Histogram h(10.0, 20.0, 4);
  EXPECT_DOUBLE_EQ(h.BucketLow(0), 10.0);
  EXPECT_DOUBLE_EQ(h.BucketLow(1), 12.5);
  EXPECT_DOUBLE_EQ(h.BucketLow(3), 17.5);
}

TEST(HistogramTest, MedianOfUniformFill) {
  Histogram h(0.0, 100.0, 100);
  for (int i = 0; i < 100; ++i) h.Add(i + 0.5);
  EXPECT_NEAR(h.Quantile(0.5), 50.0, 1.5);
  EXPECT_NEAR(h.Quantile(0.9), 90.0, 1.5);
  EXPECT_NEAR(h.Quantile(0.1), 10.0, 1.5);
}

TEST(HistogramTest, QuantileInterpolatesExactlyAtBucketEdges) {
  // Two occupied buckets separated by an empty one: quantiles that land on
  // a cumulative-count boundary sit on the bucket edge, interior quantiles
  // interpolate linearly within the bucket, and the result never leaves the
  // observed [Min, Max] envelope.
  Histogram h(0.0, 10.0, 5);  // Cells of width 2.
  for (int i = 0; i < 10; ++i) h.Add(1.0);  // Bucket [0, 2).
  for (int i = 0; i < 10; ++i) h.Add(5.0);  // Bucket [4, 6).
  EXPECT_DOUBLE_EQ(h.Quantile(0.0), 1.0);   // Clamped up to Min().
  EXPECT_DOUBLE_EQ(h.Quantile(0.25), 1.0);  // Middle of the first bucket.
  EXPECT_DOUBLE_EQ(h.Quantile(0.5), 2.0);   // Upper edge of the first.
  EXPECT_DOUBLE_EQ(h.Quantile(0.75), 5.0);  // Middle of the second bucket.
  EXPECT_DOUBLE_EQ(h.Quantile(1.0), 5.0);   // Clamped down to Max().
}

TEST(HistogramTest, QuantileWithUnderflowClampsToObservations) {
  Histogram h(0.0, 10.0, 5);
  h.Add(-5.0);  // Underflow counts toward the cumulative total at lo.
  h.Add(1.0);
  EXPECT_DOUBLE_EQ(h.Quantile(0.5), 0.0);
  // Interpolation alone would say 2.0 (the upper edge of the containing
  // bucket), but no observation exceeds 1.0.
  EXPECT_DOUBLE_EQ(h.Quantile(1.0), 1.0);
}

TEST(HistogramTest, QuantileAllOverflowReturnsObservedValue) {
  // Pre-clamp this reported hi (10.0), a value 5x below the single real
  // observation. The [Min, Max] clamp pins it to the data instead.
  Histogram h(0.0, 10.0, 5);
  h.Add(50.0);
  EXPECT_DOUBLE_EQ(h.Quantile(0.5), 50.0);
  EXPECT_DOUBLE_EQ(h.Quantile(1.0), 50.0);
}

TEST(HistogramTest, TracksMinAndMaxAcrossRange) {
  Histogram h(0.0, 10.0, 5);
  h.Add(-1.0);
  h.Add(3.0);
  h.Add(50.0);
  EXPECT_DOUBLE_EQ(h.Min(), -1.0);
  EXPECT_DOUBLE_EQ(h.Max(), 50.0);
  h.Reset();
  h.Add(4.0);
  EXPECT_DOUBLE_EQ(h.Min(), 4.0);
  EXPECT_DOUBLE_EQ(h.Max(), 4.0);
}

TEST(HistogramTest, LowCountQuantileNeverExceedsMax) {
  // The OBSERVABILITY.md §1 quirk this guards against: with one in-range
  // observation, bucket interpolation lands at the middle/upper reaches of
  // the containing cell, above the only value ever recorded.
  Histogram h(0.0, 1000.0, 10);  // Cells of width 100.
  h.Add(7.0);
  EXPECT_LE(h.Quantile(0.5), 7.0);
  EXPECT_LE(h.Quantile(0.99), 7.0);
  EXPECT_GE(h.Quantile(0.01), 7.0);
}

TEST(HistogramTest, QuantileEmptyReturnsLo) {
  Histogram h(0.0, 10.0, 5);
  EXPECT_EQ(h.Quantile(0.5), 0.0);
}

TEST(HistogramTest, ResetPreservesShapeAndReusesBuffer) {
  Histogram h(0.0, 10.0, 5);
  h.Add(-1.0);
  h.Add(3.0);
  h.Add(50.0);
  h.Reset();
  EXPECT_EQ(h.Count(), 0U);
  EXPECT_EQ(h.Underflow(), 0U);
  EXPECT_EQ(h.Overflow(), 0U);
  // Shape survives: the same value lands in the same bucket as before.
  EXPECT_EQ(h.NumBuckets(), 5U);
  EXPECT_DOUBLE_EQ(h.BucketLow(1), 2.0);
  h.Add(3.0);
  EXPECT_EQ(h.BucketCount(1), 1U);
  EXPECT_EQ(h.Count(), 1U);
}

TEST(HistogramDeathTest, RejectsEmptyRange) {
  EXPECT_DEATH(Histogram(5.0, 5.0, 3), "non-empty");
}

}  // namespace
}  // namespace bdisk::sim
