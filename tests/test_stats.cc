#include "util/stats.h"

#include <cmath>

#include <gtest/gtest.h>

namespace dbtune {
namespace {

TEST(StatsTest, MeanVarianceStdDev) {
  const std::vector<double> v = {1, 2, 3, 4};
  EXPECT_DOUBLE_EQ(Mean(v), 2.5);
  // Sample variance (n − 1 divisor): ((1.5² + 0.5²) * 2) / 3 = 5/3.
  EXPECT_DOUBLE_EQ(Variance(v), 5.0 / 3.0);
  EXPECT_DOUBLE_EQ(StdDev(v), std::sqrt(5.0 / 3.0));
}

TEST(StatsTest, EmptyAndSingleton) {
  EXPECT_DOUBLE_EQ(Mean({}), 0.0);
  EXPECT_DOUBLE_EQ(Variance({}), 0.0);
  // n = 1 has no spread information; the n − 1 divisor must not divide
  // by zero.
  EXPECT_DOUBLE_EQ(Variance({5.0}), 0.0);
  EXPECT_DOUBLE_EQ(StdDev({5.0}), 0.0);
}

TEST(StatsTest, TwoPointSampleVariance) {
  // n = 2 is the smallest informative sample: deviations ±1 around the
  // mean 2 give (1 + 1) / (2 − 1) = 2 (the n divisor would say 1).
  EXPECT_DOUBLE_EQ(Variance({1.0, 3.0}), 2.0);
  EXPECT_DOUBLE_EQ(StdDev({1.0, 3.0}), std::sqrt(2.0));
}

TEST(StatsTest, StandardizeScores) {
  const std::vector<double> z = StandardizeScores({1.0, 2.0, 3.0});
  EXPECT_NEAR(z[0] + z[1] + z[2], 0.0, 1e-12);
  EXPECT_GT(z[2], z[1]);
  // Constant input stays finite.
  for (double v : StandardizeScores({5.0, 5.0})) {
    EXPECT_TRUE(std::isfinite(v));
  }
  // Regression: empty input used to divide 0/0 and return NaN-poisoned
  // state downstream; it must simply produce an empty vector.
  EXPECT_TRUE(StandardizeScores({}).empty());
}

TEST(StatsTest, ScoreMomentsOf) {
  const ScoreMoments empty = ScoreMomentsOf({});
  EXPECT_EQ(empty.mean, 0.0);
  EXPECT_EQ(empty.sd, 1.0);
  // A constant history keeps its mean and falls back to unit scale.
  const ScoreMoments constant = ScoreMomentsOf({4.0, 4.0, 4.0});
  EXPECT_EQ(constant.mean, 4.0);
  EXPECT_EQ(constant.sd, 1.0);
  // Sample (n-1) stddev otherwise: {1, 3} has mean 2 and sd sqrt(2).
  const ScoreMoments pair = ScoreMomentsOf({1.0, 3.0});
  EXPECT_EQ(pair.mean, 2.0);
  EXPECT_DOUBLE_EQ(pair.sd, std::sqrt(2.0));
  // StandardizeScores applies exactly these moments.
  const std::vector<double> scores = {0.3, -1.7, 2.9, 0.3};
  const ScoreMoments moments = ScoreMomentsOf(scores);
  const std::vector<double> z = StandardizeScores(scores);
  for (size_t i = 0; i < scores.size(); ++i) {
    EXPECT_EQ(z[i], (scores[i] - moments.mean) / moments.sd);
  }
}

TEST(StatsTest, QuantileInterpolates) {
  const std::vector<double> v = {10, 20, 30, 40};
  EXPECT_DOUBLE_EQ(Quantile(v, 0.0), 10.0);
  EXPECT_DOUBLE_EQ(Quantile(v, 1.0), 40.0);
  EXPECT_DOUBLE_EQ(Quantile(v, 0.5), 25.0);
  EXPECT_DOUBLE_EQ(Median(v), 25.0);
  EXPECT_NEAR(Quantile(v, 0.95), 38.5, 1e-12);
}

TEST(StatsTest, QuantileUnsortedInput) {
  EXPECT_DOUBLE_EQ(Median({3, 1, 2}), 2.0);
}

TEST(StatsTest, ArgSort) {
  const std::vector<double> v = {3.0, 1.0, 2.0};
  EXPECT_EQ(ArgSortAscending(v), (std::vector<size_t>{1, 2, 0}));
  EXPECT_EQ(ArgSortDescending(v), (std::vector<size_t>{0, 2, 1}));
}

TEST(StatsTest, ArgSortStableOnTies) {
  const std::vector<double> v = {1.0, 1.0, 0.0};
  EXPECT_EQ(ArgSortAscending(v), (std::vector<size_t>{2, 0, 1}));
}

TEST(StatsTest, RanksWithTies) {
  const std::vector<double> v = {10, 20, 20, 30};
  const std::vector<double> r = Ranks(v);
  EXPECT_DOUBLE_EQ(r[0], 1.0);
  EXPECT_DOUBLE_EQ(r[1], 2.5);
  EXPECT_DOUBLE_EQ(r[2], 2.5);
  EXPECT_DOUBLE_EQ(r[3], 4.0);
}

TEST(StatsTest, PearsonPerfectCorrelation) {
  const std::vector<double> a = {1, 2, 3, 4};
  const std::vector<double> b = {2, 4, 6, 8};
  EXPECT_NEAR(PearsonCorrelation(a, b), 1.0, 1e-12);
  const std::vector<double> c = {8, 6, 4, 2};
  EXPECT_NEAR(PearsonCorrelation(a, c), -1.0, 1e-12);
}

TEST(StatsTest, PearsonConstantInputIsZero) {
  EXPECT_DOUBLE_EQ(PearsonCorrelation({1, 1, 1}, {1, 2, 3}), 0.0);
}

TEST(StatsTest, SpearmanMonotonicIsOne) {
  const std::vector<double> a = {1, 2, 3, 4};
  const std::vector<double> b = {1, 10, 100, 1000};  // nonlinear, monotone
  EXPECT_NEAR(SpearmanCorrelation(a, b), 1.0, 1e-12);
}

TEST(StatsTest, RSquaredPerfectAndBaseline) {
  const std::vector<double> y = {1, 2, 3, 4};
  EXPECT_DOUBLE_EQ(RSquared(y, y), 1.0);
  const std::vector<double> mean_pred(4, 2.5);
  EXPECT_NEAR(RSquared(y, mean_pred), 0.0, 1e-12);
}

TEST(StatsTest, RmseKnownValue) {
  EXPECT_DOUBLE_EQ(Rmse({0, 0}, {3, 4}), std::sqrt(12.5));
  EXPECT_DOUBLE_EQ(Rmse({1, 2}, {1, 2}), 0.0);
}

TEST(StatsTest, IntersectionOverUnion) {
  EXPECT_DOUBLE_EQ(IntersectionOverUnion({1, 2, 3}, {2, 3, 4}), 0.5);
  EXPECT_DOUBLE_EQ(IntersectionOverUnion({1, 2}, {1, 2}), 1.0);
  EXPECT_DOUBLE_EQ(IntersectionOverUnion({1}, {2}), 0.0);
  EXPECT_DOUBLE_EQ(IntersectionOverUnion({}, {}), 1.0);
}

}  // namespace
}  // namespace dbtune
