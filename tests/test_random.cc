#include "util/random.h"

#include <algorithm>
#include <set>

#include <gtest/gtest.h>

namespace dbtune {
namespace {

TEST(RngTest, DeterministicForSameSeed) {
  Rng a(7), b(7);
  for (int i = 0; i < 100; ++i) {
    EXPECT_DOUBLE_EQ(a.Uniform(), b.Uniform());
  }
}

TEST(RngTest, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  bool differed = false;
  for (int i = 0; i < 10; ++i) {
    if (a.Uniform() != b.Uniform()) differed = true;
  }
  EXPECT_TRUE(differed);
}

TEST(RngTest, UniformInRange) {
  Rng rng(3);
  for (int i = 0; i < 1000; ++i) {
    const double v = rng.Uniform(2.0, 5.0);
    EXPECT_GE(v, 2.0);
    EXPECT_LT(v, 5.0);
  }
}

TEST(RngTest, UniformIntInclusiveBounds) {
  Rng rng(3);
  std::set<int64_t> seen;
  for (int i = 0; i < 1000; ++i) {
    const int64_t v = rng.UniformInt(0, 3);
    EXPECT_GE(v, 0);
    EXPECT_LE(v, 3);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 4u);  // all values hit
}

TEST(RngTest, GaussianMoments) {
  Rng rng(11);
  double sum = 0.0, sum_sq = 0.0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    const double v = rng.Gaussian(1.0, 2.0);
    sum += v;
    sum_sq += v * v;
  }
  const double mean = sum / n;
  const double var = sum_sq / n - mean * mean;
  EXPECT_NEAR(mean, 1.0, 0.05);
  EXPECT_NEAR(var, 4.0, 0.15);
}

TEST(RngTest, BernoulliProbability) {
  Rng rng(13);
  int hits = 0;
  const int n = 10000;
  for (int i = 0; i < n; ++i) hits += rng.Bernoulli(0.3);
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.02);
}

TEST(RngTest, PermutationIsBijection) {
  Rng rng(17);
  const std::vector<size_t> perm = rng.Permutation(50);
  std::set<size_t> values(perm.begin(), perm.end());
  EXPECT_EQ(values.size(), 50u);
  EXPECT_EQ(*values.begin(), 0u);
  EXPECT_EQ(*values.rbegin(), 49u);
}

TEST(RngTest, SampleWithoutReplacementDistinct) {
  Rng rng(19);
  const std::vector<size_t> sample = rng.SampleWithoutReplacement(100, 30);
  EXPECT_EQ(sample.size(), 30u);
  std::set<size_t> values(sample.begin(), sample.end());
  EXPECT_EQ(values.size(), 30u);
  for (size_t v : values) EXPECT_LT(v, 100u);
}

TEST(RngTest, SampleWithoutReplacementFullSet) {
  Rng rng(19);
  const std::vector<size_t> sample = rng.SampleWithoutReplacement(5, 5);
  std::set<size_t> values(sample.begin(), sample.end());
  EXPECT_EQ(values.size(), 5u);
}

TEST(RngTest, WeightedIndexRespectsWeights) {
  Rng rng(23);
  std::vector<double> weights = {0.0, 1.0, 3.0};
  std::vector<int> counts(3, 0);
  const int n = 20000;
  for (int i = 0; i < n; ++i) ++counts[rng.WeightedIndex(weights)];
  EXPECT_EQ(counts[0], 0);
  EXPECT_NEAR(static_cast<double>(counts[2]) / counts[1], 3.0, 0.3);
}

TEST(RngTest, WeightedIndexAllZeroFallsBackToUniform) {
  Rng rng(29);
  std::vector<double> weights = {0.0, 0.0};
  std::set<size_t> seen;
  for (int i = 0; i < 100; ++i) seen.insert(rng.WeightedIndex(weights));
  EXPECT_EQ(seen.size(), 2u);
}

TEST(RngTest, ShuffleKeepsElements) {
  Rng rng(37);
  std::vector<int> items = {1, 2, 3, 4, 5, 6};
  std::vector<int> original = items;
  rng.Shuffle(items);
  std::sort(items.begin(), items.end());
  EXPECT_EQ(items, original);
}

}  // namespace
}  // namespace dbtune
