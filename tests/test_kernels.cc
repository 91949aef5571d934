#include "surrogate/kernels.h"

#include <cmath>

#include <gtest/gtest.h>

namespace dbtune {
namespace {

// Lengthscale for the tests that do not probe it.
constexpr double kLs = 0.5;

TEST(RbfKernelTest, IdentityAndSymmetry) {
  RbfKernel k;
  const std::vector<double> a = {0.1, 0.5};
  const std::vector<double> b = {0.9, 0.2};
  EXPECT_DOUBLE_EQ(k.Compute(a, a, kLs), 1.0);
  EXPECT_DOUBLE_EQ(k.Compute(a, b, kLs), k.Compute(b, a, kLs));
  EXPECT_GT(k.Compute(a, b, kLs), 0.0);
  EXPECT_LT(k.Compute(a, b, kLs), 1.0);
}

TEST(RbfKernelTest, DecaysWithDistance) {
  RbfKernel k;
  const std::vector<double> origin = {0.0};
  EXPECT_GT(k.Compute(origin, {0.1}, kLs), k.Compute(origin, {0.5}, kLs));
  EXPECT_GT(k.Compute(origin, {0.5}, kLs), k.Compute(origin, {1.0}, kLs));
}

TEST(RbfKernelTest, LengthscaleControlsDecay) {
  RbfKernel k;
  const std::vector<double> a = {0.0}, b = {0.5};
  EXPECT_GT(k.Compute(a, b, /*lengthscale=*/2.0),
            k.Compute(a, b, /*lengthscale=*/0.1));
}

TEST(Matern52KernelTest, BasicProperties) {
  Matern52Kernel k;
  const std::vector<double> a = {0.3, 0.3};
  const std::vector<double> b = {0.6, 0.1};
  EXPECT_NEAR(k.Compute(a, a, kLs), 1.0, 1e-12);
  EXPECT_DOUBLE_EQ(k.Compute(a, b, kLs), k.Compute(b, a, kLs));
  EXPECT_GT(k.Compute(a, b, kLs), 0.0);
  EXPECT_LT(k.Compute(a, b, kLs), 1.0);
}

TEST(Matern52KernelTest, HeavierTailsThanRbf) {
  // Matern-5/2 has heavier tails than RBF: at several lengthscales of
  // distance it keeps more correlation.
  RbfKernel rbf;
  Matern52Kernel matern;
  const std::vector<double> a = {0.0}, b = {0.9};  // 3.6 lengthscales away
  EXPECT_GT(matern.Compute(a, b, 0.25), rbf.Compute(a, b, 0.25));
}

TEST(HammingKernelTest, CountsDifferingEntries) {
  HammingKernel k;
  const std::vector<double> a = {0.1, 0.5, 0.9};
  EXPECT_DOUBLE_EQ(k.Compute(a, a, 1.0), 1.0);
  const std::vector<double> one_diff = {0.1, 0.5, 0.2};
  const std::vector<double> two_diff = {0.3, 0.5, 0.2};
  EXPECT_GT(k.Compute(a, one_diff, 1.0), k.Compute(a, two_diff, 1.0));
  EXPECT_NEAR(k.Compute(a, one_diff, 1.0), std::exp(-1.0 / 3.0), 1e-12);
}

TEST(HammingKernelTest, MagnitudeOfDifferenceIrrelevant) {
  // Unlike RBF, Hamming only asks "same or different" — the categorical
  // semantics.
  HammingKernel k;
  const std::vector<double> a = {0.1};
  EXPECT_DOUBLE_EQ(k.Compute(a, {0.2}, kLs), k.Compute(a, {0.9}, kLs));
}

TEST(MixedKernelTest, SplitsDimensionsByType) {
  MixedKernel k({false, true});
  const std::vector<double> a = {0.2, 0.1};
  // Same category, close continuous: high.
  EXPECT_GT(k.Compute(a, {0.25, 0.1}, kLs), 0.9);
  // Different category hits the Hamming factor hard.
  EXPECT_LT(k.Compute(a, {0.25, 0.9}, kLs), k.Compute(a, {0.25, 0.1}, kLs));
  // Continuous distance also matters.
  EXPECT_LT(k.Compute(a, {0.9, 0.1}, kLs), k.Compute(a, {0.25, 0.1}, kLs));
}

TEST(MixedKernelTest, AllContinuousMatchesMatern) {
  MixedKernel mixed({false, false});
  Matern52Kernel matern;
  const std::vector<double> a = {0.3, 0.8}, b = {0.5, 0.1};
  EXPECT_NEAR(mixed.Compute(a, b, 0.4), matern.Compute(a, b, 0.4), 1e-12);
}

TEST(MixedKernelTest, AllCategoricalMatchesHamming) {
  MixedKernel mixed({true, true});
  HammingKernel hamming;
  const std::vector<double> a = {0.25, 0.75}, b = {0.25, 0.1};
  EXPECT_NEAR(mixed.Compute(a, b, 0.7), hamming.Compute(a, b, 0.7), 1e-12);
}

TEST(KernelTest, NamesAreDistinct) {
  RbfKernel rbf;
  Matern52Kernel matern;
  HammingKernel hamming;
  MixedKernel mixed({true});
  EXPECT_NE(rbf.name(), matern.name());
  EXPECT_NE(matern.name(), hamming.name());
  EXPECT_NE(hamming.name(), mixed.name());
}

}  // namespace
}  // namespace dbtune
