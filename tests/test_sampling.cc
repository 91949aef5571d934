#include <set>

#include <gtest/gtest.h>

#include "knobs/catalog.h"
#include "sampling/latin_hypercube.h"

namespace dbtune {
namespace {

TEST(LatinHypercubeTest, StratifiesEveryDimension) {
  Rng rng(1);
  const size_t n = 16, d = 4;
  const auto points = LatinHypercubeUnit(n, d, rng);
  ASSERT_EQ(points.size(), n);
  for (size_t dim = 0; dim < d; ++dim) {
    std::set<size_t> bins;
    for (const auto& p : points) {
      EXPECT_GE(p[dim], 0.0);
      EXPECT_LT(p[dim], 1.0);
      bins.insert(static_cast<size_t>(p[dim] * static_cast<double>(n)));
    }
    // Exactly one point per bin per dimension.
    EXPECT_EQ(bins.size(), n) << "dimension " << dim;
  }
}

TEST(LatinHypercubeTest, DeterministicGivenSeed) {
  Rng a(9), b(9);
  const auto pa = LatinHypercubeUnit(8, 3, a);
  const auto pb = LatinHypercubeUnit(8, 3, b);
  EXPECT_EQ(pa, pb);
}

TEST(LatinHypercubeTest, ConfigurationsAreValid) {
  const ConfigurationSpace space = SmallTestCatalog();
  Rng rng(2);
  const auto configs = LatinHypercubeSample(space, 20, rng);
  ASSERT_EQ(configs.size(), 20u);
  for (const Configuration& c : configs) {
    EXPECT_TRUE(space.Validate(c).ok());
  }
}

}  // namespace
}  // namespace dbtune
