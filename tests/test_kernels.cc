#include "surrogate/kernels.h"

#include <bit>
#include <cmath>
#include <cstdint>
#include <memory>
#include <string>

#include <gtest/gtest.h>

#include "util/random.h"

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

uint64_t Bits(double v) { return std::bit_cast<uint64_t>(v); }

// The per-pair arithmetic every kernel had before the block path, written
// out: one serial sum over dimensions, then the formula.
double ReferenceKernel(const std::string& name, const std::vector<bool>& mask,
                       const std::vector<double>& a,
                       const std::vector<double>& b, double lengthscale) {
  double sq = 0.0, cont_sq = 0.0;
  size_t differing = 0, cat_differing = 0, cat_n = 0;
  for (size_t i = 0; i < a.size(); ++i) {
    const double d = a[i] - b[i];
    const bool differs = std::abs(a[i] - b[i]) > 1e-9;
    sq += d * d;
    if (differs) ++differing;
    if (!mask.empty() && mask[i]) {
      ++cat_n;
      if (differs) ++cat_differing;
    } else {
      cont_sq += d * d;
    }
  }
  const double dims = static_cast<double>(a.size());
  auto matern = [lengthscale](double mean_sq) {
    const double r = std::sqrt(mean_sq) / lengthscale;
    const double sqrt5_r = std::sqrt(5.0) * r;
    return (1.0 + sqrt5_r + 5.0 * r * r / 3.0) * std::exp(-sqrt5_r);
  };
  if (name == "RBF") {
    const double r2 = sq / dims / (lengthscale * lengthscale);
    return std::exp(-0.5 * r2);
  }
  if (name == "Matern52") return matern(sq / dims);
  if (name == "Hamming") {
    return std::exp(-(static_cast<double>(differing) / dims) / lengthscale);
  }
  double k = 1.0;
  const size_t cont_n = a.size() - cat_n;
  if (cont_n > 0) k *= matern(cont_sq / static_cast<double>(cont_n));
  if (cat_n > 0) {
    k *= std::exp(-(static_cast<double>(cat_differing) /
                    static_cast<double>(cat_n)) /
                  lengthscale);
  }
  return k;
}

struct BlockCase {
  std::unique_ptr<Kernel> kernel;
  std::vector<bool> mask;  // categorical dimensions (Mixed only)
};

// Kernels over `d` dimensions: the three mask-free ones and Mixed with
// no, some, most and all dimensions categorical (so the tabulated and
// untabulated Hamming factors both run).
std::vector<BlockCase> BlockCases(size_t d) {
  std::vector<BlockCase> cases;
  cases.push_back({std::make_unique<RbfKernel>(), {}});
  cases.push_back({std::make_unique<Matern52Kernel>(), {}});
  cases.push_back({std::make_unique<HammingKernel>(), {}});
  for (size_t every : {0u, 3u, 1u}) {
    std::vector<bool> mask(d, false);
    for (size_t i = 0; every > 0 && i < d; i += every) mask[i] = true;
    cases.push_back({std::make_unique<MixedKernel>(mask), mask});
  }
  std::vector<bool> most(d, true);
  most[0] = false;
  cases.push_back({std::make_unique<MixedKernel>(most), most});
  return cases;
}

// A point whose entries sit on a four-category grid in half the
// dimensions (shared across points, so equal entries occur) and are
// uniform elsewhere.
std::vector<double> BlockPoint(size_t d, Rng* rng) {
  std::vector<double> p(d);
  for (size_t i = 0; i < d; ++i) {
    p[i] = i % 2 == 0 ? (std::floor(rng->Uniform() * 4.0) + 0.5) / 4.0
                      : rng->Uniform();
  }
  return p;
}

TEST(KernelBlockTest, BlockEqualsComputeBitwise) {
  Rng rng(0xB10C);
  for (size_t d : {1u, 20u}) {
    for (const BlockCase& c : BlockCases(d)) {
      for (size_t m : {1u, 7u, 16u}) {
        for (double lengthscale : {0.05, 0.5, 3.0}) {
          const std::vector<double> row = BlockPoint(d, &rng);
          std::vector<std::vector<double>> queries;
          for (size_t r = 0; r < m; ++r) queries.push_back(BlockPoint(d, &rng));
          queries[m / 2] = row;  // an identical point
          // Dimension-major with a stride wider than the block, the layout
          // the GP's training copy has.
          const size_t stride = m + 3;
          std::vector<double> dm(d * stride, -7.0);
          for (size_t r = 0; r < m; ++r) {
            for (size_t t = 0; t < d; ++t) dm[t * stride + r] = queries[r][t];
          }
          std::vector<double> out(m + 1, -1.0);
          c.kernel->ComputeBlock(row.data(), dm.data(), stride, m, d,
                                 lengthscale, out.data());
          EXPECT_EQ(out[m], -1.0) << "wrote past the block";
          for (size_t r = 0; r < m; ++r) {
            const double pair = c.kernel->Compute(row, queries[r], lengthscale);
            const std::string where = c.kernel->name() + " d=" +
                                      std::to_string(d) + " m=" +
                                      std::to_string(m) + " r=" +
                                      std::to_string(r);
            EXPECT_EQ(Bits(out[r]), Bits(pair)) << where;
            EXPECT_EQ(Bits(pair),
                      Bits(ReferenceKernel(c.kernel->name(), c.mask, row,
                                           queries[r], lengthscale)))
                << where;
            // Symmetric bit for bit: the GP's incremental border and its
            // per-query predict rely on it.
            EXPECT_EQ(Bits(pair),
                      Bits(c.kernel->Compute(queries[r], row, lengthscale)))
                << where;
          }
          EXPECT_EQ(Bits(out[m / 2]),
                    Bits(c.kernel->Compute(row, row, lengthscale)));
        }
      }
    }
  }
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
