#include <cmath>
#include <functional>
#include <limits>
#include <memory>

#include <gtest/gtest.h>

#include "surrogate/gaussian_process.h"
#include "surrogate/gradient_boosting.h"
#include "surrogate/knn.h"
#include "surrogate/random_forest.h"
#include "surrogate/ridge.h"
#include "surrogate/svr.h"
#include "tie_heavy_data.h"
#include "util/random.h"
#include "util/stats.h"

namespace dbtune {
namespace {

struct Dataset {
  FeatureMatrix x;
  std::vector<double> y;
};

Dataset MakeLinear(size_t n, Rng& rng, double noise = 0.02) {
  Dataset data;
  for (size_t i = 0; i < n; ++i) {
    std::vector<double> row = {rng.Uniform(), rng.Uniform(), rng.Uniform()};
    data.y.push_back(2.0 * row[0] - 1.0 * row[1] + 0.5 +
                     noise * rng.Gaussian());
    data.x.push_back(std::move(row));
  }
  return data;
}

Dataset MakeNonlinear(size_t n, Rng& rng, double noise = 0.02) {
  Dataset data;
  for (size_t i = 0; i < n; ++i) {
    std::vector<double> row = {rng.Uniform(), rng.Uniform()};
    data.y.push_back(std::sin(6.0 * row[0]) + row[1] * row[1] +
                     noise * rng.Gaussian());
    data.x.push_back(std::move(row));
  }
  return data;
}

double HeldOutR2(Regressor* model, const Dataset& train, const Dataset& test) {
  if (!model->Fit(train.x, train.y).ok()) return -1.0;
  std::vector<double> predictions;
  for (const auto& row : test.x) predictions.push_back(model->Predict(row));
  return RSquared(test.y, predictions);
}

// --- Gradient boosting --------------------------------------------------

TEST(GradientBoostingTest, FitsNonlinearSurface) {
  Rng rng(1);
  const Dataset train = MakeNonlinear(400, rng);
  const Dataset test = MakeNonlinear(100, rng, 0.0);
  GradientBoosting gb;
  EXPECT_GT(HeldOutR2(&gb, train, test), 0.8);
}

TEST(GradientBoostingTest, MoreRoundsFitBetterInSample) {
  Rng rng(2);
  const Dataset train = MakeNonlinear(200, rng);
  GradientBoostingOptions few;
  few.num_rounds = 5;
  GradientBoostingOptions many;
  many.num_rounds = 150;
  GradientBoosting gb_few(few), gb_many(many);
  ASSERT_TRUE(gb_few.Fit(train.x, train.y).ok());
  ASSERT_TRUE(gb_many.Fit(train.x, train.y).ok());
  std::vector<double> pred_few, pred_many;
  for (const auto& row : train.x) {
    pred_few.push_back(gb_few.Predict(row));
    pred_many.push_back(gb_many.Predict(row));
  }
  EXPECT_GT(RSquared(train.y, pred_many), RSquared(train.y, pred_few));
}

TEST(GradientBoostingTest, RejectsEmpty) {
  GradientBoosting gb;
  EXPECT_FALSE(gb.Fit({}, {}).ok());
}

// --- k-NN -----------------------------------------------------------------

TEST(KnnTest, ExactOnTrainingPointsWithK1) {
  KnnOptions options;
  options.k = 1;
  KnnRegressor knn(options);
  FeatureMatrix x = {{0.0}, {0.5}, {1.0}};
  std::vector<double> y = {1.0, 2.0, 3.0};
  ASSERT_TRUE(knn.Fit(x, y).ok());
  EXPECT_NEAR(knn.Predict({0.5}), 2.0, 1e-6);
  EXPECT_NEAR(knn.Predict({0.95}), 3.0, 1e-6);
}

TEST(KnnTest, AveragesNeighbours) {
  KnnOptions options;
  options.k = 2;
  options.distance_weighted = false;
  KnnRegressor knn(options);
  FeatureMatrix x = {{0.0}, {1.0}};
  std::vector<double> y = {0.0, 10.0};
  ASSERT_TRUE(knn.Fit(x, y).ok());
  EXPECT_DOUBLE_EQ(knn.Predict({0.5}), 5.0);
}

TEST(KnnTest, DistanceWeightingPullsTowardNearest) {
  KnnOptions options;
  options.k = 2;
  options.distance_weighted = true;
  KnnRegressor knn(options);
  FeatureMatrix x = {{0.0}, {1.0}};
  std::vector<double> y = {0.0, 10.0};
  ASSERT_TRUE(knn.Fit(x, y).ok());
  EXPECT_LT(knn.Predict({0.1}), 3.0);
}

TEST(KnnTest, KLargerThanDataIsClamped) {
  KnnOptions options;
  options.k = 100;
  KnnRegressor knn(options);
  ASSERT_TRUE(knn.Fit({{0.0}, {1.0}}, {2.0, 4.0}).ok());
  const double pred = knn.Predict({0.5});
  EXPECT_GE(pred, 2.0);
  EXPECT_LE(pred, 4.0);
}

// --- Ridge ------------------------------------------------------------------

TEST(RidgeTest, RecoversLinearFunction) {
  Rng rng(3);
  const Dataset train = MakeLinear(300, rng);
  const Dataset test = MakeLinear(100, rng, 0.0);
  RidgeOptions options;
  options.alpha = 1e-6;
  RidgeRegression ridge(options);
  EXPECT_GT(HeldOutR2(&ridge, train, test), 0.98);
}

TEST(RidgeTest, HeavyRegularizationShrinksToMean) {
  Rng rng(4);
  const Dataset train = MakeLinear(200, rng);
  RidgeOptions options;
  options.alpha = 1e9;
  RidgeRegression ridge(options);
  ASSERT_TRUE(ridge.Fit(train.x, train.y).ok());
  EXPECT_NEAR(ridge.Predict(train.x[0]), Mean(train.y), 0.01);
}

TEST(RidgeTest, PoorOnNonlinearSurface) {
  Rng rng(5);
  const Dataset train = MakeNonlinear(300, rng);
  const Dataset test = MakeNonlinear(100, rng, 0.0);
  RidgeRegression ridge;
  GradientBoosting gb;
  // A linear model cannot explain sin(6x); this is the Table 9 "RR is
  // worst" phenomenon — trees fit the same surface much better.
  const double ridge_r2 = HeldOutR2(&ridge, train, test);
  EXPECT_LT(ridge_r2, 0.9);
  EXPECT_GT(HeldOutR2(&gb, train, test), ridge_r2);
}

TEST(RidgeTest, ConstantFeatureHandled) {
  RidgeRegression ridge;
  FeatureMatrix x = {{1.0, 0.1}, {1.0, 0.4}, {1.0, 0.9}, {1.0, 0.6}};
  std::vector<double> y = {1.0, 2.0, 4.0, 3.0};
  ASSERT_TRUE(ridge.Fit(x, y).ok());
  EXPECT_GT(ridge.Predict({1.0, 0.8}), ridge.Predict({1.0, 0.2}));
}

// --- SVR ---------------------------------------------------------------------

TEST(SvrTest, FitsLinearWithLinearFeatures) {
  Rng rng(6);
  const Dataset train = MakeLinear(300, rng);
  const Dataset test = MakeLinear(100, rng, 0.0);
  SvrOptions options;
  options.num_fourier_features = 0;  // pure linear SVR
  SupportVectorRegressor svr(options);
  EXPECT_GT(HeldOutR2(&svr, train, test), 0.9);
}

// Bitwise pin of a default-options SVR's predictions at pool sizes 1/2/8.
TEST(SvrTest, DefaultPredictionsMatchPin) {
  Rng rng(8);
  const Dataset train = MakeNonlinear(200, rng);
  const Dataset test = MakeNonlinear(50, rng, 0.0);
  for (const size_t pool : {size_t{1}, size_t{2}, size_t{8}}) {
    const testing::PoolSizeGuard guard(pool);
    SupportVectorRegressor svr;
    ASSERT_TRUE(svr.Fit(train.x, train.y).ok());
    testing::Fnv1a fnv;
    for (const auto& row : test.x) fnv.Add(svr.Predict(row));
    EXPECT_EQ(fnv.hash(), 0xe9558297432e9362ULL)
        << "pool=" << pool << " hash=0x" << std::hex << fnv.hash();
  }
}

TEST(SvrTest, RbfFeaturesCaptureNonlinearity) {
  Rng rng(7);
  const Dataset train = MakeNonlinear(400, rng);
  const Dataset test = MakeNonlinear(100, rng, 0.0);
  SvrOptions linear;
  linear.num_fourier_features = 0;
  SvrOptions rbf;
  rbf.num_fourier_features = 256;
  rbf.rbf_gamma = 4.0;
  SupportVectorRegressor svr_linear(linear), svr_rbf(rbf);
  const double r2_linear = HeldOutR2(&svr_linear, train, test);
  const double r2_rbf = HeldOutR2(&svr_rbf, train, test);
  EXPECT_GT(r2_rbf, r2_linear);
  EXPECT_GT(r2_rbf, 0.7);
}

TEST(SvrTest, DeterministicForSeed) {
  Rng rng(8);
  const Dataset train = MakeLinear(100, rng);
  SupportVectorRegressor a, b;
  ASSERT_TRUE(a.Fit(train.x, train.y).ok());
  ASSERT_TRUE(b.Fit(train.x, train.y).ok());
  EXPECT_DOUBLE_EQ(a.Predict({0.5, 0.5, 0.5}), b.Predict({0.5, 0.5, 0.5}));
}

// --- Interface sweep ---------------------------------------------------------

using Factory = std::function<std::unique_ptr<Regressor>()>;

class RegressorContractTest
    : public ::testing::TestWithParam<std::pair<const char*, Factory>> {};

TEST_P(RegressorContractTest, FitPredictContract) {
  Rng rng(9);
  const Dataset train = MakeLinear(150, rng);
  std::unique_ptr<Regressor> model = GetParam().second();
  EXPECT_FALSE(model->name().empty());
  ASSERT_TRUE(model->Fit(train.x, train.y).ok());
  const double pred = model->Predict({0.5, 0.5, 0.5});
  EXPECT_TRUE(std::isfinite(pred));
  double mean = 0.0, var = -1.0;
  model->PredictMeanVar({0.5, 0.5, 0.5}, &mean, &var);
  EXPECT_TRUE(std::isfinite(mean));
  EXPECT_GE(var, 0.0);
}

TEST_P(RegressorContractTest, RejectsInvalidData) {
  std::unique_ptr<Regressor> model = GetParam().second();
  EXPECT_FALSE(model->Fit({}, {}).ok());
  EXPECT_FALSE(model->Fit({{1.0}, {2.0}}, {1.0}).ok());
  const double nan = std::nan("");
  const double inf = std::numeric_limits<double>::infinity();
  EXPECT_FALSE(model->Fit({{0.1}, {0.5}, {0.9}}, {1.0, nan, 2.0}).ok());
  EXPECT_FALSE(model->Fit({{0.1}, {inf}, {0.9}}, {1.0, 1.5, 2.0}).ok());
}

INSTANTIATE_TEST_SUITE_P(
    AllModels, RegressorContractTest,
    ::testing::Values(
        std::make_pair("gb",
                       Factory([] {
                         return std::unique_ptr<Regressor>(
                             std::make_unique<GradientBoosting>());
                       })),
        std::make_pair("knn",
                       Factory([] {
                         return std::unique_ptr<Regressor>(
                             std::make_unique<KnnRegressor>());
                       })),
        std::make_pair("ridge",
                       Factory([] {
                         return std::unique_ptr<Regressor>(
                             std::make_unique<RidgeRegression>());
                       })),
        std::make_pair("svr",
                       Factory([] {
                         return std::unique_ptr<Regressor>(
                             std::make_unique<SupportVectorRegressor>());
                       })),
        std::make_pair("rf",
                       Factory([] {
                         return std::unique_ptr<Regressor>(
                             std::make_unique<RandomForest>());
                       })),
        std::make_pair("gp",
                       Factory([] {
                         return std::unique_ptr<Regressor>(
                             std::make_unique<GaussianProcess>(
                                 std::make_unique<Matern52Kernel>()));
                       }))),
    [](const ::testing::TestParamInfo<std::pair<const char*, Factory>>& info) {
      return info.param.first;
    });

}  // namespace
}  // namespace dbtune
