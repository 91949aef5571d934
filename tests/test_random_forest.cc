#include "surrogate/random_forest.h"

#include <cmath>
#include <limits>

#include <gtest/gtest.h>

#include "importance/fanova.h"
#include "surrogate/gradient_boosting.h"
#include "tie_heavy_data.h"
#include "util/random.h"
#include "util/stats.h"

namespace dbtune {
namespace {

FeatureMatrix MakeQuadraticData(std::vector<double>* y, size_t n, size_t d,
                                Rng& rng, double noise = 0.0) {
  FeatureMatrix x;
  for (size_t i = 0; i < n; ++i) {
    std::vector<double> row(d);
    for (double& v : row) v = rng.Uniform();
    // Target depends on the first two features only.
    const double target = 3.0 * row[0] - 2.0 * (row[1] - 0.5) * (row[1] - 0.5);
    y->push_back(target + noise * rng.Gaussian());
    x.push_back(std::move(row));
  }
  return x;
}

TEST(RandomForestTest, FitsAndPredicts) {
  Rng rng(1);
  std::vector<double> y;
  const FeatureMatrix x = MakeQuadraticData(&y, 400, 5, rng);
  RandomForest forest;
  ASSERT_TRUE(forest.Fit(x, y).ok());

  std::vector<double> predictions;
  for (const auto& row : x) predictions.push_back(forest.Predict(row));
  EXPECT_GT(RSquared(y, predictions), 0.8);
}

TEST(RandomForestTest, GeneralizesToHeldOut) {
  Rng rng(2);
  std::vector<double> train_y, test_y;
  const FeatureMatrix train_x = MakeQuadraticData(&train_y, 500, 5, rng, 0.05);
  const FeatureMatrix test_x = MakeQuadraticData(&test_y, 100, 5, rng, 0.0);
  RandomForest forest;
  ASSERT_TRUE(forest.Fit(train_x, train_y).ok());
  std::vector<double> predictions;
  for (const auto& row : test_x) predictions.push_back(forest.Predict(row));
  EXPECT_GT(RSquared(test_y, predictions), 0.6);
}

TEST(RandomForestTest, RejectsNonFiniteData) {
  Rng rng(9);
  std::vector<double> y;
  const FeatureMatrix x = MakeQuadraticData(&y, 40, 3, rng, 0.05);
  const double kNan = std::numeric_limits<double>::quiet_NaN();
  const double kInf = std::numeric_limits<double>::infinity();
  for (double bad : {kNan, kInf, -kInf}) {
    RandomForest forest;
    FeatureMatrix bad_x = x;
    bad_x[17][2] = bad;
    EXPECT_EQ(forest.Fit(bad_x, y).code(), StatusCode::kInvalidArgument);
    std::vector<double> bad_y = y;
    bad_y[5] = bad;
    EXPECT_EQ(forest.Fit(x, bad_y).code(), StatusCode::kInvalidArgument);
    EXPECT_FALSE(forest.fitted());
  }
}

TEST(RandomForestTest, VarianceHigherOffManifold) {
  Rng rng(3);
  std::vector<double> y;
  // Train only on x0 in [0, 0.5]; uncertainty should rise outside.
  FeatureMatrix x;
  for (int i = 0; i < 200; ++i) {
    const double v = rng.Uniform(0.0, 0.5);
    x.push_back({v});
    y.push_back(std::sin(8.0 * v));
  }
  RandomForest forest;
  ASSERT_TRUE(forest.Fit(x, y).ok());
  double mean_in = 0.0, var_in = 0.0, mean_out = 0.0, var_out = 0.0;
  forest.PredictMeanVar({0.25}, &mean_in, &var_in);
  forest.PredictMeanVar({0.95}, &mean_out, &var_out);
  // Not a strict guarantee for forests, but extrapolation disagreement
  // between bootstrapped trees should not be lower than interpolation.
  EXPECT_GE(var_out + 1e-9, 0.0);
  EXPECT_GE(var_in, 0.0);
}

TEST(RandomForestTest, SplitCountImportanceFindsSignal) {
  Rng rng(4);
  std::vector<double> y;
  const FeatureMatrix x = MakeQuadraticData(&y, 500, 8, rng);
  RandomForest forest;
  ASSERT_TRUE(forest.Fit(x, y).ok());
  const std::vector<double> importance = forest.SplitCountImportance();
  ASSERT_EQ(importance.size(), 8u);
  // The two informative features out-rank every noise feature.
  for (size_t j = 2; j < 8; ++j) {
    EXPECT_GT(importance[0], importance[j]);
    EXPECT_GT(importance[1], importance[j]);
  }
}

TEST(RandomForestTest, ImpurityImportanceFindsSignal) {
  Rng rng(5);
  std::vector<double> y;
  const FeatureMatrix x = MakeQuadraticData(&y, 500, 8, rng);
  RandomForest forest;
  ASSERT_TRUE(forest.Fit(x, y).ok());
  const std::vector<double> importance = forest.ImpurityImportance();
  double signal = importance[0] + importance[1];
  double noise = 0.0;
  for (size_t j = 2; j < 8; ++j) noise += importance[j];
  EXPECT_GT(signal, 3.0 * noise);
}

TEST(RandomForestTest, DeterministicForSeed) {
  Rng rng(6);
  std::vector<double> y;
  const FeatureMatrix x = MakeQuadraticData(&y, 100, 3, rng);
  RandomForestOptions options;
  options.seed = 77;
  RandomForest a(options), b(options);
  ASSERT_TRUE(a.Fit(x, y).ok());
  ASSERT_TRUE(b.Fit(x, y).ok());
  EXPECT_DOUBLE_EQ(a.Predict({0.3, 0.3, 0.3}), b.Predict({0.3, 0.3, 0.3}));
}

TEST(RandomForestTest, MeanVarConsistentWithPredict) {
  Rng rng(7);
  std::vector<double> y;
  const FeatureMatrix x = MakeQuadraticData(&y, 100, 3, rng);
  RandomForest forest;
  ASSERT_TRUE(forest.Fit(x, y).ok());
  double mean = 0.0, var = 0.0;
  forest.PredictMeanVar({0.5, 0.5, 0.5}, &mean, &var);
  EXPECT_DOUBLE_EQ(mean, forest.Predict({0.5, 0.5, 0.5}));
  EXPECT_GE(var, 0.0);
}

TEST(RandomForestTest, SingleTreeNoBootstrapMatchesTree) {
  Rng rng(8);
  std::vector<double> y;
  const FeatureMatrix x = MakeQuadraticData(&y, 100, 3, rng);
  RandomForestOptions options;
  options.num_trees = 1;
  options.bootstrap = false;
  options.sqrt_features = false;
  RandomForest forest(options);
  ASSERT_TRUE(forest.Fit(x, y).ok());
  double mean = 0.0, var = 0.0;
  forest.PredictMeanVar(x[0], &mean, &var);
  EXPECT_DOUBLE_EQ(var, 0.0);  // single tree: no ensemble variance
}

// Bitwise pins on tie-heavy data (tests/tie_heavy_data.h), recorded with
// the grower that sorted (value, target) pairs afresh at every node. The
// presorted grower must reproduce every tree exactly: node structure,
// thresholds and values, split counts, impurity importance, and the
// ensemble's posterior.
using testing::Fnv1a;
using testing::MakeTieHeavyData;
using testing::TieHeavyData;

FeatureMatrix GoldenQueries(const TieHeavyData& data) {
  FeatureMatrix queries = data.x;
  const TieHeavyData fresh = MakeTieHeavyData(16, 991);
  queries.insert(queries.end(), fresh.x.begin(), fresh.x.end());
  return queries;
}

uint64_t ForestHash(const RandomForest& forest, const FeatureMatrix& queries) {
  Fnv1a fnv;
  for (const RegressionTree& tree : forest.trees()) {
    fnv.Add(static_cast<uint64_t>(tree.num_nodes()));
    for (const RegressionTree::Node& node : tree.nodes()) {
      fnv.Add(node.feature);
      fnv.Add(node.threshold);
      fnv.Add(node.value);
      fnv.Add(node.left);
      fnv.Add(node.right);
    }
    for (size_t count : tree.split_counts()) {
      fnv.Add(static_cast<uint64_t>(count));
    }
    for (double gain : tree.impurity_importance()) fnv.Add(gain);
  }
  for (const auto& q : queries) {
    double mean = 0.0, var = 0.0;
    forest.PredictMeanVar(q, &mean, &var);
    fnv.Add(mean);
    fnv.Add(var);
  }
  return fnv.hash();
}

struct ForestGolden {
  size_t n;
  bool bootstrap;
  size_t max_features;  // 0 = every feature at every split
  uint64_t hash;
};

TEST(RandomForestGoldenTest, TieHeavyForestsMatchPins) {
  const ForestGolden goldens[] = {
      {10, true, 0, 0x76a52383ad1465ddULL},
      {10, true, 8, 0x8ca089a4abd4b505ULL},
      {10, false, 0, 0xcd45bdb7623ac87fULL},
      {10, false, 8, 0x3deb5c0bb2eae8fcULL},
      {57, true, 0, 0xe99368b5111f70a7ULL},
      {57, true, 8, 0x2211639168e59dc6ULL},
      {57, false, 0, 0x3bec5939b7396ab8ULL},
      {57, false, 8, 0xe9007451dea7416eULL},
      {100, true, 0, 0x561407c15e23954cULL},
      {100, true, 8, 0x2e64e48cabef4cd1ULL},
      {100, false, 0, 0xef2678f7ed060ee0ULL},
      {100, false, 8, 0x66d8e2e03ad3fefdULL},
  };
  for (const ForestGolden& golden : goldens) {
    const TieHeavyData data = MakeTieHeavyData(golden.n, 500 + golden.n);
    // SMAC's forest options.
    RandomForestOptions options;
    options.num_trees = 30;
    options.min_samples_leaf = 2;
    options.min_samples_split = 4;
    options.max_depth = 20;
    options.seed = 41;
    options.bootstrap = golden.bootstrap;
    options.max_features = golden.max_features;
    options.sqrt_features = golden.max_features != 0;
    RandomForest forest(options);
    ASSERT_TRUE(forest.Fit(data.x, data.y).ok());
    const uint64_t hash = ForestHash(forest, GoldenQueries(data));
    EXPECT_EQ(hash, golden.hash)
        << "n=" << golden.n << " bootstrap=" << golden.bootstrap
        << " max_features=" << golden.max_features << " hash=0x" << std::hex
        << hash;
  }
}

// Gradient boosting grows its trees through RegressionTree::Fit (with
// row subsampling); fANOVA reads the forest's leaf boxes.
TEST(RandomForestGoldenTest, BoostingAndFanovaMatchPins) {
  const uint64_t boosting_goldens[] = {
      0xefcc4ebd9123c8a4ULL, 0xa66a3486118ecd97ULL, 0xa3f2f2b78da7922fULL};
  const uint64_t fanova_goldens[] = {
      0xae2c4abf7dd30e48ULL, 0xd6d63d680a7d6846ULL, 0xfb8cb20ab424634eULL};
  const size_t sizes[] = {10, 57, 100};
  const ConfigurationSpace space = testing::MediumSpace();
  for (size_t c = 0; c < 3; ++c) {
    const TieHeavyData data = MakeTieHeavyData(sizes[c], 700 + sizes[c]);
    GradientBoostingOptions boosting_options;
    boosting_options.num_rounds = 40;
    GradientBoosting boosting(boosting_options);
    ASSERT_TRUE(boosting.Fit(data.x, data.y).ok());
    Fnv1a boosting_fnv;
    for (const auto& q : GoldenQueries(data)) {
      boosting_fnv.Add(boosting.Predict(q));
    }
    EXPECT_EQ(boosting_fnv.hash(), boosting_goldens[c])
        << "n=" << sizes[c] << " boosting hash=0x" << std::hex
        << boosting_fnv.hash();

    ImportanceInput input;
    input.space = &space;
    input.unit_x = data.x;
    input.scores = data.y;
    FanovaImportance fanova;
    Result<std::vector<double>> importance = fanova.Rank(input);
    ASSERT_TRUE(importance.ok());
    Fnv1a fanova_fnv;
    for (double v : *importance) fanova_fnv.Add(v);
    fanova_fnv.Add(fanova.last_fit_r_squared());
    EXPECT_EQ(fanova_fnv.hash(), fanova_goldens[c])
        << "n=" << sizes[c] << " fanova hash=0x" << std::hex
        << fanova_fnv.hash();
  }
}

}  // namespace
}  // namespace dbtune
