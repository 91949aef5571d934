#include "surrogate/regression_tree.h"

#include <cmath>
#include <limits>

#include <gtest/gtest.h>

#include "util/random.h"

namespace dbtune {
namespace {

// Piecewise target depending only on x0.
FeatureMatrix MakeStepData(std::vector<double>* y, size_t n, Rng& rng) {
  FeatureMatrix x;
  for (size_t i = 0; i < n; ++i) {
    x.push_back({rng.Uniform(), rng.Uniform(), rng.Uniform()});
    y->push_back(x.back()[0] < 0.5 ? 1.0 : 5.0);
  }
  return x;
}

TEST(RegressionTreeTest, RejectsEmptyAndRaggedData) {
  RegressionTree tree;
  std::vector<double> y;
  EXPECT_FALSE(tree.Fit({}, y).ok());
  EXPECT_FALSE(tree.Fit({{1.0, 2.0}, {1.0}}, {1.0, 2.0}).ok());
  EXPECT_FALSE(tree.Fit({{1.0}}, {1.0, 2.0}).ok());
}

// The presorted grower orders samples by (value, target), which needs a
// strict weak ordering: NaN and infinities are rejected up front.
TEST(RegressionTreeTest, RejectsNonFiniteData) {
  const double kNan = std::numeric_limits<double>::quiet_NaN();
  const double kInf = std::numeric_limits<double>::infinity();
  const FeatureMatrix x = {{0.1, 0.2}, {0.3, 0.4}, {0.5, 0.6}, {0.7, 0.8}};
  const std::vector<double> y = {1.0, 2.0, 3.0, 4.0};
  for (double bad : {kNan, kInf, -kInf}) {
    RegressionTree tree;
    FeatureMatrix bad_x = x;
    bad_x[2][1] = bad;
    EXPECT_EQ(tree.Fit(bad_x, y).code(), StatusCode::kInvalidArgument);
    std::vector<double> bad_y = y;
    bad_y[3] = bad;
    EXPECT_EQ(tree.Fit(x, bad_y).code(), StatusCode::kInvalidArgument);
    EXPECT_FALSE(tree.fitted());
  }
}

TEST(RegressionTreeTest, LearnsStepFunction) {
  Rng rng(1);
  std::vector<double> y;
  const FeatureMatrix x = MakeStepData(&y, 200, rng);
  RegressionTree tree;
  ASSERT_TRUE(tree.Fit(x, y).ok());
  EXPECT_NEAR(tree.Predict({0.2, 0.5, 0.5}), 1.0, 0.2);
  EXPECT_NEAR(tree.Predict({0.8, 0.5, 0.5}), 5.0, 0.2);
}

TEST(RegressionTreeTest, SplitCountsIdentifyInformativeFeature) {
  Rng rng(2);
  std::vector<double> y;
  const FeatureMatrix x = MakeStepData(&y, 300, rng);
  RegressionTree tree;
  ASSERT_TRUE(tree.Fit(x, y).ok());
  const auto& counts = tree.split_counts();
  EXPECT_GE(counts[0], 1u);
  // The informative feature dominates the impurity importance.
  const auto& importance = tree.impurity_importance();
  EXPECT_GT(importance[0], 10.0 * (importance[1] + importance[2] + 1e-12));
}

TEST(RegressionTreeTest, ConstantTargetGivesSingleLeaf) {
  RegressionTree tree;
  FeatureMatrix x = {{0.1}, {0.5}, {0.9}, {0.3}};
  std::vector<double> y = {2.0, 2.0, 2.0, 2.0};
  ASSERT_TRUE(tree.Fit(x, y).ok());
  EXPECT_EQ(tree.num_nodes(), 1u);
  EXPECT_DOUBLE_EQ(tree.Predict({0.7}), 2.0);
}

TEST(RegressionTreeTest, MinSamplesLeafRespected) {
  RegressionTreeOptions options;
  options.min_samples_leaf = 50;
  RegressionTree tree(options);
  Rng rng(3);
  std::vector<double> y;
  const FeatureMatrix x = MakeStepData(&y, 120, rng);
  ASSERT_TRUE(tree.Fit(x, y).ok());
  // With min_leaf=50 on 120 samples, at most 1 split level is possible.
  EXPECT_LE(tree.num_nodes(), 3u);
}

TEST(RegressionTreeTest, MaxDepthZeroIsLeafOnly) {
  RegressionTreeOptions options;
  options.max_depth = 0;
  RegressionTree tree(options);
  Rng rng(4);
  std::vector<double> y;
  const FeatureMatrix x = MakeStepData(&y, 50, rng);
  ASSERT_TRUE(tree.Fit(x, y).ok());
  EXPECT_EQ(tree.num_nodes(), 1u);
}

TEST(RegressionTreeTest, LeafBoxesPartitionUnitCube) {
  Rng rng(5);
  std::vector<double> y;
  const FeatureMatrix x = MakeStepData(&y, 200, rng);
  RegressionTree tree;
  ASSERT_TRUE(tree.Fit(x, y).ok());
  const auto boxes = tree.LeafBoxes();
  ASSERT_GE(boxes.size(), 2u);
  double total_volume = 0.0;
  for (const auto& box : boxes) {
    ASSERT_EQ(box.lower.size(), 3u);
    for (size_t d = 0; d < 3; ++d) {
      EXPECT_LE(box.lower[d], box.upper[d]);
      EXPECT_GE(box.lower[d], 0.0);
      EXPECT_LE(box.upper[d], 1.0);
    }
    total_volume += box.volume;
  }
  EXPECT_NEAR(total_volume, 1.0, 1e-9);
}

TEST(RegressionTreeTest, PredictionMatchesContainingBox) {
  Rng rng(6);
  std::vector<double> y;
  const FeatureMatrix x = MakeStepData(&y, 200, rng);
  RegressionTree tree;
  ASSERT_TRUE(tree.Fit(x, y).ok());
  const auto boxes = tree.LeafBoxes();
  const std::vector<double> probe = {0.3, 0.6, 0.1};
  const double pred = tree.Predict(probe);
  bool matched = false;
  for (const auto& box : boxes) {
    bool inside = true;
    for (size_t d = 0; d < 3; ++d) {
      // Lower bound inclusive at 0, else follow split semantics loosely.
      if (probe[d] < box.lower[d] - 1e-12 || probe[d] > box.upper[d] + 1e-12) {
        inside = false;
        break;
      }
    }
    if (inside && std::abs(box.value - pred) < 1e-12) matched = true;
  }
  EXPECT_TRUE(matched);
}

TEST(RegressionTreeTest, RefitReplacesModel) {
  RegressionTree tree;
  ASSERT_TRUE(tree.Fit({{0.0}, {1.0}, {0.1}, {0.9}}, {0, 10, 0, 10}).ok());
  const double before = tree.Predict({0.05});
  ASSERT_TRUE(tree.Fit({{0.0}, {1.0}, {0.1}, {0.9}}, {5, 5, 5, 5}).ok());
  EXPECT_DOUBLE_EQ(tree.Predict({0.05}), 5.0);
  EXPECT_NE(before, 5.0);
}

TEST(RegressionTreeTest, FeatureSubsamplingStillLearns) {
  RegressionTreeOptions options;
  options.max_features = 1;
  options.seed = 11;
  RegressionTree tree(options);
  Rng rng(7);
  std::vector<double> y;
  const FeatureMatrix x = MakeStepData(&y, 400, rng);
  ASSERT_TRUE(tree.Fit(x, y).ok());
  // With random single-feature tries it still separates the step given
  // enough depth.
  EXPECT_LT(tree.Predict({0.1, 0.5, 0.5}), tree.Predict({0.9, 0.5, 0.5}));
}

}  // namespace
}  // namespace dbtune
