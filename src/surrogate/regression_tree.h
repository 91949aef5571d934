#ifndef DBTUNE_SURROGATE_REGRESSION_TREE_H_
#define DBTUNE_SURROGATE_REGRESSION_TREE_H_

#include <cstdint>
#include <vector>

#include "surrogate/regressor.h"
#include "util/random.h"

namespace dbtune {

/// Hyper-parameters of a CART regression tree.
struct RegressionTreeOptions {
  size_t max_depth = 18;
  size_t min_samples_split = 4;
  size_t min_samples_leaf = 2;
  /// Number of features tried per split; 0 means all features.
  size_t max_features = 0;
  uint64_t seed = 17;
};

/// A training set laid out for tree growth: feature-major columns and, per
/// feature, the sample ids in ascending (value, target) order. The sort
/// happens once per training set; every tree grown from it derives its
/// own sample's orders by counting, and keeps each node's segment sorted
/// by stable partitioning, so no node sorts anything.
class PresortedSamples {
 public:
  /// Validates (x, y) through `ValidateTrainingData` (its finiteness
  /// check is what gives the (value, target) order a strict weak
  /// ordering) and sorts each feature's sample ids once.
  [[nodiscard]] static Result<PresortedSamples> Sort(
      const FeatureMatrix& x, const std::vector<double>& y);

  size_t num_samples() const { return targets_.size(); }
  size_t num_features() const { return num_features_; }

 private:
  friend class RegressionTree;

  size_t num_features_ = 0;
  std::vector<double> values_;   // values_[f * n + i]: feature f of sample i
  std::vector<double> targets_;  // targets_[i]
  std::vector<uint32_t> order_;  // order_[f * n + k]: k-th id by (value, target)
};

/// CART regression tree with variance-reduction splits. Building block of
/// the random forest and gradient boosting; also exposes the structure
/// needed by fANOVA (leaf partition boxes) and the Gini importance (split
/// counts).
class RegressionTree final : public Regressor {
 public:
  /// An axis-aligned box a leaf covers, with the leaf's prediction.
  /// Bounds default to [0,1] per dimension (unit-encoded inputs).
  struct LeafBox {
    std::vector<double> lower;
    std::vector<double> upper;
    double value = 0.0;
    /// Fraction of unit-cube volume covered (product of side lengths).
    double volume = 1.0;
  };

  explicit RegressionTree(RegressionTreeOptions options = {});

  /// Sorts (x, y) into `PresortedSamples` and grows from them. Fails on
  /// empty, ragged or non-finite input.
  Status Fit(const FeatureMatrix& x, const std::vector<double>& y) override;
  /// Grows the tree on the samples `picks` of `samples` (non-empty ids
  /// below `samples.num_samples()`, repeats allowed: a bootstrap draw).
  /// Same tree as `Fit` on the rows x[picks[0]], x[picks[1]], ...;
  /// O(d * (picks + samples)) set-up, no sorting.
  void Grow(const PresortedSamples& samples, const std::vector<size_t>& picks);
  double Predict(const std::vector<double>& x) const override;
  std::string name() const override { return "Tree"; }

  /// Number of times each feature was used in a split.
  const std::vector<size_t>& split_counts() const { return split_counts_; }

  /// Total variance reduction attributed to each feature (impurity
  /// importance).
  const std::vector<double>& impurity_importance() const {
    return impurity_importance_;
  }

  /// Leaf partition boxes over the unit cube (for fANOVA). Input features
  /// are assumed to lie in [0,1].
  std::vector<LeafBox> LeafBoxes() const;

  /// One tree node; node 0 is the root, children follow in DFS order.
  struct Node {
    int feature = -1;          // -1 for leaves
    double threshold = 0.0;    // goes left when x[feature] <= threshold
    int left = -1;
    int right = -1;
    double value = 0.0;        // mean of the node's samples
  };

  const std::vector<Node>& nodes() const { return nodes_; }
  size_t num_nodes() const { return nodes_.size(); }
  bool fitted() const { return !nodes_.empty(); }

 private:
  struct Growth;

  // Recursively grows the node over segment [begin, end) of the growth
  // state's sample lists; returns the node index.
  int Build(Growth& growth, size_t begin, size_t end, size_t depth);

  void CollectBoxes(int node, std::vector<double>& lower,
                    std::vector<double>& upper,
                    std::vector<LeafBox>* out) const;

  RegressionTreeOptions options_;
  size_t num_features_ = 0;
  std::vector<Node> nodes_;
  std::vector<size_t> split_counts_;
  std::vector<double> impurity_importance_;
  Rng rng_;
};

}  // namespace dbtune

#endif  // DBTUNE_SURROGATE_REGRESSION_TREE_H_
