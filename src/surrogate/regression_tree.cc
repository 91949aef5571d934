#include "surrogate/regression_tree.h"

#include <algorithm>
#include <limits>
#include <numeric>

#include "util/logging.h"

namespace dbtune {

Result<PresortedSamples> PresortedSamples::Sort(
    const FeatureMatrix& x, const std::vector<double>& y) {
  DBTUNE_RETURN_IF_ERROR(ValidateTrainingData(x, y));
  if (x.size() > std::numeric_limits<uint32_t>::max()) {
    return Status::InvalidArgument("training set too large for a tree");
  }
  const size_t n = x.size();
  const size_t d = x.front().size();
  PresortedSamples out;
  out.num_features_ = d;
  out.values_.resize(d * n);
  for (size_t i = 0; i < n; ++i) {
    for (size_t f = 0; f < d; ++f) out.values_[f * n + i] = x[i][f];
  }
  out.targets_ = y;
  out.order_.resize(d * n);
  const double* targets = out.targets_.data();
  for (size_t f = 0; f < d; ++f) {
    uint32_t* ids = out.order_.data() + f * n;
    std::iota(ids, ids + n, uint32_t{0});
    const double* column = out.values_.data() + f * n;
    // Exactly std::pair<double, double>'s operator<, so each node's
    // segment reads as the (value, target) pairs a per-node sort yields.
    std::sort(ids, ids + n, [&](uint32_t a, uint32_t b) {
      return column[a] < column[b] ||
             (!(column[b] < column[a]) && targets[a] < targets[b]);
    });
  }
  return out;
}

RegressionTree::RegressionTree(RegressionTreeOptions options)
    : options_(options), rng_(options.seed) {}

Status RegressionTree::Fit(const FeatureMatrix& x,
                           const std::vector<double>& y) {
  DBTUNE_ASSIGN_OR_RETURN(const PresortedSamples samples,
                          PresortedSamples::Sort(x, y));
  std::vector<size_t> all(x.size());
  std::iota(all.begin(), all.end(), size_t{0});
  Grow(samples, all);
  return Status::OK();
}

// Per-tree growth state over sample ids of the shared `samples`; a sample
// picked k times appears k times. `indices` holds each node's samples in
// the order std::partition leaves them, which fixes the summation order
// of the node's moments; `order` holds the same samples per feature in
// (value, target) order, kept sorted per node by stable partitioning.
struct RegressionTree::Growth {
  const PresortedSamples& samples;
  std::vector<uint32_t> indices;
  std::vector<uint32_t> order;     // order[f * n + k], n = picks
  std::vector<uint8_t> goes_left;  // per sample id, for the split applied
  std::vector<uint32_t> right;     // scratch of the stable partition
};

void RegressionTree::Grow(const PresortedSamples& samples,
                          const std::vector<size_t>& picks) {
  num_features_ = samples.num_features();
  nodes_.clear();
  split_counts_.assign(num_features_, 0);
  impurity_importance_.assign(num_features_, 0.0);

  const size_t source_n = samples.num_samples();
  const size_t n = picks.size();
  DBTUNE_CHECK_MSG(n > 0, "Grow on an empty sample");
  // Up to kBurst copies of a sample are written unconditionally, so
  // `order` carries kBurst slots of slack past the last feature.
  constexpr size_t kBurst = 4;
  Growth growth{samples, std::vector<uint32_t>(n),
                std::vector<uint32_t>(num_features_ * n + kBurst),
                std::vector<uint8_t>(source_n), std::vector<uint32_t>(n)};
  // Copies of one sample carry identical (value, target) pairs, so walking
  // the shared order and emitting each sample as often as it was picked
  // yields this tree's order: a counting pass, no sort.
  std::vector<uint32_t> copies(source_n, 0);
  for (size_t i = 0; i < n; ++i) {
    DBTUNE_CHECK(picks[i] < source_n);
    growth.indices[i] = static_cast<uint32_t>(picks[i]);
    ++copies[picks[i]];
  }
  for (size_t f = 0; f < num_features_; ++f) {
    const uint32_t* ids = samples.order_.data() + f * source_n;
    uint32_t* out = growth.order.data() + f * n;
    for (size_t k = 0; k < source_n; ++k) {
      const uint32_t sample = ids[k];
      const uint32_t count = copies[sample];
      // Branch-free for the usual 0..kBurst copies; slots past `count`
      // are overwritten by the next samples (or the next feature).
      for (size_t c = 0; c < kBurst; ++c) out[c] = sample;
      for (size_t c = kBurst; c < count; ++c) out[c] = sample;
      out += count;
    }
  }
  Build(growth, 0, n, 0);
}

namespace {

// Sum and sum-of-squares over a sample range.
struct Moments {
  double sum = 0.0;
  double sum_sq = 0.0;
  size_t n = 0;

  void Add(double v) {
    sum += v;
    sum_sq += v * v;
    ++n;
  }
  double Mean() const { return n ? sum / static_cast<double>(n) : 0.0; }
  // Sum of squared deviations (n * variance).
  double Sse() const {
    if (n == 0) return 0.0;
    return sum_sq - sum * sum / static_cast<double>(n);
  }
};

}  // namespace

int RegressionTree::Build(Growth& growth, size_t begin, size_t end,
                          size_t depth) {
  const PresortedSamples& samples = growth.samples;
  const size_t num_samples = samples.num_samples();
  const size_t num_picks = growth.indices.size();
  const double* targets = samples.targets_.data();
  const size_t n = end - begin;
  Moments total;
  for (size_t i = begin; i < end; ++i) total.Add(targets[growth.indices[i]]);

  const int node_index = static_cast<int>(nodes_.size());
  nodes_.push_back(Node{});
  nodes_[node_index].value = total.Mean();

  const bool can_split = n >= options_.min_samples_split &&
                         depth < options_.max_depth && total.Sse() > 1e-12;
  if (!can_split) return node_index;

  // Pick the candidate features for this split.
  size_t tries = options_.max_features == 0
                     ? num_features_
                     : std::min(options_.max_features, num_features_);
  std::vector<size_t> features;
  if (tries == num_features_) {
    features.resize(num_features_);
    std::iota(features.begin(), features.end(), size_t{0});
  } else {
    features = rng_.SampleWithoutReplacement(num_features_, tries);
  }

  double best_gain = 0.0;
  int best_feature = -1;
  double best_threshold = 0.0;

  for (size_t f : features) {
    const double* column = samples.values_.data() + f * num_samples;
    const uint32_t* ids = growth.order.data() + f * num_picks + begin;
    if (column[ids[0]] == column[ids[n - 1]]) continue;

    Moments left;
    Moments right = total;
    // Scan split positions between distinct feature values.
    for (size_t i = 0; i + 1 < n; ++i) {
      const double target = targets[ids[i]];
      left.Add(target);
      right.sum -= target;
      right.sum_sq -= target * target;
      --right.n;
      const double value = column[ids[i]];
      const double next = column[ids[i + 1]];
      if (value == next) continue;
      if (left.n < options_.min_samples_leaf ||
          right.n < options_.min_samples_leaf) {
        continue;
      }
      const double gain = total.Sse() - left.Sse() - right.Sse();
      if (gain > best_gain) {
        best_gain = gain;
        best_feature = static_cast<int>(f);
        best_threshold = 0.5 * (value + next);
      }
    }
  }

  if (best_feature < 0) return node_index;

  // Partition indices around the threshold.
  const double* split_column =
      samples.values_.data() + static_cast<size_t>(best_feature) * num_samples;
  for (size_t i = begin; i < end; ++i) {
    const uint32_t sample = growth.indices[i];
    growth.goes_left[sample] = split_column[sample] <= best_threshold;
  }
  const auto mid_iter = std::partition(
      growth.indices.begin() + static_cast<long>(begin),
      growth.indices.begin() + static_cast<long>(end),
      [&](uint32_t sample) { return growth.goes_left[sample] != 0; });
  const size_t mid = static_cast<size_t>(mid_iter - growth.indices.begin());
  if (mid == begin || mid == end) return node_index;  // degenerate split

  ++split_counts_[static_cast<size_t>(best_feature)];
  impurity_importance_[static_cast<size_t>(best_feature)] += best_gain;

  // Split every feature's segment into the children's, each still in
  // (value, target) order. A child that can never split never reads its
  // segments, so the work is skipped when neither child can.
  const bool child_depth_ok = depth + 1 < options_.max_depth;
  const bool left_may_split =
      child_depth_ok && mid - begin >= options_.min_samples_split;
  const bool right_may_split =
      child_depth_ok && end - mid >= options_.min_samples_split;
  if (left_may_split || right_may_split) {
    const uint8_t* goes_left = growth.goes_left.data();
    uint32_t* right = growth.right.data();
    for (size_t f = 0; f < num_features_; ++f) {
      uint32_t* ids = growth.order.data() + f * num_picks;
      size_t to_left = begin;
      size_t to_right = 0;
      for (size_t k = begin; k < end; ++k) {
        const uint32_t sample = ids[k];
        const size_t is_left = goes_left[sample];
        ids[to_left] = sample;
        right[to_right] = sample;
        to_left += is_left;
        to_right += 1 - is_left;
      }
      std::copy(right, right + to_right, ids + mid);
    }
  }

  nodes_[node_index].feature = best_feature;
  nodes_[node_index].threshold = best_threshold;
  const int left_child = Build(growth, begin, mid, depth + 1);
  nodes_[node_index].left = left_child;
  const int right_child = Build(growth, mid, end, depth + 1);
  nodes_[node_index].right = right_child;
  return node_index;
}

double RegressionTree::Predict(const std::vector<double>& x) const {
  DBTUNE_CHECK_MSG(fitted(), "Predict before Fit");
  DBTUNE_CHECK(x.size() == num_features_);
  int node = 0;
  while (nodes_[node].feature >= 0) {
    const Node& n = nodes_[node];
    node = x[static_cast<size_t>(n.feature)] <= n.threshold ? n.left : n.right;
  }
  return nodes_[node].value;
}

void RegressionTree::CollectBoxes(int node, std::vector<double>& lower,
                                  std::vector<double>& upper,
                                  std::vector<LeafBox>* out) const {
  const Node& n = nodes_[node];
  if (n.feature < 0) {
    LeafBox box;
    box.lower = lower;
    box.upper = upper;
    box.value = n.value;
    box.volume = 1.0;
    for (size_t d = 0; d < lower.size(); ++d) {
      box.volume *= std::max(0.0, upper[d] - lower[d]);
    }
    out->push_back(std::move(box));
    return;
  }
  const size_t f = static_cast<size_t>(n.feature);
  const double saved_upper = upper[f];
  const double saved_lower = lower[f];
  upper[f] = std::min(saved_upper, n.threshold);
  CollectBoxes(n.left, lower, upper, out);
  upper[f] = saved_upper;
  lower[f] = std::max(saved_lower, n.threshold);
  CollectBoxes(n.right, lower, upper, out);
  lower[f] = saved_lower;
}

std::vector<RegressionTree::LeafBox> RegressionTree::LeafBoxes() const {
  DBTUNE_CHECK_MSG(fitted(), "LeafBoxes before Fit");
  std::vector<LeafBox> out;
  std::vector<double> lower(num_features_, 0.0);
  std::vector<double> upper(num_features_, 1.0);
  CollectBoxes(0, lower, upper, &out);
  return out;
}

}  // namespace dbtune
