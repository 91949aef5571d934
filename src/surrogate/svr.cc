#include "surrogate/svr.h"

#include <cmath>

#include "util/logging.h"
#include "util/random.h"
#include "util/stats.h"

namespace dbtune {

namespace {
/// Regularization strength (inverse of C).
constexpr double kLambda = 1e-4;
/// SGD epochs; the step size decays from `kLearningRate` by epoch.
constexpr size_t kEpochs = 60;
constexpr double kLearningRate = 0.05;
/// Seed of the Fourier features and the per-epoch shuffles.
constexpr uint64_t kSeed = 31;
}  // namespace

SupportVectorRegressor::SupportVectorRegressor(SvrOptions options)
    : options_(options) {}

std::vector<double> SupportVectorRegressor::Features(
    const std::vector<double>& x) const {
  if (fourier_w_.empty()) return x;
  std::vector<double> out(fourier_w_.size());
  const double scale = std::sqrt(2.0 / static_cast<double>(fourier_w_.size()));
  for (size_t f = 0; f < fourier_w_.size(); ++f) {
    double acc = fourier_b_[f];
    const std::vector<double>& row = fourier_w_[f];
    for (size_t j = 0; j < x.size(); ++j) acc += row[j] * x[j];
    out[f] = scale * std::cos(acc);
  }
  return out;
}

Status SupportVectorRegressor::Fit(const FeatureMatrix& x,
                                   const std::vector<double>& y) {
  DBTUNE_RETURN_IF_ERROR(ValidateTrainingData(x, y));
  const size_t n = x.size();
  input_dim_ = x.front().size();

  Rng rng(kSeed);
  fourier_w_.clear();
  fourier_b_.clear();
  if (options_.num_fourier_features > 0) {
    const double omega_scale = std::sqrt(2.0 * options_.rbf_gamma);
    fourier_w_.resize(options_.num_fourier_features);
    fourier_b_.resize(options_.num_fourier_features);
    for (size_t f = 0; f < options_.num_fourier_features; ++f) {
      fourier_w_[f].resize(input_dim_);
      for (double& w : fourier_w_[f]) w = rng.Gaussian(0.0, omega_scale);
      fourier_b_[f] = rng.Uniform(0.0, 2.0 * M_PI);
    }
  }

  // Standardize targets so epsilon has a consistent meaning.
  const ScoreMoments moments = ScoreMomentsOf(y);
  y_mean_ = moments.mean;
  y_scale_ = moments.sd;

  // Precompute feature maps once.
  FeatureMatrix phi(n);
  for (size_t i = 0; i < n; ++i) phi[i] = Features(x[i]);
  const size_t d = phi.front().size();

  weights_.assign(d, 0.0);
  bias_ = 0.0;
  std::vector<double> avg_weights(d, 0.0);
  double avg_bias = 0.0;
  size_t updates = 0;

  for (size_t epoch = 0; epoch < kEpochs; ++epoch) {
    std::vector<size_t> order = rng.Permutation(n);
    const double lr = kLearningRate / (1.0 + 0.2 * static_cast<double>(epoch));
    for (size_t i : order) {
      const std::vector<double>& f = phi[i];
      double pred = bias_;
      for (size_t j = 0; j < d; ++j) pred += weights_[j] * f[j];
      const double target = (y[i] - y_mean_) / y_scale_;
      const double err = pred - target;
      double g = 0.0;  // subgradient of epsilon-insensitive loss
      if (err > options_.epsilon) {
        g = 1.0;
      } else if (err < -options_.epsilon) {
        g = -1.0;
      }
      for (size_t j = 0; j < d; ++j) {
        weights_[j] -= lr * (g * f[j] + kLambda * weights_[j]);
      }
      bias_ -= lr * g;
      // Polyak-Ruppert averaging stabilizes the SGD solution.
      ++updates;
      const double k = 1.0 / static_cast<double>(updates);
      for (size_t j = 0; j < d; ++j) {
        avg_weights[j] += (weights_[j] - avg_weights[j]) * k;
      }
      avg_bias += (bias_ - avg_bias) * k;
    }
  }
  weights_ = std::move(avg_weights);
  bias_ = avg_bias;
  fitted_ = true;
  return Status::OK();
}

double SupportVectorRegressor::Predict(const std::vector<double>& x) const {
  DBTUNE_CHECK_MSG(fitted_, "Predict before Fit");
  DBTUNE_CHECK(x.size() == input_dim_);
  const std::vector<double> f = Features(x);
  double pred = bias_;
  for (size_t j = 0; j < f.size(); ++j) pred += weights_[j] * f[j];
  return pred * y_scale_ + y_mean_;
}

}  // namespace dbtune
