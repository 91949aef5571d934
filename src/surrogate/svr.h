#ifndef DBTUNE_SURROGATE_SVR_H_
#define DBTUNE_SURROGATE_SVR_H_

#include <vector>

#include "surrogate/regressor.h"

namespace dbtune {

/// Hyper-parameters of the support-vector regressor.
struct SvrOptions {
  /// Epsilon-insensitive tube half-width (in standardized target units).
  double epsilon = 0.05;
  /// When set, uses random Fourier features of an RBF kernel; a linear
  /// model otherwise. Approximates kernel SVR without a QP solver.
  size_t num_fourier_features = 256;
  double rbf_gamma = 1.0;
};

/// Epsilon-insensitive support-vector regression trained with averaged
/// stochastic subgradient descent, optionally on random Fourier features
/// (Rahimi-Recht) to approximate the RBF kernel. Stands in for the paper's
/// SVR/NuSVR surrogate candidates (Table 9); both paper variants optimize
/// the same epsilon-insensitive objective, differing only in how the tube
/// width is parameterized.
class SupportVectorRegressor final : public Regressor {
 public:
  explicit SupportVectorRegressor(SvrOptions options = {});

  Status Fit(const FeatureMatrix& x, const std::vector<double>& y) override;
  double Predict(const std::vector<double>& x) const override;
  std::string name() const override { return "SVR"; }

 private:
  std::vector<double> Features(const std::vector<double>& x) const;

  SvrOptions options_;
  size_t input_dim_ = 0;
  // Random Fourier projection (empty when linear).
  FeatureMatrix fourier_w_;
  std::vector<double> fourier_b_;
  std::vector<double> weights_;
  double bias_ = 0.0;
  double y_mean_ = 0.0;
  double y_scale_ = 1.0;
  bool fitted_ = false;
};

}  // namespace dbtune

#endif  // DBTUNE_SURROGATE_SVR_H_
