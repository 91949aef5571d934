#include "surrogate/kernels.h"

#include <cmath>

#include "util/logging.h"

namespace dbtune {

namespace {
// Mean squared difference per dimension.
double MeanSquaredDiff(const std::vector<double>& a,
                       const std::vector<double>& b) {
  DBTUNE_CHECK(a.size() == b.size() && !a.empty());
  double s = 0.0;
  for (size_t i = 0; i < a.size(); ++i) {
    const double d = a[i] - b[i];
    s += d * d;
  }
  return s / static_cast<double>(a.size());
}
}  // namespace

double RbfKernel::Compute(const std::vector<double>& a,
                          const std::vector<double>& b,
                          double lengthscale) const {
  const double r2 = MeanSquaredDiff(a, b) / (lengthscale * lengthscale);
  return std::exp(-0.5 * r2);
}

double Matern52Kernel::Compute(const std::vector<double>& a,
                               const std::vector<double>& b,
                               double lengthscale) const {
  const double r = std::sqrt(MeanSquaredDiff(a, b)) / lengthscale;
  const double sqrt5_r = std::sqrt(5.0) * r;
  return (1.0 + sqrt5_r + 5.0 * r * r / 3.0) * std::exp(-sqrt5_r);
}

double HammingKernel::Compute(const std::vector<double>& a,
                              const std::vector<double>& b,
                              double lengthscale) const {
  DBTUNE_CHECK(a.size() == b.size() && !a.empty());
  size_t differing = 0;
  for (size_t i = 0; i < a.size(); ++i) {
    if (std::abs(a[i] - b[i]) > 1e-9) ++differing;
  }
  const double h =
      static_cast<double>(differing) / static_cast<double>(a.size());
  return std::exp(-h / lengthscale);
}

MixedKernel::MixedKernel(std::vector<bool> is_categorical)
    : is_categorical_(std::move(is_categorical)) {}

double MixedKernel::Compute(const std::vector<double>& a,
                            const std::vector<double>& b,
                            double lengthscale) const {
  DBTUNE_CHECK(a.size() == b.size() && a.size() == is_categorical_.size());
  double cont_r2 = 0.0;
  size_t cont_n = 0;
  size_t cat_diff = 0;
  size_t cat_n = 0;
  for (size_t i = 0; i < a.size(); ++i) {
    if (is_categorical_[i]) {
      ++cat_n;
      if (std::abs(a[i] - b[i]) > 1e-9) ++cat_diff;
    } else {
      const double d = a[i] - b[i];
      cont_r2 += d * d;
      ++cont_n;
    }
  }
  double k = 1.0;
  if (cont_n > 0) {
    const double r =
        std::sqrt(cont_r2 / static_cast<double>(cont_n)) / lengthscale;
    const double sqrt5_r = std::sqrt(5.0) * r;
    k *= (1.0 + sqrt5_r + 5.0 * r * r / 3.0) * std::exp(-sqrt5_r);
  }
  if (cat_n > 0) {
    const double h =
        static_cast<double>(cat_diff) / static_cast<double>(cat_n);
    k *= std::exp(-h / lengthscale);
  }
  return k;
}

}  // namespace dbtune
