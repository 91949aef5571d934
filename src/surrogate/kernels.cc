#include "surrogate/kernels.h"

#include <cmath>

#include "util/logging.h"

namespace dbtune {

namespace {

// Categorical entries closer than this count as equal.
constexpr double kSameCategory = 1e-9;

void CheckBlock(size_t stride, size_t m, size_t d) {
  DBTUNE_CHECK(d > 0 && m >= 1 && m <= Kernel::kMaxBlock && stride >= m);
}

// sums[r] = sum over t ascending of (row[t] - q_r[t])^2. The outer loop
// walks dimensions so the m accumulators advance side by side; each one
// still adds its terms in the per-pair order.
void SquaredDiffSums(const double* row, const double* queries, size_t stride,
                     size_t m, size_t d, double* sums) {
  for (size_t r = 0; r < m; ++r) sums[r] = 0.0;
  for (size_t t = 0; t < d; ++t) {
    const double a = row[t];
    const double* q = queries + t * stride;
    for (size_t r = 0; r < m; ++r) {
      const double diff = a - q[r];
      sums[r] += diff * diff;
    }
  }
}

// The kernel formulas, each written once and shared by Compute (a
// one-query block) and the blocks. `mean_sq` is a mean squared difference
// per dimension; `fraction` a fraction of differing entries. RBF and
// Matérn are split before their std::exp: the first half (divisions, a
// square root) runs over the whole block in one loop the compiler
// vectorizes, with the same IEEE operations per query; the second half
// calls the scalar std::exp.
double RbfScaledSq(double mean_sq, double lengthscale) {
  return mean_sq / (lengthscale * lengthscale);
}

double RbfOf(double scaled_sq) { return std::exp(-0.5 * scaled_sq); }

double Matern52Scaled(double mean_sq, double lengthscale) {
  return std::sqrt(mean_sq) / lengthscale;
}

double Matern52Of(double r) {
  const double sqrt5_r = std::sqrt(5.0) * r;
  return (1.0 + sqrt5_r + 5.0 * r * r / 3.0) * std::exp(-sqrt5_r);
}

double HammingOf(double fraction, double lengthscale) {
  return std::exp(-fraction / lengthscale);
}

}  // namespace

double Kernel::Compute(const std::vector<double>& a,
                       const std::vector<double>& b,
                       double lengthscale) const {
  DBTUNE_CHECK(a.size() == b.size());
  double k = 0.0;
  ComputeBlock(a.data(), b.data(), /*stride=*/1, /*m=*/1, a.size(),
               lengthscale, &k);
  return k;
}

void RbfKernel::ComputeBlock(const double* row, const double* queries,
                             size_t stride, size_t m, size_t d,
                             double lengthscale, double* out) const {
  CheckBlock(stride, m, d);
  double sums[kMaxBlock];
  SquaredDiffSums(row, queries, stride, m, d, sums);
  const double dims = static_cast<double>(d);
  for (size_t r = 0; r < m; ++r) {
    sums[r] = RbfScaledSq(sums[r] / dims, lengthscale);
  }
  for (size_t r = 0; r < m; ++r) out[r] = RbfOf(sums[r]);
}

void Matern52Kernel::ComputeBlock(const double* row, const double* queries,
                                  size_t stride, size_t m, size_t d,
                                  double lengthscale, double* out) const {
  CheckBlock(stride, m, d);
  double sums[kMaxBlock];
  SquaredDiffSums(row, queries, stride, m, d, sums);
  const double dims = static_cast<double>(d);
  for (size_t r = 0; r < m; ++r) {
    sums[r] = Matern52Scaled(sums[r] / dims, lengthscale);
  }
  for (size_t r = 0; r < m; ++r) out[r] = Matern52Of(sums[r]);
}

void HammingKernel::ComputeBlock(const double* row, const double* queries,
                                 size_t stride, size_t m, size_t d,
                                 double lengthscale, double* out) const {
  CheckBlock(stride, m, d);
  // Mismatches are counted in doubles: the counts are exact integers, so
  // the quotient below is the one an integer count gives, and the count
  // loop has no branch.
  double differing[kMaxBlock] = {};
  for (size_t t = 0; t < d; ++t) {
    const double a = row[t];
    const double* q = queries + t * stride;
    for (size_t r = 0; r < m; ++r) {
      differing[r] += std::abs(a - q[r]) > kSameCategory ? 1.0 : 0.0;
    }
  }
  const double dims = static_cast<double>(d);
  for (size_t r = 0; r < m; ++r) {
    out[r] = HammingOf(differing[r] / dims, lengthscale);
  }
}

MixedKernel::MixedKernel(std::vector<bool> is_categorical)
    : is_categorical_(std::move(is_categorical)) {
  for (const bool categorical : is_categorical_) {
    if (categorical) ++num_categorical_;
  }
}

void MixedKernel::ComputeBlock(const double* row, const double* queries,
                               size_t stride, size_t m, size_t d,
                               double lengthscale, double* out) const {
  DBTUNE_CHECK(d == is_categorical_.size() && m >= 1 && m <= kMaxBlock &&
               stride >= m);
  double cont_r2[kMaxBlock] = {};
  double cat_diff[kMaxBlock] = {};  // exact counts, as in HammingKernel
  // The mask is per dimension, so the branch sits outside the query loop.
  for (size_t t = 0; t < d; ++t) {
    const double a = row[t];
    const double* q = queries + t * stride;
    if (is_categorical_[t]) {
      for (size_t r = 0; r < m; ++r) {
        cat_diff[r] += std::abs(a - q[r]) > kSameCategory ? 1.0 : 0.0;
      }
    } else {
      for (size_t r = 0; r < m; ++r) {
        const double diff = a - q[r];
        cont_r2[r] += diff * diff;
      }
    }
  }
  const size_t cat_n = num_categorical_;
  const size_t cont_n = d - cat_n;
  // The Hamming factor takes one of cat_n + 1 values. When that is fewer
  // than the block's queries, each value is computed once: the same call
  // on the same double, so the same bits.
  double hamming_by_count[kMaxBlock];
  const bool tabulated = cat_n > 0 && cat_n + 1 < m;
  if (tabulated) {
    for (size_t c = 0; c <= cat_n; ++c) {
      hamming_by_count[c] = HammingOf(
          static_cast<double>(c) / static_cast<double>(cat_n), lengthscale);
    }
  }
  if (cont_n > 0) {
    const double conts = static_cast<double>(cont_n);
    for (size_t r = 0; r < m; ++r) {
      cont_r2[r] = Matern52Scaled(cont_r2[r] / conts, lengthscale);
    }
  }
  for (size_t r = 0; r < m; ++r) {
    double k = 1.0;
    if (cont_n > 0) k *= Matern52Of(cont_r2[r]);
    if (tabulated) {
      k *= hamming_by_count[static_cast<size_t>(cat_diff[r])];
    } else if (cat_n > 0) {
      k *= HammingOf(cat_diff[r] / static_cast<double>(cat_n), lengthscale);
    }
    out[r] = k;
  }
}

}  // namespace dbtune
