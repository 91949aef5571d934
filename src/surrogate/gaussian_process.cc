#include "surrogate/gaussian_process.h"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/logging.h"
#include "util/thread_pool.h"

namespace dbtune {

GaussianProcess::GaussianProcess(std::shared_ptr<const Kernel> kernel,
                                 GaussianProcessOptions options)
    : kernel_(std::move(kernel)), policy_(std::move(options)) {
  DBTUNE_CHECK(kernel_ != nullptr);
}

void GaussianProcess::KernelAgainstTraining(const double* row, size_t begin,
                                            size_t end, double lengthscale,
                                            double* out) const {
  for (size_t j = begin; j < end; j += Kernel::kMaxBlock) {
    const size_t m = std::min(Kernel::kMaxBlock, end - j);
    kernel_->ComputeBlock(row, x_cols_.data() + j, /*stride=*/n_, m, dim_,
                          lengthscale, out + (j - begin));
  }
}

Matrix GaussianProcess::AssembleKernelMatrix(const FeatureMatrix& x,
                                             double lengthscale) const {
  const size_t n = n_;
  Matrix k(n, n);
  // Row i fills k(i, i..n) and mirrors into k(i..n, i): each (i, j) pair
  // is owned by exactly one i, so rows parallelize without overlap. The
  // small grain compensates for the triangular (shrinking) row cost.
  ParallelFor(GlobalPool(), 0, n, /*grain=*/8, [&](size_t begin, size_t end) {
    for (size_t i = begin; i < end; ++i) {
      double* row_i = k.RowPtr(i);
      KernelAgainstTraining(x[i].data(), i, n, lengthscale, row_i + i);
      for (size_t j = i + 1; j < n; ++j) k(j, i) = row_i[j];
    }
  });
  return k;
}

Result<double> GaussianProcess::FactorizeWith(const Matrix& k_base,
                                              double noise,
                                              FitState* state) const {
  const size_t n = n_;
  const std::vector<double>& y = policy_.y_standardized();
  Matrix k = k_base;
  k.AddDiagonal(noise + 1e-10);
  DBTUNE_RETURN_IF_ERROR(CholeskyFactorize(&k));
  // alpha = K^-1 y via two triangular solves.
  std::vector<double> tmp = SolveLowerTriangular(k, y);
  std::vector<double> alpha = SolveUpperTriangularFromLower(k, tmp);

  double lml = -0.5 * Dot(y, alpha);
  for (size_t i = 0; i < n; ++i) lml -= std::log(k(i, i));
  lml -= 0.5 * static_cast<double>(n) * std::log(2.0 * M_PI);

  state->chol = std::move(k);
  state->alpha = std::move(alpha);
  return lml;
}

Result<double> GaussianProcess::FitIncremental(const FeatureMatrix& x,
                                               size_t old_n) {
  static obs::Histogram& incremental_hist =
      obs::MetricsRegistry::Get().histogram("gp.fit.incremental");
  obs::ScopedLatency incremental_latency(&incremental_hist);
  const size_t n = n_;
  // Grow the factor: the leading old_n x old_n block of L depends only on
  // the leading block of K, so it is copied verbatim (new columns stay
  // zero, matching the zeroed upper triangle of CholeskyFactorize).
  Matrix l(n, n, 0.0);
  for (size_t r = 0; r < old_n; ++r) {
    std::memcpy(l.RowPtr(r), chol_.RowPtr(r), old_n * sizeof(double));
  }
  const double lengthscale = policy_.lengthscale();
  // FactorizeWith's AddDiagonal addend.
  const double diagonal_jitter = policy_.noise() + 1e-10;
  for (size_t i = old_n; i < n; ++i) {
    double* row_i = l.RowPtr(i);
    // Border of the Gram matrix: k(i, j) for j <= i. The full assembly
    // computes k(j, i) (row j owns the pair); every kernel is bitwise
    // symmetric (it sees x_j - x_i only through its square or absolute
    // value, and IEEE subtraction is sign-symmetric), so the appended
    // values are bitwise those of a from-scratch build.
    ParallelFor(GlobalPool(), 0, i, /*grain=*/64,
                [&](size_t begin, size_t end) {
                  KernelAgainstTraining(x[i].data(), begin, end, lengthscale,
                                        row_i + begin);
                });
    KernelAgainstTraining(x[i].data(), i, i + 1, lengthscale, row_i + i);
    row_i[i] += diagonal_jitter;
    // Forward-solve the new row against the existing factor; identical
    // inner-loop order to CholeskyFactorize, so the extended factor is
    // bitwise what a full refactorization would produce.
    for (size_t j = 0; j < i; ++j) {
      const double* row_j = l.RowPtr(j);
      double s = row_i[j];
      for (size_t k = 0; k < j; ++k) s -= row_i[k] * row_j[k];
      row_i[j] = s / row_j[j];
    }
    double d = row_i[i];
    for (size_t k = 0; k < i; ++k) d -= row_i[k] * row_i[k];
    if (d <= 0.0 || !std::isfinite(d)) {
      return Status::Internal("matrix is not positive definite");
    }
    row_i[i] = std::sqrt(d);
  }

  // Targets are re-standardized every fit, so alpha and the LML are
  // recomputed from scratch — O(n^2), same arithmetic as FactorizeWith.
  const std::vector<double>& y = policy_.y_standardized();
  std::vector<double> tmp = SolveLowerTriangular(l, y);
  std::vector<double> alpha = SolveUpperTriangularFromLower(l, tmp);

  double lml = -0.5 * Dot(y, alpha);
  for (size_t i = 0; i < n; ++i) lml -= std::log(l(i, i));
  lml -= 0.5 * static_cast<double>(n) * std::log(2.0 * M_PI);

  chol_ = std::move(l);
  alpha_ = std::move(alpha);
  factor_cached_ = true;
  return lml;
}

Status GaussianProcess::Fit(const FeatureMatrix& x,
                            const std::vector<double>& y) {
  static obs::Histogram& fit_hist =
      obs::MetricsRegistry::Get().histogram("gp.fit");
  obs::ScopedLatency fit_latency(&fit_hist);
  DBTUNE_TRACE_SPAN("gp.fit");
  DBTUNE_RETURN_IF_ERROR(ValidateTrainingData(x, y));

  // Does the new training set extend the previous one (same rows plus
  // appended ones)? Decides both the incremental-append eligibility and
  // the hyper-parameter staleness reset below; compared bitwise before
  // the stored inputs are overwritten.
  const size_t old_n = n_;
  bool extends_history = policy_.fitted() && x.size() >= old_n &&
                         old_n > 0 && x.front().size() == dim_;
  for (size_t r = 0; extends_history && r < old_n; ++r) {
    for (size_t t = 0; extends_history && t < dim_; ++t) {
      extends_history = x[r][t] == x_cols_[t * old_n + r];
    }
  }
  const bool can_append = extends_history && factor_cached_;
  factor_cached_ = false;  // re-established only by a successful fit
  n_ = x.size();
  dim_ = x.front().size();
  // assign() sizes a grown buffer exactly, with no doubling slack: every
  // resident session holds one.
  x_cols_.assign(dim_ * n_, 0.0);
  for (size_t j = 0; j < n_; ++j) {
    for (size_t t = 0; t < dim_; ++t) x_cols_[t * n_ + j] = x[j][t];
  }

  // A shrunk or wholesale-replaced training set invalidates the cached
  // hyper-parameters along with the factor (e.g. a TuRBO restart must
  // not inherit a dead trust region's lengthscale): force a fresh grid
  // search instead of trusting the stale schedule.
  const bool reuse =
      policy_.Begin(y, /*stale=*/policy_.fitted() && !extends_history);
  if (reuse && policy_.options().enable_incremental && can_append) {
    Result<double> lml = FitIncremental(x, old_n);
    if (lml.ok()) {
      policy_.Accept(*lml);
      return Status::OK();
    }
    // Failed pivot: fall through to the full refactorization.
  }

  // The Gram depends on the lengthscale only, so it is assembled once per
  // lengthscale and shared across the noise grid (the noise enters
  // through the diagonal of the copy inside FactorizeWith).
  DBTUNE_ASSIGN_OR_RETURN(
      FitState best,
      policy_.Fit<FitState>(
          reuse,
          [this, &x](double lengthscale) -> Result<Matrix> {
            return AssembleKernelMatrix(x, lengthscale);
          },
          [this](const Matrix& k_base, double noise, FitState* state) {
            return FactorizeWith(k_base, noise, state);
          }));
  chol_ = std::move(best.chol);
  alpha_ = std::move(best.alpha);
  factor_cached_ = true;
  return Status::OK();
}

double GaussianProcess::Predict(const std::vector<double>& x) const {
  double mean = 0.0, variance = 0.0;
  PredictMeanVar(x, &mean, &variance);
  return mean;
}

void GaussianProcess::PredictMeanVar(const std::vector<double>& x,
                                     double* mean, double* variance) const {
  DBTUNE_CHECK_MSG(policy_.fitted(), "Predict before Fit");
  // No trace span here: predictions run thousands of times per suggest,
  // often from pool workers; a lock-free histogram is all it can afford.
  static obs::Histogram& predict_hist =
      obs::MetricsRegistry::Get().histogram("gp.predict");
  obs::ScopedLatency predict_latency(&predict_hist);
  DBTUNE_CHECK(x.size() == dim_);
  const size_t n = n_;
  // Per-thread scratch: each calling thread owns its own pair, so
  // concurrent callers from the acquisition loops are isolated. The
  // caller's buffer outlives the blocking ParallelFor below; workers
  // must write it through a pointer captured by value — naming the
  // thread_local inside the lambda would resolve to each worker's own
  // (empty, never-resized) instance and write out of bounds.
  static thread_local std::vector<double> k_star;
  static thread_local std::vector<double> v;
  k_star.resize(n);
  double* const k_star_out = k_star.data();
  const double lengthscale = policy_.lengthscale();
  // k(x, x_i) is bitwise k(x_i, x) (see FitIncremental), so the query
  // takes the row slot and the training inputs stream as kernel blocks.
  ParallelFor(GlobalPool(), 0, n, /*grain=*/64,
              [&, k_star_out](size_t begin, size_t end) {
                KernelAgainstTraining(x.data(), begin, end, lengthscale,
                                      k_star_out + begin);
              });

  double mu = Dot(k_star, alpha_);
  // v = L^-1 k_star; var = k(x,x) - v'v.
  SolveLowerTriangularInto(chol_, k_star, &v);
  double var = kernel_->Compute(x, x, lengthscale) - Dot(v, v);
  if (var < 1e-12) var = 1e-12;

  const double y_scale = policy_.y_scale();
  *mean = mu * y_scale + policy_.y_mean();
  *variance = var * y_scale * y_scale;
}

void GaussianProcess::PredictMeanVarBatch(
    const FeatureMatrix& xs, std::vector<double>* means,
    std::vector<double>* variances) const {
  DBTUNE_CHECK_MSG(policy_.fitted(), "Predict before Fit");
  static obs::Histogram& batch_hist =
      obs::MetricsRegistry::Get().histogram("gp.predict.batch");
  obs::ScopedLatency batch_latency(&batch_hist);
  const size_t n = n_;
  const double lengthscale = policy_.lengthscale();
  const double y_mean = policy_.y_mean();
  const double y_scale = policy_.y_scale();
  means->resize(xs.size());
  variances->resize(xs.size());
  // Queries are processed in blocks of kBlock as a multi-RHS triangular
  // solve: K* and V are laid out i-major (query-minor), so each factor
  // row is streamed once per block and the innermost loops run across the
  // block's independent accumulators (SIMD-friendly without FP
  // reassociation). A query's K* column is computed as in PredictMeanVar
  // (the query against kernel blocks of training rows) and scattered
  // into the block. Every query keeps the scalar path's summation order
  // exactly — k ascending in the solve, i ascending in the dots — so
  // results are bitwise equal to PredictMeanVar at any pool size.
  constexpr size_t kBlock = 16;
  ParallelFor(
      GlobalPool(), 0, xs.size(), /*grain=*/kBlock,
      [&](size_t begin, size_t end) {
        // Per-thread scratch, reused across calls: every thread running a
        // chunk (the caller included) owns its own three buffers, and a
        // chunk never re-enters this lambda before it returns.
        static thread_local std::vector<double> k_query;  // one K* column
        static thread_local std::vector<double> k_block;  // K*(i, r), i-major
        static thread_local std::vector<double> v_block;  // (L^-1 K*)(i, r)
        k_query.resize(n);
        k_block.resize(n * kBlock);
        v_block.resize(n * kBlock);
        for (size_t b = begin; b < end; b += kBlock) {
          const size_t m = std::min(kBlock, end - b);
          for (size_t r = 0; r < m; ++r) {
            const std::vector<double>& xq = xs[b + r];
            DBTUNE_CHECK(xq.size() == dim_);
            KernelAgainstTraining(xq.data(), 0, n, lengthscale,
                                  k_query.data());
            for (size_t i = 0; i < n; ++i) k_block[i * m + r] = k_query[i];
          }
          double acc[kBlock];
          for (size_t i = 0; i < n; ++i) {
            const double* lrow = chol_.RowPtr(i);
            const double* ki = k_block.data() + i * m;
            for (size_t r = 0; r < m; ++r) acc[r] = ki[r];
            for (size_t k = 0; k < i; ++k) {
              const double lik = lrow[k];
              const double* vk = v_block.data() + k * m;
              for (size_t r = 0; r < m; ++r) acc[r] -= lik * vk[r];
            }
            double* vi = v_block.data() + i * m;
            const double diag = lrow[i];
            for (size_t r = 0; r < m; ++r) vi[r] = acc[r] / diag;
          }
          double mu[kBlock], vv[kBlock];
          for (size_t r = 0; r < m; ++r) mu[r] = 0.0;
          for (size_t r = 0; r < m; ++r) vv[r] = 0.0;
          for (size_t i = 0; i < n; ++i) {
            const double* ki = k_block.data() + i * m;
            const double* vi = v_block.data() + i * m;
            const double ai = alpha_[i];
            for (size_t r = 0; r < m; ++r) {
              mu[r] += ki[r] * ai;
              vv[r] += vi[r] * vi[r];
            }
          }
          for (size_t r = 0; r < m; ++r) {
            const std::vector<double>& xq = xs[b + r];
            double var = kernel_->Compute(xq, xq, lengthscale) - vv[r];
            if (var < 1e-12) var = 1e-12;
            (*means)[b + r] = mu[r] * y_scale + y_mean;
            (*variances)[b + r] = var * y_scale * y_scale;
          }
        }
      });
}

}  // namespace dbtune
