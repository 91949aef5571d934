#include "surrogate/sparse_gaussian_process.h"

#include <algorithm>
#include <cmath>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/logging.h"
#include "util/thread_pool.h"

namespace dbtune {

namespace {

// Diagonal jitter on the inducing Gram K_mm. Inducing points are spread
// by farthest-point selection, but duplicated history rows can still
// land two identical inducing inputs; the jitter keeps the Cholesky
// positive definite in that case. The same amount is added to A, whose
// conditioning is bounded below by K_mm's.
constexpr double kInducingJitter = 1e-6;

// Row range owned by one accumulation chunk when assembling
// A = K_mm + K_mn Λ⁻¹ K_nm. Chunk boundaries depend only on n — never on
// the pool size — so the chunk-major summation order is fixed and the
// assembled A is bit-identical at any DBTUNE_NUM_THREADS.
constexpr size_t kAccumChunk = 512;

}  // namespace

SparseGaussianProcess::SparseGaussianProcess(
    std::shared_ptr<const Kernel> kernel, GaussianProcessOptions options)
    : kernel_(std::move(kernel)), policy_(std::move(options)) {
  DBTUNE_CHECK(kernel_ != nullptr);
}

std::vector<size_t> SparseGaussianProcess::SelectInducingIndices(
    const FeatureMatrix& x, size_t m) const {
  const size_t n = x.size();
  std::vector<size_t> chosen;
  chosen.reserve(m);
  chosen.push_back(0);  // deterministic seed: always the oldest observation
  std::vector<char> taken(n, 0);
  taken[0] = 1;
  // min_d2[i] = squared distance from x[i] to its nearest chosen point.
  // The parallel updates write index-owned slots only; the argmax scans
  // sequentially in index order, so ties resolve to the lowest index at
  // any pool size.
  std::vector<double> min_d2(n);
  ParallelFor(GlobalPool(), 0, n, /*grain=*/256,
              [&](size_t begin, size_t end) {
                for (size_t i = begin; i < end; ++i) {
                  min_d2[i] = SquaredDistance(x[i], x[0]);
                }
              });
  while (chosen.size() < m) {
    size_t best = n;
    double best_d2 = -1.0;
    for (size_t i = 0; i < n; ++i) {
      if (!taken[i] && min_d2[i] > best_d2) {
        best_d2 = min_d2[i];
        best = i;
      }
    }
    DBTUNE_CHECK(best < n);  // m <= n, so an unchosen index always exists
    chosen.push_back(best);
    taken[best] = 1;
    const std::vector<double>& picked = x[best];
    ParallelFor(GlobalPool(), 0, n, /*grain=*/256,
                [&](size_t begin, size_t end) {
                  for (size_t i = begin; i < end; ++i) {
                    const double d2 = SquaredDistance(x[i], picked);
                    if (d2 < min_d2[i]) min_d2[i] = d2;
                  }
                });
  }
  std::sort(chosen.begin(), chosen.end());
  return chosen;
}

Result<SparseGaussianProcess::LengthscaleState>
SparseGaussianProcess::PrepareLengthscale(const FeatureMatrix& x,
                                          double lengthscale) const {
  const size_t n = x.size();
  const size_t m = xm_.size();
  LengthscaleState state;
  // Inducing Gram, assembled like the exact GP's kernel matrix: row j
  // owns pairs (j, j..m), mirrored, so rows parallelize without overlap.
  state.kmm = Matrix(m, m);
  Matrix& kmm = state.kmm;
  ParallelFor(GlobalPool(), 0, m, /*grain=*/8, [&](size_t begin, size_t end) {
    for (size_t j = begin; j < end; ++j) {
      for (size_t k = j; k < m; ++k) {
        const double v = kernel_->Compute(xm_[j], xm_[k], lengthscale);
        kmm(j, k) = v;
        kmm(k, j) = v;
      }
    }
  });
  state.lm = kmm;
  state.lm.AddDiagonal(kInducingJitter);
  DBTUNE_RETURN_IF_ERROR(CholeskyFactorize(&state.lm));
  state.logdet_kmm = 0.0;
  for (size_t j = 0; j < m; ++j) {
    state.logdet_kmm += 2.0 * std::log(state.lm(j, j));
  }

  // Cross-covariances, prior diagonal, and the Nyström diagonal
  // q_i = ||L_m⁻¹ k_mi||² in one pass. Each row writes only its own
  // slots; the per-row triangular solve uses chunk-local scratch.
  state.knm = Matrix(n, m);
  state.kdiag.resize(n);
  state.q.resize(n);
  const Matrix& lm = state.lm;
  ParallelFor(GlobalPool(), 0, n, /*grain=*/32, [&](size_t begin, size_t end) {
    std::vector<double> row(m);
    std::vector<double> sol;
    for (size_t i = begin; i < end; ++i) {
      double* knm_row = state.knm.RowPtr(i);
      for (size_t j = 0; j < m; ++j) {
        knm_row[j] = kernel_->Compute(x[i], xm_[j], lengthscale);
      }
      state.kdiag[i] = kernel_->Compute(x[i], x[i], lengthscale);
      std::copy(knm_row, knm_row + m, row.begin());
      SolveLowerTriangularInto(lm, row, &sol);
      state.q[i] = Dot(sol, sol);
    }
  });
  return state;
}

Result<double> SparseGaussianProcess::FactorizeWith(
    const LengthscaleState& ls_state, double noise, FitState* state) const {
  const std::vector<double>& y_std = policy_.y_standardized();
  const size_t n = ls_state.knm.rows();
  const size_t m = ls_state.knm.cols();

  // FITC heteroscedastic diagonal Λ_i = k(x_i,x_i) − q_i + σ². The
  // Nyström residual is non-negative in exact arithmetic; clamp the
  // floating-point leftovers so Λ stays positive.
  std::vector<double> lambda(n);
  for (size_t i = 0; i < n; ++i) {
    double residual = ls_state.kdiag[i] - ls_state.q[i];
    if (residual < 0.0) residual = 0.0;
    lambda[i] = residual + noise + 1e-10;
  }

  // A = K_mm + K_mn Λ⁻¹ K_nm, accumulated as fixed-size row chunks into
  // per-chunk partial sums (upper triangles). Chunks parallelize; the
  // reduction below runs chunk-ascending on one thread, so the result is
  // bit-identical at any pool size.
  const size_t num_chunks = (n + kAccumChunk - 1) / kAccumChunk;
  std::vector<double> partials(num_chunks * m * m, 0.0);
  ParallelFor(
      GlobalPool(), 0, num_chunks, /*grain=*/1,
      [&](size_t chunk_begin, size_t chunk_end) {
        for (size_t c = chunk_begin; c < chunk_end; ++c) {
          double* partial = partials.data() + c * m * m;
          const size_t row_end = std::min(n, (c + 1) * kAccumChunk);
          for (size_t i = c * kAccumChunk; i < row_end; ++i) {
            const double w = 1.0 / lambda[i];
            const double* row = ls_state.knm.RowPtr(i);
            for (size_t j = 0; j < m; ++j) {
              const double wj = w * row[j];
              double* partial_row = partial + j * m;
              for (size_t k = j; k < m; ++k) partial_row[k] += wj * row[k];
            }
          }
        }
      });
  Matrix a = ls_state.kmm;
  a.AddDiagonal(kInducingJitter);
  for (size_t c = 0; c < num_chunks; ++c) {
    const double* partial = partials.data() + c * m * m;
    for (size_t j = 0; j < m; ++j) {
      for (size_t k = j; k < m; ++k) a(j, k) += partial[j * m + k];
    }
  }
  for (size_t j = 0; j < m; ++j) {
    for (size_t k = j + 1; k < m; ++k) a(k, j) = a(j, k);
  }

  // b = K_mn Λ⁻¹ y and the Λ-quadratic/log terms of the likelihood;
  // O(n·m) streaming pass, cheap enough to stay sequential.
  std::vector<double> b(m, 0.0);
  double y_quadratic = 0.0;
  double log_lambda_sum = 0.0;
  for (size_t i = 0; i < n; ++i) {
    const double wy = y_std[i] / lambda[i];
    const double* row = ls_state.knm.RowPtr(i);
    for (size_t j = 0; j < m; ++j) b[j] += wy * row[j];
    y_quadratic += y_std[i] * wy;
    log_lambda_sum += std::log(lambda[i]);
  }

  Matrix la = a;
  DBTUNE_RETURN_IF_ERROR(CholeskyFactorize(&la));
  std::vector<double> tmp = SolveLowerTriangular(la, b);
  std::vector<double> alpha = SolveUpperTriangularFromLower(la, tmp);

  // FITC log marginal likelihood via the determinant lemma:
  // log|Q + Λ| = log|A| − log|K_mm| + Σ log Λ_i, and
  // yᵀ(Q + Λ)⁻¹y = yᵀΛ⁻¹y − bᵀα.
  double lml = -0.5 * (y_quadratic - Dot(b, alpha));
  for (size_t j = 0; j < m; ++j) lml -= std::log(la(j, j));
  lml += 0.5 * ls_state.logdet_kmm;
  lml -= 0.5 * log_lambda_sum;
  lml -= 0.5 * static_cast<double>(n) * std::log(2.0 * M_PI);

  state->lm = ls_state.lm;
  state->la = std::move(la);
  state->alpha = std::move(alpha);
  return lml;
}

Status SparseGaussianProcess::Fit(const FeatureMatrix& x,
                                  const std::vector<double>& y) {
  static obs::Histogram& fit_hist =
      obs::MetricsRegistry::Get().histogram("gp.fit.sparse");
  obs::ScopedLatency fit_latency(&fit_hist);
  DBTUNE_TRACE_SPAN("gp.fit.sparse");
  DBTUNE_RETURN_IF_ERROR(ValidateTrainingData(x, y));

  const size_t m = std::min(policy_.options().num_inducing, x.size());
  inducing_indices_ = SelectInducingIndices(x, m);
  xm_.clear();
  xm_.reserve(m);
  for (size_t id : inducing_indices_) xm_.push_back(x[id]);

  // Every sparse fit is a full refit (the inducing set moves with the
  // history), so unlike the exact GP there is no append path and no
  // staleness reset — only the hyperopt cadence. K_mm, K_nm and the
  // Nyström diagonal depend on the lengthscale only and are shared
  // across the noise grid; the noise enters through Λ and A.
  const bool reuse = policy_.Begin(y, /*stale=*/false);
  DBTUNE_ASSIGN_OR_RETURN(
      FitState best,
      policy_.Fit<FitState>(
          reuse,
          [&](double lengthscale) {
            return PrepareLengthscale(x, lengthscale);
          },
          [this](const LengthscaleState& ls_state, double noise,
                 FitState* state) {
            return FactorizeWith(ls_state, noise, state);
          }));
  lm_ = std::move(best.lm);
  la_ = std::move(best.la);
  alpha_ = std::move(best.alpha);
  return Status::OK();
}

double SparseGaussianProcess::Predict(const std::vector<double>& x) const {
  double mean = 0.0, variance = 0.0;
  PredictMeanVar(x, &mean, &variance);
  return mean;
}

void SparseGaussianProcess::PredictMeanVar(const std::vector<double>& x,
                                           double* mean,
                                           double* variance) const {
  DBTUNE_CHECK_MSG(policy_.fitted(), "Predict before Fit");
  static obs::Histogram& predict_hist =
      obs::MetricsRegistry::Get().histogram("gp.predict.sparse");
  obs::ScopedLatency predict_latency(&predict_hist);
  // FITC posterior: μ = k_mᵀ α and
  // var = k** − ||L_m⁻¹ k_m||² + ||L_A⁻¹ k_m||² — O(m²), no dependence
  // on n. Scratch is per calling thread; the batch path runs this from
  // pool workers, each with its own scratch.
  static thread_local std::vector<double> k_m;
  static thread_local std::vector<double> v;
  static thread_local std::vector<double> w;
  const double lengthscale = policy_.lengthscale();
  const size_t m = xm_.size();
  k_m.resize(m);
  for (size_t j = 0; j < m; ++j) {
    k_m[j] = kernel_->Compute(xm_[j], x, lengthscale);
  }

  const double mu = Dot(k_m, alpha_);
  SolveLowerTriangularInto(lm_, k_m, &v);
  SolveLowerTriangularInto(la_, k_m, &w);
  double var = kernel_->Compute(x, x, lengthscale) - Dot(v, v) + Dot(w, w);
  if (var < 1e-12) var = 1e-12;

  const double y_scale = policy_.y_scale();
  *mean = mu * y_scale + policy_.y_mean();
  *variance = var * y_scale * y_scale;
}

}  // namespace dbtune
