#ifndef DBTUNE_SURROGATE_GP_FIT_POLICY_H_
#define DBTUNE_SURROGATE_GP_FIT_POLICY_H_

#include <cstddef>
#include <utility>
#include <vector>

#include "util/status.h"

namespace dbtune {

/// Options of the GP surrogate.
struct GaussianProcessOptions {
  /// Lengthscale candidates for marginal-likelihood grid search.
  std::vector<double> lengthscale_grid = {0.1, 0.2, 0.4, 0.8, 1.6};
  /// Noise-variance candidates (targets are standardized).
  std::vector<double> noise_grid = {1e-4, 1e-2, 5e-2};
  /// Re-run the hyper-parameter grid search only every k-th Fit; in
  /// between, reuse the last selected hyper-parameters (keeps the cubic
  /// cost of iterative BO in check). 1 = always.
  size_t hyperopt_every = 5;
  /// Extend the cached Cholesky factor by bordered append when a
  /// non-hyperopt `Fit` receives the previous training set plus new rows
  /// (O(n^2) instead of O(n^3); bit-identical to a full refit). Off is
  /// only useful as a baseline for benchmarks and equivalence tests.
  bool enable_incremental = true;
};

/// The hyper-parameter fit policy of the GP (DESIGN.md §8): target
/// standardization, the grid-search cadence, the fit at the cached
/// hyper-parameters with its fall-through to a full search, and the
/// lengthscale-major grid sweep. A GP supplies two steps — prepare a
/// lengthscale, factorize at a noise level — and installs the winning
/// factorization. The fitted lengthscale and noise are GP state kept
/// here, never in the (immutable, shared) kernel.
class GpFitPolicy {
 public:
  explicit GpFitPolicy(GaussianProcessOptions options);

  /// Starts a fit: standardizes `y` through `ScoreMomentsOf` and advances
  /// the cadence. `stale` restarts the cadence so this fit searches.
  /// Returns true when this fit reuses the cached hyper-parameters.
  bool Begin(const std::vector<double>& y, bool stale);

  /// Finishes a fit begun by `Begin`: at the cached hyper-parameters when
  /// `reuse`, else — or when that fails — by the grid sweep. Steps:
  ///   prepare(lengthscale) -> Result<P>, shared across the noise grid;
  ///   factorize(const P&, noise, Candidate*) -> Result<double>, the
  ///   candidate's log marginal likelihood.
  /// Returns the winning candidate for the GP to install.
  template <typename Candidate, typename Prepare, typename Factorize>
  Result<Candidate> Fit(bool reuse, const Prepare& prepare,
                        const Factorize& factorize);

  /// Records a fit the GP made itself at the cached hyper-parameters (the
  /// bordered append).
  void Accept(double lml) {
    lml_ = lml;
    fitted_ = true;
  }

  const GaussianProcessOptions& options() const { return options_; }
  /// True once a fit has succeeded.
  bool fitted() const { return fitted_; }
  double lengthscale() const { return lengthscale_; }
  double noise() const { return noise_; }
  double log_marginal_likelihood() const { return lml_; }
  /// Targets of the current fit, standardized; predictions map back to
  /// original units as `z * y_scale() + y_mean()`.
  const std::vector<double>& y_standardized() const { return y_standardized_; }
  double y_mean() const { return y_mean_; }
  double y_scale() const { return y_scale_; }

 private:
  /// Lengthscale-major sweep over the given grids: the first point is the
  /// default and a later one wins only by a strictly larger likelihood.
  /// Installs the winner's hyper-parameters.
  template <typename Candidate, typename Prepare, typename Factorize>
  Result<Candidate> Sweep(const std::vector<double>& lengthscales,
                          const std::vector<double>& noises,
                          const Prepare& prepare, const Factorize& factorize);
  /// Bumps the gp.hyperopt.runs counter.
  static void CountSearch();

  GaussianProcessOptions options_;
  std::vector<double> y_standardized_;
  double y_mean_ = 0.0;
  double y_scale_ = 1.0;
  double lengthscale_ = 0.5;
  double noise_ = 1e-4;
  double lml_ = 0.0;
  size_t fits_since_hyperopt_ = 0;
  bool fitted_ = false;
};

template <typename Candidate, typename Prepare, typename Factorize>
Result<Candidate> GpFitPolicy::Fit(bool reuse, const Prepare& prepare,
                                   const Factorize& factorize) {
  if (reuse) {
    Result<Candidate> cached =
        Sweep<Candidate>({lengthscale_}, {noise_}, prepare, factorize);
    if (cached.ok()) return cached;
    // Fall through to a full search when the cached choice fails.
  }
  CountSearch();
  return Sweep<Candidate>(options_.lengthscale_grid, options_.noise_grid,
                          prepare, factorize);
}

template <typename Candidate, typename Prepare, typename Factorize>
Result<Candidate> GpFitPolicy::Sweep(const std::vector<double>& lengthscales,
                                     const std::vector<double>& noises,
                                     const Prepare& prepare,
                                     const Factorize& factorize) {
  double best_lml = 0.0;
  double best_lengthscale = 0.0;
  double best_noise = 0.0;
  Candidate best;
  bool any = false;
  for (double lengthscale : lengthscales) {
    const auto prepared = prepare(lengthscale);
    if (!prepared.ok()) continue;
    for (double noise : noises) {
      Candidate candidate;
      Result<double> lml = factorize(*prepared, noise, &candidate);
      if (!lml.ok()) continue;
      if (!any || *lml > best_lml) {
        any = true;
        best_lml = *lml;
        best_lengthscale = lengthscale;
        best_noise = noise;
        best = std::move(candidate);
      }
    }
  }
  if (!any) return Status::Internal("GP fit failed for all hyper-parameters");
  lengthscale_ = best_lengthscale;
  noise_ = best_noise;
  Accept(best_lml);
  return Result<Candidate>(std::move(best));
}

}  // namespace dbtune

#endif  // DBTUNE_SURROGATE_GP_FIT_POLICY_H_
