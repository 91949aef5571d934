// The incremental-fit contract of the GP surrogate: a bordered Cholesky
// append must be bitwise indistinguishable from a full refactorization —
// factor, alpha, and log marginal likelihood — at any pool size, and the
// cache must fall back (and forget stale hyper-parameters) whenever the
// training set stops being an extension of the previous one.

#include <cmath>
#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "obs/metrics.h"
#include "pool_size_guard.h"
#include "surrogate/gaussian_process.h"
#include "surrogate/random_forest.h"
#include "tie_heavy_data.h"
#include "util/random.h"
#include "util/thread_pool.h"

namespace dbtune {
namespace {

using testing::PoolSizeGuard;

FeatureMatrix MakeInputs(size_t n, size_t d, uint64_t seed) {
  Rng rng(seed);
  FeatureMatrix x(n, std::vector<double>(d));
  for (auto& row : x) {
    for (double& v : row) v = rng.Uniform();
  }
  return x;
}

std::vector<double> MakeTargets(const FeatureMatrix& x) {
  std::vector<double> y;
  y.reserve(x.size());
  for (const auto& row : x) {
    double s = 0.0;
    for (size_t j = 0; j < row.size(); ++j) {
      s += std::sin(3.0 * row[j]) * static_cast<double>(j + 1);
    }
    y.push_back(s);
  }
  return y;
}

GaussianProcessOptions NoHyperoptRefresh(bool incremental) {
  GaussianProcessOptions options;
  options.hyperopt_every = 1000;  // grid search on the first fit only
  options.enable_incremental = incremental;
  return options;
}

uint64_t IncrementalFitCount() {
  const obs::Histogram* hist =
      obs::MetricsRegistry::Get().FindHistogram("gp.fit.incremental");
  return hist == nullptr ? 0 : hist->count();
}

// Fits both GPs on a growing prefix of (x, y), appending `step` rows per
// round, and asserts factor, alpha, noise, and LML stay bitwise equal.
void ExpectIdenticalFitSequence(GaussianProcess* incremental,
                                GaussianProcess* full,
                                const FeatureMatrix& x,
                                const std::vector<double>& y, size_t start,
                                size_t step) {
  for (size_t n = start; n <= x.size(); n += step) {
    const FeatureMatrix head_x(x.begin(), x.begin() + n);
    const std::vector<double> head_y(y.begin(), y.begin() + n);
    ASSERT_TRUE(incremental->Fit(head_x, head_y).ok());
    ASSERT_TRUE(full->Fit(head_x, head_y).ok());
    EXPECT_EQ(incremental->log_marginal_likelihood(),
              full->log_marginal_likelihood());
    EXPECT_EQ(incremental->noise(), full->noise());
    EXPECT_EQ(incremental->lengthscale(), full->lengthscale());
    EXPECT_EQ(incremental->alpha(), full->alpha());
    EXPECT_EQ(incremental->cholesky_factor().data(),
              full->cholesky_factor().data());
  }
}

TEST(GpIncrementalTest, BorderedAppendMatchesFullRefactorization) {
  const FeatureMatrix x = MakeInputs(48, 5, 11);
  const std::vector<double> y = MakeTargets(x);
  // The equality must hold at every pool size (the appended kernel border
  // and the batch solves are parallelized).
  for (size_t pool : {1u, 2u, 8u}) {
    PoolSizeGuard guard(pool);
    GaussianProcess incremental(std::make_unique<Matern52Kernel>(),
                                NoHyperoptRefresh(true));
    GaussianProcess full(std::make_unique<Matern52Kernel>(),
                         NoHyperoptRefresh(false));
    ExpectIdenticalFitSequence(&incremental, &full, x, y, /*start=*/20,
                               /*step=*/1);
  }
}

TEST(GpIncrementalTest, MultiRowAppendMatchesFullRefactorization) {
  const FeatureMatrix x = MakeInputs(60, 4, 13);
  const std::vector<double> y = MakeTargets(x);
  GaussianProcess incremental(std::make_unique<RbfKernel>(),
                              NoHyperoptRefresh(true));
  GaussianProcess full(std::make_unique<RbfKernel>(),
                       NoHyperoptRefresh(false));
  ExpectIdenticalFitSequence(&incremental, &full, x, y, /*start=*/12,
                             /*step=*/6);
}

TEST(GpIncrementalTest, IncrementalPathActuallyRuns) {
  // Guard against the equality tests passing vacuously because every fit
  // silently fell back to a full refactorization.
  obs::ScopedMetricsForTest metrics_on;
  const uint64_t before = IncrementalFitCount();
  const FeatureMatrix x = MakeInputs(30, 3, 17);
  const std::vector<double> y = MakeTargets(x);
  GaussianProcess gp(std::make_unique<Matern52Kernel>(),
                     NoHyperoptRefresh(true));
  for (size_t n = 10; n <= x.size(); n += 5) {
    const FeatureMatrix head_x(x.begin(), x.begin() + n);
    const std::vector<double> head_y(y.begin(), y.begin() + n);
    ASSERT_TRUE(gp.Fit(head_x, head_y).ok());
  }
  // First fit runs the grid; the four extensions all append.
  EXPECT_EQ(IncrementalFitCount() - before, 4u);
}

TEST(GpIncrementalTest, ShrunkHistoryFallsBackAndRefreshesHyperopt) {
  const FeatureMatrix x = MakeInputs(36, 4, 19);
  const std::vector<double> y = MakeTargets(x);
  GaussianProcessOptions options;  // hyperopt_every = 5, incremental on
  GaussianProcess gp(std::make_unique<Matern52Kernel>(), options);
  ASSERT_TRUE(gp.Fit(x, y).ok());

  // Shrink to a prefix: the cached factor no longer applies, and the
  // cached hyper-parameters belong to data that no longer exists (the
  // TuRBO-restart hazard) — the fit must rerun the grid search, making
  // it bitwise identical to a fresh GP's first fit.
  const FeatureMatrix head_x(x.begin(), x.begin() + 15);
  const std::vector<double> head_y(y.begin(), y.begin() + 15);
  ASSERT_TRUE(gp.Fit(head_x, head_y).ok());
  GaussianProcess fresh(std::make_unique<Matern52Kernel>(), options);
  ASSERT_TRUE(fresh.Fit(head_x, head_y).ok());
  EXPECT_EQ(gp.log_marginal_likelihood(), fresh.log_marginal_likelihood());
  EXPECT_EQ(gp.noise(), fresh.noise());
  EXPECT_EQ(gp.lengthscale(), fresh.lengthscale());
  EXPECT_EQ(gp.alpha(), fresh.alpha());
  EXPECT_EQ(gp.cholesky_factor().data(), fresh.cholesky_factor().data());
}

TEST(GpIncrementalTest, WholesaleReplacementRefreshesHyperopt) {
  const FeatureMatrix x_a = MakeInputs(30, 4, 23);
  const std::vector<double> y_a = MakeTargets(x_a);
  // Same size, different rows: not an extension.
  const FeatureMatrix x_b = MakeInputs(30, 4, 29);
  const std::vector<double> y_b = MakeTargets(x_b);

  GaussianProcessOptions options;
  GaussianProcess gp(std::make_unique<RbfKernel>(), options);
  ASSERT_TRUE(gp.Fit(x_a, y_a).ok());
  ASSERT_TRUE(gp.Fit(x_b, y_b).ok());

  GaussianProcess fresh(std::make_unique<RbfKernel>(), options);
  ASSERT_TRUE(fresh.Fit(x_b, y_b).ok());
  EXPECT_EQ(gp.log_marginal_likelihood(), fresh.log_marginal_likelihood());
  EXPECT_EQ(gp.lengthscale(), fresh.lengthscale());
  EXPECT_EQ(gp.alpha(), fresh.alpha());
  EXPECT_EQ(gp.cholesky_factor().data(), fresh.cholesky_factor().data());
}

TEST(GpIncrementalTest, HyperoptIterationsInterleaveWithAppends) {
  // With hyperopt_every = 2 every other fit reruns the grid; incremental
  // and full GPs must still agree bitwise across the whole schedule.
  const FeatureMatrix x = MakeInputs(40, 4, 31);
  const std::vector<double> y = MakeTargets(x);
  GaussianProcessOptions on;
  on.hyperopt_every = 2;
  GaussianProcessOptions off = on;
  off.enable_incremental = false;
  GaussianProcess incremental(std::make_unique<Matern52Kernel>(), on);
  GaussianProcess full(std::make_unique<Matern52Kernel>(), off);
  ExpectIdenticalFitSequence(&incremental, &full, x, y, /*start=*/14,
                             /*step=*/2);
}

// Dimensions 1 and 3 of the batched-predict inputs are categorical: their
// values sit on a three-category grid, so the Hamming terms see both equal
// and differing entries.
const std::vector<bool> kBatchMask = {false, true, false, true, false};

FeatureMatrix MakeMixedInputs(size_t n, uint64_t seed) {
  FeatureMatrix x = MakeInputs(n, kBatchMask.size(), seed);
  for (auto& row : x) {
    for (size_t j = 0; j < row.size(); ++j) {
      if (kBatchMask[j]) row[j] = (std::floor(row[j] * 3.0) + 0.5) / 3.0;
    }
  }
  return x;
}

TEST(GpIncrementalTest, BatchedPredictMatchesScalarBitwise) {
  // Every kernel, through full query blocks, partial ones and a single
  // query, at two training sizes: the batch (kernel blocks over
  // dimension-major queries) must equal the per-query path bit for bit.
  const std::vector<std::shared_ptr<const Kernel>> kernels = {
      std::make_shared<RbfKernel>(), std::make_shared<Matern52Kernel>(),
      std::make_shared<HammingKernel>(),
      std::make_shared<MixedKernel>(kBatchMask)};
  const FeatureMatrix all_queries = MakeMixedInputs(300, 41);
  for (const auto& kernel : kernels) {
    for (size_t n : {50u, 130u}) {
      const FeatureMatrix x = MakeMixedInputs(n, 37 + n);
      const std::vector<double> y = MakeTargets(x);
      for (size_t pool : {1u, 2u, 8u}) {
        PoolSizeGuard guard(pool);
        GaussianProcess gp(kernel);
        ASSERT_TRUE(gp.Fit(x, y).ok()) << kernel->name() << " n=" << n;
        for (size_t num_queries : {1u, 15u, 16u, 17u, 300u}) {
          const FeatureMatrix queries(all_queries.begin(),
                                      all_queries.begin() + num_queries);
          std::vector<double> batch_means, batch_vars;
          gp.PredictMeanVarBatch(queries, &batch_means, &batch_vars);
          ASSERT_EQ(batch_means.size(), queries.size());
          ASSERT_EQ(batch_vars.size(), queries.size());
          for (size_t q = 0; q < queries.size(); ++q) {
            double mean = 0.0, var = 0.0;
            gp.PredictMeanVar(queries[q], &mean, &var);
            EXPECT_EQ(batch_means[q], mean)
                << kernel->name() << " n=" << n << " pool=" << pool
                << " queries=" << num_queries << " q=" << q;
            EXPECT_EQ(batch_vars[q], var)
                << kernel->name() << " n=" << n << " pool=" << pool
                << " queries=" << num_queries << " q=" << q;
          }
        }
      }
    }
  }
}

TEST(GpIncrementalTest, DefaultBatchMatchesScalarForForests) {
  // The Regressor-level default (parallel scalar loop) must also be
  // bitwise faithful — RGPE mixes forests and GPs through it.
  const FeatureMatrix x = MakeInputs(80, 5, 43);
  const std::vector<double> y = MakeTargets(x);
  const FeatureMatrix queries = MakeInputs(25, 5, 47);
  RandomForestOptions options;
  options.num_trees = 30;
  options.seed = 53;
  RandomForest forest(options);
  ASSERT_TRUE(forest.Fit(x, y).ok());
  std::vector<double> batch_means, batch_vars;
  forest.PredictMeanVarBatch(queries, &batch_means, &batch_vars);
  for (size_t q = 0; q < queries.size(); ++q) {
    double mean = 0.0, var = 0.0;
    forest.PredictMeanVar(queries[q], &mean, &var);
    EXPECT_EQ(batch_means[q], mean);
    EXPECT_EQ(batch_vars[q], var);
  }
}

TEST(GpIncrementalTest, PredictionsAfterAppendMatchFullRefit) {
  // End to end: posterior queries after several appends agree bitwise
  // with a GP that refit from scratch every round.
  const FeatureMatrix x = MakeInputs(45, 4, 59);
  const std::vector<double> y = MakeTargets(x);
  const FeatureMatrix queries = MakeInputs(20, 4, 61);
  GaussianProcess incremental(std::make_unique<Matern52Kernel>(),
                              NoHyperoptRefresh(true));
  GaussianProcess full(std::make_unique<Matern52Kernel>(),
                       NoHyperoptRefresh(false));
  for (size_t n = 15; n <= x.size(); n += 3) {
    const FeatureMatrix head_x(x.begin(), x.begin() + n);
    const std::vector<double> head_y(y.begin(), y.begin() + n);
    ASSERT_TRUE(incremental.Fit(head_x, head_y).ok());
    ASSERT_TRUE(full.Fit(head_x, head_y).ok());
  }
  std::vector<double> inc_means, inc_vars, full_means, full_vars;
  incremental.PredictMeanVarBatch(queries, &inc_means, &inc_vars);
  full.PredictMeanVarBatch(queries, &full_means, &full_vars);
  EXPECT_EQ(inc_means, full_means);
  EXPECT_EQ(inc_vars, full_vars);
}

// FNV-1a pin of an exact-GP fit sequence mixing appends, grid searches,
// a wholesale replacement (the staleness reset), a regrowth and a shrink,
// checked at pool sizes 1/2/8.
TEST(GpIncrementalTest, FitSequenceWithReplacementMatchesPin) {
  const FeatureMatrix x_a = MakeInputs(40, 4, 67);
  const FeatureMatrix x_b = MakeInputs(40, 4, 71);
  const FeatureMatrix queries = MakeInputs(16, 4, 73);
  std::vector<FeatureMatrix> sequence;
  for (size_t n = 20; n <= 32; n += 3) {
    sequence.emplace_back(x_a.begin(), x_a.begin() + n);
  }
  for (size_t n = 32; n <= 40; n += 4) {
    sequence.emplace_back(x_b.begin(), x_b.begin() + n);
  }
  sequence.emplace_back(x_b.begin(), x_b.begin() + 25);
  for (const size_t pool : {size_t{1}, size_t{2}, size_t{8}}) {
    PoolSizeGuard guard(pool);
    GaussianProcessOptions options;
    options.hyperopt_every = 3;
    GaussianProcess gp(std::make_unique<Matern52Kernel>(), options);
    testing::Fnv1a fnv;
    for (const FeatureMatrix& x : sequence) {
      ASSERT_TRUE(gp.Fit(x, MakeTargets(x)).ok());
      fnv.Add(gp.log_marginal_likelihood());
      fnv.Add(gp.lengthscale());
      fnv.Add(gp.noise());
      for (double v : gp.alpha()) fnv.Add(v);
      std::vector<double> means, vars;
      gp.PredictMeanVarBatch(queries, &means, &vars);
      for (double v : means) fnv.Add(v);
      for (double v : vars) fnv.Add(v);
    }
    EXPECT_EQ(fnv.hash(), 0xb43700c9c60a3ef6ULL)
        << "pool=" << pool << " hash=0x" << std::hex << fnv.hash();
  }
}

}  // namespace
}  // namespace dbtune
