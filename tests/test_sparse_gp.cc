// The sparse (FITC) GP tier: approximation quality against the exact GP,
// deterministic inducing-point selection, batch/scalar equivalence, the
// tiered factory's escalation policy, and the exact-vs-sparse regret
// comparison on the simulator that justifies the default crossover.

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/tuning_session.h"
#include "dbms/simulator.h"
#include "knobs/knob.h"
#include "optimizer/gp_bo.h"
#include "pool_size_guard.h"
#include "surrogate/gaussian_process.h"
#include "surrogate/sparse_gaussian_process.h"
#include "surrogate/surrogate_factory.h"
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

std::vector<double> SmoothTargets(const FeatureMatrix& x) {
  std::vector<double> y;
  y.reserve(x.size());
  for (const auto& row : x) {
    double s = 0.0;
    for (size_t j = 0; j < row.size(); ++j) {
      s += std::sin(2.0 * row[j]) + 0.3 * row[j];
    }
    y.push_back(s);
  }
  return y;
}

TEST(SparseGaussianProcessTest, InducingSelectionIsDeterministic) {
  const FeatureMatrix x = MakeInputs(120, 4, 7);
  const std::vector<double> y = SmoothTargets(x);
  GaussianProcessOptions options;
  options.num_inducing = 24;

  SparseGaussianProcess a(std::make_unique<Matern52Kernel>(), options);
  SparseGaussianProcess b(std::make_unique<Matern52Kernel>(), options);
  ASSERT_TRUE(a.Fit(x, y).ok());
  ASSERT_TRUE(b.Fit(x, y).ok());

  EXPECT_EQ(a.inducing_indices(), b.inducing_indices());
  EXPECT_EQ(a.num_inducing(), 24u);
  // Ascending, unique, anchored at the deterministic seed index 0.
  const std::vector<size_t>& ids = a.inducing_indices();
  EXPECT_EQ(ids.front(), 0u);
  EXPECT_TRUE(std::is_sorted(ids.begin(), ids.end()));
  EXPECT_EQ(std::adjacent_find(ids.begin(), ids.end()), ids.end());
  EXPECT_EQ(a.log_marginal_likelihood(), b.log_marginal_likelihood());
}

TEST(SparseGaussianProcessTest, InducingBudgetClampsToTrainingSize) {
  const FeatureMatrix x = MakeInputs(10, 3, 11);
  const std::vector<double> y = SmoothTargets(x);
  GaussianProcessOptions options;
  options.num_inducing = 64;
  SparseGaussianProcess gp(std::make_unique<Matern52Kernel>(), options);
  ASSERT_TRUE(gp.Fit(x, y).ok());
  EXPECT_EQ(gp.num_inducing(), 10u);
}

TEST(SparseGaussianProcessTest, ApproximatesExactPosterior) {
  const FeatureMatrix x = MakeInputs(200, 3, 13);
  const std::vector<double> y = SmoothTargets(x);
  const FeatureMatrix queries = MakeInputs(40, 3, 17);

  GaussianProcess exact(std::make_unique<Matern52Kernel>());
  ASSERT_TRUE(exact.Fit(x, y).ok());

  GaussianProcessOptions options;
  options.num_inducing = 64;
  SparseGaussianProcess sparse(std::make_unique<Matern52Kernel>(), options);
  ASSERT_TRUE(sparse.Fit(x, y).ok());

  // The FITC posterior mean should track the exact one closely on a
  // smooth surface with a third of the points as inducing inputs. The
  // y-range here is ~[-1, 4.5]; 0.15 absolute is a tight envelope.
  double worst = 0.0;
  for (const auto& q : queries) {
    double em = 0.0, ev = 0.0, sm = 0.0, sv = 0.0;
    exact.PredictMeanVar(q, &em, &ev);
    sparse.PredictMeanVar(q, &sm, &sv);
    worst = std::max(worst, std::abs(em - sm));
    EXPECT_GE(sv, 0.0);
  }
  EXPECT_LT(worst, 0.15);
  EXPECT_TRUE(std::isfinite(sparse.log_marginal_likelihood()));
}

TEST(SparseGaussianProcessTest, BatchedPredictMatchesScalarBitwise) {
  const FeatureMatrix x = MakeInputs(150, 5, 19);
  const std::vector<double> y = SmoothTargets(x);
  const FeatureMatrix queries = MakeInputs(33, 5, 23);

  SparseGaussianProcess gp(std::make_unique<Matern52Kernel>());
  ASSERT_TRUE(gp.Fit(x, y).ok());

  std::vector<double> batch_means, batch_vars;
  gp.PredictMeanVarBatch(queries, &batch_means, &batch_vars);
  ASSERT_EQ(batch_means.size(), queries.size());
  for (size_t q = 0; q < queries.size(); ++q) {
    double mean = 0.0, var = 0.0;
    gp.PredictMeanVar(queries[q], &mean, &var);
    EXPECT_EQ(batch_means[q], mean) << "query " << q;
    EXPECT_EQ(batch_vars[q], var) << "query " << q;
  }
}

TEST(SparseGaussianProcessTest, RefitReplacesModel) {
  const FeatureMatrix x1 = MakeInputs(60, 3, 29);
  const std::vector<double> y1 = SmoothTargets(x1);
  SparseGaussianProcess gp(std::make_unique<Matern52Kernel>());
  ASSERT_TRUE(gp.Fit(x1, y1).ok());
  const double lml1 = gp.log_marginal_likelihood();

  const FeatureMatrix x2 = MakeInputs(90, 3, 31);
  const std::vector<double> y2 = SmoothTargets(x2);
  ASSERT_TRUE(gp.Fit(x2, y2).ok());
  EXPECT_NE(gp.log_marginal_likelihood(), lml1);
  EXPECT_TRUE(gp.Fit(x1, y1).ok());
}

TEST(SparseGaussianProcessTest, RejectsInvalidTrainingData) {
  SparseGaussianProcess gp(std::make_unique<Matern52Kernel>());
  EXPECT_FALSE(gp.Fit({}, {}).ok());
  EXPECT_FALSE(gp.Fit({{0.1, 0.2}, {0.3}}, {1.0, 2.0}).ok());
}

TEST(TieredGpSurrogateTest, AutoEscalatesAtCrossover) {
  GaussianProcessOptions options;
  options.sparse_crossover = 50;
  options.num_inducing = 16;
  TieredGpSurrogate gp(std::make_unique<Matern52Kernel>(), options);

  const FeatureMatrix small = MakeInputs(40, 3, 37);
  ASSERT_TRUE(gp.Fit(small, SmoothTargets(small)).ok());
  EXPECT_FALSE(gp.sparse_active());
  ASSERT_NE(gp.exact(), nullptr);
  EXPECT_EQ(gp.sparse(), nullptr);
  EXPECT_EQ(gp.name(), "GP-Matern52");

  const FeatureMatrix large = MakeInputs(80, 3, 41);
  ASSERT_TRUE(gp.Fit(large, SmoothTargets(large)).ok());
  EXPECT_TRUE(gp.sparse_active());
  ASSERT_NE(gp.sparse(), nullptr);
  EXPECT_EQ(gp.sparse()->num_inducing(), 16u);
  EXPECT_EQ(gp.name(), "SparseGP-Matern52");

  double mean = 0.0, var = 0.0;
  gp.PredictMeanVar(large.front(), &mean, &var);
  EXPECT_TRUE(std::isfinite(mean));
  EXPECT_GT(var, 0.0);
}

TEST(TieredGpSurrogateTest, ForcedTiersAreRespected) {
  const FeatureMatrix x = MakeInputs(30, 3, 43);
  const std::vector<double> y = SmoothTargets(x);

  GaussianProcessOptions force_sparse;
  force_sparse.sparse_crossover = 0;
  TieredGpSurrogate sparse(std::make_unique<Matern52Kernel>(), force_sparse);
  ASSERT_TRUE(sparse.Fit(x, y).ok());
  EXPECT_TRUE(sparse.sparse_active());

  GaussianProcessOptions force_exact;
  force_exact.sparse_crossover = SIZE_MAX;
  TieredGpSurrogate exact(std::make_unique<Matern52Kernel>(), force_exact);
  ASSERT_TRUE(exact.Fit(x, y).ok());
  EXPECT_FALSE(exact.sparse_active());
}

// The crossover policy's justification: a GP-BO session driven by the
// sparse tier must stay within a pinned regret tolerance of the exact
// tier on the simulator at history sizes around (here: well below) the
// crossover — escalating costs fit time, not tuning outcome.
TEST(TieredGpSurrogateTest, SparseRegretTracksExactOnSimulator) {
  struct TierBo final : GpBoOptimizer {
    using GpBoOptimizer::GpBoOptimizer;
    std::string name() const override { return "Tier BO"; }
  };
  const std::vector<size_t> knob_indices = {0, 1, 2, 3, 4, 5};
  const size_t iterations = 40;

  auto run = [&](size_t sparse_crossover) {
    DbmsSimulator sim(WorkloadId::kSysbench, HardwareInstance::kB, 9);
    TuningEnvironment env(&sim, knob_indices);
    OptimizerOptions options;
    options.seed = 9;
    GaussianProcessOptions gp_options;
    gp_options.sparse_crossover = sparse_crossover;
    gp_options.num_inducing = 16;
    TierBo bo(env.space(), options, std::make_unique<Matern52Kernel>(),
              gp_options);
    return RunTuningSession(&env, &bo, iterations);
  };

  const SessionResult exact = run(/*sparse_crossover=*/SIZE_MAX);
  const SessionResult sparse = run(/*sparse_crossover=*/0);
  ASSERT_EQ(exact.improvement_trace.size(), iterations);
  ASSERT_EQ(sparse.improvement_trace.size(), iterations);
  // Pinned regret tolerance: the sparse session's final improvement may
  // trail the exact session's by at most 5 percentage points (they are
  // not expected to be identical — the surrogates differ).
  EXPECT_GE(sparse.final_improvement, exact.final_improvement - 5.0);
}

// --- Bitwise pins -----------------------------------------------------------
// FNV-1a hashes of whole fit/predict sequences, recorded once and checked
// at pool sizes 1/2/8: a refactor of the fit policy must keep them.

void HashBatch(const Regressor& model, const FeatureMatrix& queries,
               testing::Fnv1a* fnv) {
  std::vector<double> means, vars;
  model.PredictMeanVarBatch(queries, &means, &vars);
  for (double v : means) fnv->Add(v);
  for (double v : vars) fnv->Add(v);
}

void HashSparseFit(const SparseGaussianProcess& gp, testing::Fnv1a* fnv) {
  fnv->Add(gp.log_marginal_likelihood());
  fnv->Add(gp.lengthscale());
  fnv->Add(gp.noise());
  for (size_t id : gp.inducing_indices()) fnv->Add(static_cast<uint64_t>(id));
}

// Growing prefixes with a grid search every third fit, then a wholesale
// replacement (the sparse tier keeps its cadence across it).
TEST(SparseGpGoldenTest, RefitSequenceMatchesPin) {
  const FeatureMatrix x = MakeInputs(110, 4, 73);
  const std::vector<double> y = SmoothTargets(x);
  const FeatureMatrix replacement = MakeInputs(70, 4, 79);
  const FeatureMatrix queries = MakeInputs(24, 4, 83);
  for (const size_t pool : {size_t{1}, size_t{2}, size_t{8}}) {
    const PoolSizeGuard guard(pool);
    GaussianProcessOptions options;
    options.num_inducing = 20;
    options.hyperopt_every = 3;
    SparseGaussianProcess gp(std::make_unique<Matern52Kernel>(), options);
    testing::Fnv1a fnv;
    for (size_t n = 30; n <= x.size(); n += 10) {
      const FeatureMatrix head_x(x.begin(), x.begin() + n);
      const std::vector<double> head_y(y.begin(), y.begin() + n);
      ASSERT_TRUE(gp.Fit(head_x, head_y).ok());
      HashSparseFit(gp, &fnv);
      HashBatch(gp, queries, &fnv);
    }
    ASSERT_TRUE(gp.Fit(replacement, SmoothTargets(replacement)).ok());
    HashSparseFit(gp, &fnv);
    HashBatch(gp, queries, &fnv);
    EXPECT_EQ(fnv.hash(), 0x1ad6940f2f2ed8aULL)
        << "pool=" << pool << " hash=0x" << std::hex << fnv.hash();
  }
}

// A tiered surrogate fitted on growing histories that cross the
// crossover: exact fits below it, sparse fits above it.
TEST(SparseGpGoldenTest, TieredCrossoverSequenceMatchesPin) {
  const FeatureMatrix x = MakeInputs(72, 3, 89);
  const std::vector<double> y = SmoothTargets(x);
  const FeatureMatrix queries = MakeInputs(20, 3, 97);
  for (const size_t pool : {size_t{1}, size_t{2}, size_t{8}}) {
    const PoolSizeGuard guard(pool);
    GaussianProcessOptions options;
    options.sparse_crossover = 40;
    options.num_inducing = 12;
    options.hyperopt_every = 2;
    TieredGpSurrogate gp(std::make_unique<Matern52Kernel>(), options);
    testing::Fnv1a fnv;
    for (size_t n = 16; n <= x.size(); n += 8) {
      const FeatureMatrix head_x(x.begin(), x.begin() + n);
      const std::vector<double> head_y(y.begin(), y.begin() + n);
      ASSERT_TRUE(gp.Fit(head_x, head_y).ok());
      fnv.Add(static_cast<uint64_t>(gp.sparse_active()));
      if (gp.sparse_active()) {
        HashSparseFit(*gp.sparse(), &fnv);
      } else {
        fnv.Add(gp.exact()->log_marginal_likelihood());
        fnv.Add(gp.exact()->lengthscale());
        fnv.Add(gp.exact()->noise());
      }
      HashBatch(gp, queries, &fnv);
    }
    EXPECT_EQ(fnv.hash(), 0xd30e00ced1e98ab5ULL)
        << "pool=" << pool << " hash=0x" << std::hex << fnv.hash();
  }
}

// The sparse-forced GP-BO trajectory of
// ParallelDeterminismTest.SparseTierGpBoTrajectory, pinned.
TEST(SparseGpGoldenTest, SparseTierGpBoTrajectoryMatchesPin) {
  struct TestGpBo final : GpBoOptimizer {
    using GpBoOptimizer::GpBoOptimizer;
    std::string name() const override { return "Sparse GP-BO"; }
  };
  std::vector<Knob> knobs;
  for (size_t i = 0; i < 4; ++i) {
    std::string name = "x";
    name += std::to_string(i);  // avoids gcc-12 -Wrestrict false positive
    knobs.push_back(Knob::Continuous(name, 0.0, 1.0, 0.5));
  }
  const ConfigurationSpace space(std::move(knobs));
  for (const size_t pool : {size_t{1}, size_t{2}, size_t{8}}) {
    const PoolSizeGuard guard(pool);
    OptimizerOptions options;
    options.seed = 67;
    GaussianProcessOptions gp_options;
    gp_options.sparse_crossover = 0;
    gp_options.num_inducing = 12;
    TestGpBo optimizer(space, options, std::make_unique<Matern52Kernel>(),
                       gp_options);
    testing::Fnv1a fnv;
    for (int i = 0; i < 20; ++i) {
      const Configuration c = optimizer.Suggest();
      double score = 0.0;
      for (size_t j = 0; j < c.size(); ++j) {
        score -= (c[j] - 0.6) * (c[j] - 0.6);
        fnv.Add(c[j]);
      }
      optimizer.Observe(c, score);
    }
    EXPECT_EQ(fnv.hash(), 0x1f67a4110703ff02ULL)
        << "pool=" << pool << " hash=0x" << std::hex << fnv.hash();
  }
}

}  // namespace
}  // namespace dbtune
