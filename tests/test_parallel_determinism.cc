// The determinism contract of the parallel execution layer: every
// parallelized component must produce bit-identical results at pool size
// 1 and pool size N. These tests sweep the process-wide pool size and
// compare full outputs with exact equality.

#include <cmath>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/tuning_session.h"
#include "knobs/catalog.h"
#include "knobs/knob.h"
#include "optimizer/gp_bo.h"
#include "optimizer/projected_optimizer.h"
#include "optimizer/smac.h"
#include "optimizer/turbo.h"
#include "pool_size_guard.h"
#include "surrogate/gaussian_process.h"
#include "surrogate/random_forest.h"
#include "tie_heavy_data.h"
#include "transfer/repository.h"
#include "transfer/rgpe.h"
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

ConfigurationSpace MakeContinuousSpace(size_t d) {
  std::vector<Knob> knobs;
  for (size_t i = 0; i < d; ++i) {
    std::string name = "x";
    name += std::to_string(i);  // avoids gcc-12 -Wrestrict false positive
    knobs.push_back(Knob::Continuous(name, 0.0, 1.0, 0.5));
  }
  return ConfigurationSpace(std::move(knobs));
}

TEST(ParallelDeterminismTest, GaussianProcessFitAndPredict) {
  // n is past the scalar-predict ParallelFor grain (64) so the kernel
  // row actually dispatches to pool workers (regression: workers once
  // wrote their own empty thread_local scratch instead of the caller's).
  const FeatureMatrix x = MakeInputs(160, 5, 11);
  const std::vector<double> y = MakeTargets(x);
  const FeatureMatrix queries = MakeInputs(20, 5, 13);

  auto run = [&](size_t pool_size) {
    PoolSizeGuard guard(pool_size);
    GaussianProcess gp(std::make_unique<Matern52Kernel>());
    EXPECT_TRUE(gp.Fit(x, y).ok());
    std::vector<double> out = {gp.log_marginal_likelihood()};
    for (const auto& q : queries) {
      double mean = 0.0, var = 0.0;
      gp.PredictMeanVar(q, &mean, &var);
      out.push_back(mean);
      out.push_back(var);
    }
    return out;
  };
  EXPECT_EQ(run(1), run(4));
}

// Continuous inputs, then tie-heavy ones (duplicate rows, categorical
// knobs, equal targets) where the presorted columns hold runs of equal
// (value, target) pairs.
TEST(ParallelDeterminismTest, RandomForestFitAndPredict) {
  const testing::TieHeavyData ties = testing::MakeTieHeavyData(90, 23);
  const testing::TieHeavyData tie_queries = testing::MakeTieHeavyData(30, 31);
  struct Input {
    FeatureMatrix x;
    std::vector<double> y;
    FeatureMatrix queries;
  };
  const FeatureMatrix continuous = MakeInputs(120, 6, 17);
  const Input inputs[] = {
      {continuous, MakeTargets(continuous), MakeInputs(30, 6, 19)},
      {ties.x, ties.y, tie_queries.x},
  };

  for (const Input& input : inputs) {
    auto run = [&](size_t pool_size) {
      PoolSizeGuard guard(pool_size);
      RandomForestOptions options;
      options.num_trees = 50;
      options.seed = 29;
      RandomForest forest(options);
      EXPECT_TRUE(forest.Fit(input.x, input.y).ok());
      std::vector<double> out = forest.SplitCountImportance();
      const std::vector<double> impurity = forest.ImpurityImportance();
      out.insert(out.end(), impurity.begin(), impurity.end());
      for (const auto& q : input.queries) {
        double mean = 0.0, var = 0.0;
        forest.PredictMeanVar(q, &mean, &var);
        out.push_back(mean);
        out.push_back(var);
      }
      std::vector<double> means, variances;
      forest.PredictMeanVarBatch(input.queries, &means, &variances);
      out.insert(out.end(), means.begin(), means.end());
      out.insert(out.end(), variances.begin(), variances.end());
      return out;
    };
    const std::vector<double> pool1 = run(1);
    EXPECT_EQ(pool1, run(2));
    EXPECT_EQ(pool1, run(8));
  }
}

// Full optimizer loops: suggestions must be identical configuration by
// configuration, which exercises parallel surrogate fits, posterior
// queries, and acquisition scoring end to end.
template <typename MakeOptimizer>
void ExpectIdenticalTrajectories(MakeOptimizer make) {
  auto run = [&](size_t pool_size) {
    PoolSizeGuard guard(pool_size);
    const ConfigurationSpace space = MakeContinuousSpace(4);
    std::unique_ptr<Optimizer> optimizer = make(space);
    std::vector<double> trace;
    for (int i = 0; i < 20; ++i) {
      const Configuration c = optimizer->Suggest();
      double score = 0.0;
      for (size_t j = 0; j < c.size(); ++j) {
        score -= (c[j] - 0.6) * (c[j] - 0.6);
      }
      optimizer->Observe(c, score);
      for (size_t j = 0; j < c.size(); ++j) trace.push_back(c[j]);
    }
    return trace;
  };
  EXPECT_EQ(run(1), run(4));
}

TEST(ParallelDeterminismTest, GpBoTrajectory) {
  ExpectIdenticalTrajectories([](const ConfigurationSpace& space) {
    OptimizerOptions options;
    options.seed = 31;
    return std::make_unique<VanillaBoOptimizer>(space, options);
  });
}

// A longer GP-BO run whose surrogate crosses several incremental appends
// between hyperopt refreshes (hyperopt_every = 5, 25 iterations): the
// bordered-append path must keep the trajectory bit-identical both
// across pool sizes and against the full-refactorization baseline.
TEST(ParallelDeterminismTest, GpBoTrajectoryCrossesIncrementalAppends) {
  struct TestGpBo final : GpBoOptimizer {
    using GpBoOptimizer::GpBoOptimizer;
    std::string name() const override { return "Test GP-BO"; }
  };
  auto run = [](size_t pool_size, bool incremental) {
    PoolSizeGuard guard(pool_size);
    const ConfigurationSpace space = MakeContinuousSpace(4);
    OptimizerOptions options;
    options.seed = 53;
    GaussianProcessOptions gp_options;
    gp_options.enable_incremental = incremental;
    TestGpBo optimizer(space, options, std::make_unique<Matern52Kernel>(),
                       gp_options);
    std::vector<double> trace;
    for (int i = 0; i < 25; ++i) {
      const Configuration c = optimizer.Suggest();
      double score = 0.0;
      for (size_t j = 0; j < c.size(); ++j) {
        score -= (c[j] - 0.6) * (c[j] - 0.6);
      }
      optimizer.Observe(c, score);
      for (size_t j = 0; j < c.size(); ++j) trace.push_back(c[j]);
    }
    return trace;
  };
  const std::vector<double> baseline = run(1, /*incremental=*/false);
  EXPECT_EQ(baseline, run(1, /*incremental=*/true));
  EXPECT_EQ(baseline, run(2, /*incremental=*/true));
  EXPECT_EQ(baseline, run(8, /*incremental=*/true));
}

// The projected wrapper adds the embedding decode on top of the inner
// optimizer; the full-space trajectory must stay bit-identical across
// pool sizes (the projection itself is pool-independent by construction,
// but the inner BO loop is not trivially so).
TEST(ParallelDeterminismTest, ProjectedOptimizerTrajectory) {
  auto run = [](size_t pool_size) {
    PoolSizeGuard guard(pool_size);
    const ConfigurationSpace space = MakeContinuousSpace(8);
    OptimizerOptions options;
    options.seed = 71;
    ProjectionOptions projection;
    projection.dims = 3;
    ProjectedOptimizer optimizer(space, options, OptimizerType::kVanillaBo,
                                 projection);
    std::vector<double> trace;
    for (int i = 0; i < 18; ++i) {
      const Configuration c = optimizer.Suggest();
      double score = 0.0;
      for (size_t j = 0; j < c.size(); ++j) {
        score -= (c[j] - 0.6) * (c[j] - 0.6);
      }
      optimizer.Observe(c, score);
      for (size_t j = 0; j < c.size(); ++j) trace.push_back(c[j]);
    }
    return trace;
  };
  const std::vector<double> pool1 = run(1);
  EXPECT_EQ(pool1, run(2));
  EXPECT_EQ(pool1, run(8));
}

TEST(ParallelDeterminismTest, SmacTrajectory) {
  ExpectIdenticalTrajectories([](const ConfigurationSpace& space) {
    OptimizerOptions options;
    options.seed = 37;
    return std::make_unique<SmacOptimizer>(space, options);
  });
}

TEST(ParallelDeterminismTest, TurboTrajectory) {
  ExpectIdenticalTrajectories([](const ConfigurationSpace& space) {
    OptimizerOptions options;
    options.seed = 41;
    return std::make_unique<TurboOptimizer>(space, options);
  });
}

// RGPE's ensemble acquisition scores candidates with ParallelFor across
// every live base model plus the target model; the whole transfer
// trajectory must be bit-identical at any pool size.
TEST(ParallelDeterminismTest, RgpeTrajectory) {
  // Two source tasks over the shared synthetic truth (peak at 0.8 in dim
  // 0), one of them inverted so both the high- and near-zero-weight model
  // paths are exercised.
  const auto make_repository = [](const ConfigurationSpace& space) {
    ObservationRepository repo;
    Rng rng(43);
    SourceTask helpful, adversarial;
    helpful.name = "helpful";
    adversarial.name = "adversarial";
    for (int i = 0; i < 40; ++i) {
      std::vector<double> u(space.dimension());
      for (double& v : u) v = rng.Uniform();
      const double score = -(u[0] - 0.8) * (u[0] - 0.8);
      helpful.unit_x.push_back(u);
      helpful.scores.push_back(score);
      adversarial.unit_x.push_back(u);
      adversarial.scores.push_back(-score);
    }
    repo.AddTask(helpful);
    repo.AddTask(adversarial);
    return repo;
  };

  auto run = [&](size_t pool_size) {
    PoolSizeGuard guard(pool_size);
    const ConfigurationSpace space = MakeContinuousSpace(4);
    const ObservationRepository repo = make_repository(space);
    OptimizerOptions options;
    options.seed = 47;
    options.initial_design = 5;
    options.acquisition_candidates = 80;
    RgpeOptimizer rgpe(space, options, &repo, TransferBase::kSmac);
    std::vector<double> trace;
    for (int i = 0; i < 15; ++i) {
      const Configuration c = rgpe.Suggest();
      double score = 0.0;
      for (size_t j = 0; j < c.size(); ++j) {
        score -= (c[j] - 0.6) * (c[j] - 0.6);
      }
      rgpe.Observe(c, score);
      for (size_t j = 0; j < c.size(); ++j) trace.push_back(c[j]);
    }
    for (double w : rgpe.last_weights()) trace.push_back(w);
    return trace;
  };

  const std::vector<double> pool1 = run(1);
  EXPECT_EQ(pool1, run(2));
  EXPECT_EQ(pool1, run(8));
}

// Diagnostics are pure observers: turning the per-session collector on
// must leave the tuning trajectory bitwise identical at every pool size
// in the acceptance sweep (the collector never consumes randomness or
// clock reads that feed the optimizer).
TEST(ParallelDeterminismTest, DiagnosticsDoNotPerturbTrajectories) {
  auto run = [](size_t pool_size, bool diagnostics) {
    PoolSizeGuard guard(pool_size);
    DbmsSimulator sim(SmallTestCatalog(), WorkloadId::kSysbench,
                      HardwareInstance::kB, /*seed=*/5);
    std::vector<size_t> knob_indices(sim.space().dimension());
    for (size_t i = 0; i < knob_indices.size(); ++i) knob_indices[i] = i;
    TuningEnvironment env(&sim, knob_indices);
    OptimizerOptions options;
    options.seed = 73;
    std::unique_ptr<Optimizer> optimizer =
        CreateOptimizer(OptimizerType::kVanillaBo, env.space(), options);
    SessionControls controls;
    controls.diagnostics = diagnostics;
    controls.session_label = "determinism";
    const SessionResult result =
        RunTuningSession(&env, optimizer.get(), /*iterations=*/10, controls);
    std::vector<double> trace = result.objective_trace;
    trace.insert(trace.end(), result.improvement_trace.begin(),
                 result.improvement_trace.end());
    return trace;
  };
  const std::vector<double> baseline = run(1, /*diagnostics=*/false);
  EXPECT_EQ(baseline, run(1, /*diagnostics=*/true));
  EXPECT_EQ(baseline, run(2, /*diagnostics=*/true));
  EXPECT_EQ(baseline, run(8, /*diagnostics=*/true));
}

}  // namespace
}  // namespace dbtune
