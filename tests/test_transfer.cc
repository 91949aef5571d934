#include <cmath>
#include <string>

#include <gtest/gtest.h>

#include "dbms/environment.h"
#include "knobs/catalog.h"
#include "tie_heavy_data.h"
#include "transfer/fine_tune.h"
#include "transfer/repository.h"
#include "transfer/rgpe.h"
#include "transfer/workload_mapping.h"

namespace dbtune {
namespace {

// Builds a repository with one task whose surface matches `target` and one
// adversarial task with inverted scores.
ObservationRepository MakeRepository(const ConfigurationSpace& space,
                                     uint64_t seed) {
  ObservationRepository repo;
  Rng rng(seed);
  SourceTask helpful, adversarial;
  helpful.name = "helpful";
  adversarial.name = "adversarial";
  for (int i = 0; i < 60; ++i) {
    std::vector<double> u(space.dimension());
    for (double& v : u) v = rng.Uniform();
    // Shared synthetic truth: peak at 0.8 in dim 0.
    const double score = -(u[0] - 0.8) * (u[0] - 0.8);
    helpful.unit_x.push_back(u);
    helpful.scores.push_back(score);
    adversarial.unit_x.push_back(u);
    adversarial.scores.push_back(-score);  // inverted: misleading
  }
  helpful.metric_signature.assign(40, 0.0);
  adversarial.metric_signature.assign(40, 1.0);
  repo.AddTask(helpful);
  repo.AddTask(adversarial);
  return repo;
}

ConfigurationSpace MakeSpace() {
  std::vector<Knob> knobs;
  for (int i = 0; i < 4; ++i) {
    std::string name = "x";
    name += std::to_string(i);  // avoids gcc-12 -Wrestrict false positive
    knobs.push_back(Knob::Continuous(name, 0.0, 1.0, 0.5));
  }
  return ConfigurationSpace(std::move(knobs));
}

double TargetObjective(const Configuration& c) {
  return -(c[0] - 0.8) * (c[0] - 0.8) - 0.2 * (c[1] - 0.3) * (c[1] - 0.3);
}

TEST(RepositoryTest, FromHistoryAggregates) {
  const ConfigurationSpace space = MakeSpace();
  std::vector<Observation> history;
  Observation a;
  a.config = Configuration({0.1, 0.2, 0.3, 0.4});
  a.score = 1.0;
  a.internal_metrics = {1.0, 3.0};
  history.push_back(a);
  Observation b;
  b.config = Configuration({0.5, 0.5, 0.5, 0.5});
  b.score = 2.0;
  b.internal_metrics = {3.0, 5.0};
  history.push_back(b);
  Observation failed;
  failed.config = Configuration({0.9, 0.9, 0.9, 0.9});
  failed.score = 0.5;
  failed.failed = true;
  failed.internal_metrics = {100.0, 100.0};
  history.push_back(failed);

  const SourceTask task =
      ObservationRepository::FromHistory("t", space, history);
  EXPECT_EQ(task.unit_x.size(), 3u);
  EXPECT_EQ(task.scores.size(), 3u);
  ASSERT_EQ(task.metric_signature.size(), 2u);
  // Failed observation excluded from the signature.
  EXPECT_DOUBLE_EQ(task.metric_signature[0], 2.0);
  EXPECT_DOUBLE_EQ(task.metric_signature[1], 4.0);
}

// Regression: a history mixing metric arities (recorded across collector
// versions) used to read past the end of the shorter vector. Under asan
// this test fails outright without the clamp.
TEST(RepositoryTest, FromHistoryClampsMismatchedMetricArity) {
  const ConfigurationSpace space = MakeSpace();
  std::vector<Observation> history;
  Observation wide;
  wide.config = Configuration({0.1, 0.2, 0.3, 0.4});
  wide.score = 1.0;
  wide.internal_metrics = {2.0, 4.0, 6.0};
  history.push_back(wide);
  Observation narrow;
  narrow.config = Configuration({0.5, 0.5, 0.5, 0.5});
  narrow.score = 2.0;
  narrow.internal_metrics = {4.0};  // shorter than the first observation
  history.push_back(narrow);

  const SourceTask task =
      ObservationRepository::FromHistory("t", space, history);
  // Signature keeps the first observation's width; the short vector only
  // contributes to the dimensions it has.
  ASSERT_EQ(task.metric_signature.size(), 3u);
  EXPECT_DOUBLE_EQ(task.metric_signature[0], 3.0);  // (2 + 4) / 2
  EXPECT_DOUBLE_EQ(task.metric_signature[1], 2.0);  // 4 / 2
  EXPECT_DOUBLE_EQ(task.metric_signature[2], 3.0);  // 6 / 2
}

TEST(RepositoryTest, FromHistoryEmptyHistoryYieldsEmptyTask) {
  const ConfigurationSpace space = MakeSpace();
  const SourceTask task = ObservationRepository::FromHistory("t", space, {});
  EXPECT_TRUE(task.unit_x.empty());
  EXPECT_TRUE(task.scores.empty());
  EXPECT_TRUE(task.metric_signature.empty());
}

TEST(WorkloadMappingTest, MapsToNearestSignature) {
  const ConfigurationSpace space = MakeSpace();
  const ObservationRepository repo = MakeRepository(space, 1);
  OptimizerOptions options;
  options.seed = 2;
  options.initial_design = 4;
  WorkloadMappingOptimizer mapping(space, options, &repo,
                                   TransferBase::kSmac);
  Rng rng(3);
  // Feed observations whose metrics sit at the helpful task's signature.
  const std::vector<double> metrics(40, 0.05);
  for (int i = 0; i < 8; ++i) {
    const Configuration c = mapping.Suggest();
    mapping.ObserveWithMetrics(c, TargetObjective(c), metrics);
  }
  mapping.Suggest();  // triggers mapping with enough data
  EXPECT_EQ(mapping.mapped_task(), 0);  // the helpful task
  EXPECT_EQ(mapping.name(), "Mapping (SMAC)");
}

TEST(WorkloadMappingTest, SuggestionsValidForBothBases) {
  const ConfigurationSpace space = MakeSpace();
  const ObservationRepository repo = MakeRepository(space, 4);
  for (TransferBase base :
       {TransferBase::kSmac, TransferBase::kMixedKernelBo}) {
    OptimizerOptions options;
    options.seed = 5;
    options.initial_design = 4;
    options.acquisition_candidates = 60;
    WorkloadMappingOptimizer mapping(space, options, &repo, base);
    const std::vector<double> metrics(40, 0.0);
    for (int i = 0; i < 12; ++i) {
      const Configuration c = mapping.Suggest();
      EXPECT_TRUE(space.Validate(c).ok());
      mapping.ObserveWithMetrics(c, TargetObjective(c), metrics);
    }
  }
}

TEST(RgpeTest, MixtureMeanVarMatchesHandComputedMixture) {
  // Two-model mixture, hand-computed: w = {0.5, 0.5}, μ = {−1, 1},
  // σ² = {0.25, 0.25}. Mean = 0.5·(−1) + 0.5·1 = 0. Second moment =
  // 0.5·(1 + 0.25) + 0.5·(1 + 0.25) = 1.25, so variance = 1.25 − 0² =
  // 1.25. The pre-fix formula Σ wᵢ²σᵢ² would report 0.125 — it drops the
  // disagreement between the model means entirely.
  double mean = 0.0, variance = 0.0;
  MixtureMeanVar({0.5, 0.5}, {-1.0, 1.0}, {0.25, 0.25}, &mean, &variance);
  EXPECT_DOUBLE_EQ(mean, 0.0);
  EXPECT_DOUBLE_EQ(variance, 1.25);

  // Degenerate one-model "mixture" must reduce to that model's moments.
  MixtureMeanVar({1.0}, {0.7}, {0.09}, &mean, &variance);
  EXPECT_DOUBLE_EQ(mean, 0.7);
  EXPECT_NEAR(variance, 0.09, 1e-15);

  // Agreeing means: variance is exactly the weighted within-model
  // variance (no between-model spread).
  MixtureMeanVar({0.25, 0.75}, {2.0, 2.0}, {1.0, 0.2}, &mean, &variance);
  EXPECT_DOUBLE_EQ(mean, 2.0);
  EXPECT_NEAR(variance, 0.25 * 1.0 + 0.75 * 0.2, 1e-12);
}

TEST(RgpeTest, DownweightsAdversarialTask) {
  const ConfigurationSpace space = MakeSpace();
  const ObservationRepository repo = MakeRepository(space, 6);
  OptimizerOptions options;
  options.seed = 7;
  options.initial_design = 8;
  options.acquisition_candidates = 60;
  RgpeOptimizer rgpe(space, options, &repo, TransferBase::kSmac);
  Rng rng(8);
  for (int i = 0; i < 20; ++i) {
    const Configuration c = rgpe.Suggest();
    rgpe.Observe(c, TargetObjective(c));
  }
  // Weights: [helpful, adversarial, target]. The adversarial task must
  // carry (near-)zero weight.
  const std::vector<double>& weights = rgpe.last_weights();
  ASSERT_EQ(weights.size(), 3u);
  EXPECT_LT(weights[1], 0.15);
  EXPECT_GT(weights[0] + weights[2], 0.8);
  EXPECT_EQ(rgpe.name(), "RGPE (SMAC)");
}

TEST(RgpeTest, HelpfulSourceAcceleratesEarlyIterations) {
  const ConfigurationSpace space = MakeSpace();
  const ObservationRepository repo = MakeRepository(space, 9);

  auto run = [&](bool with_transfer, uint64_t seed) {
    OptimizerOptions options;
    options.seed = seed;
    options.initial_design = 5;
    options.acquisition_candidates = 60;
    std::unique_ptr<Optimizer> optimizer;
    if (with_transfer) {
      optimizer = std::make_unique<RgpeOptimizer>(space, options, &repo,
                                                  TransferBase::kSmac);
    } else {
      optimizer = CreateOptimizer(OptimizerType::kSmac, space, options);
    }
    double best = -1e300;
    for (int i = 0; i < 25; ++i) {
      const Configuration c = optimizer->Suggest();
      const double s = TargetObjective(c);
      optimizer->Observe(c, s);
      best = std::max(best, s);
    }
    return best;
  };

  double rgpe_total = 0.0, base_total = 0.0;
  for (uint64_t seed = 1; seed <= 3; ++seed) {
    rgpe_total += run(true, seed);
    base_total += run(false, seed);
  }
  // Transfer should at least not hurt on a matched source (and typically
  // helps within this small budget).
  EXPECT_GE(rgpe_total, base_total - 0.02);
}

TEST(FineTuneTest, PretrainProducesWeightsAndRepository) {
  // Tiny pre-training run over two source workloads on the small catalog
  // knob subset of the full catalog.
  std::vector<size_t> knob_indices;
  for (size_t i = 0; i < 6; ++i) knob_indices.push_back(i);
  PretrainOptions options;
  options.iterations_per_source = 12;
  ObservationRepository repo;
  Result<DdpgOptimizer::Weights> weights = PretrainDdpgOnSources(
      {WorkloadId::kVoter, WorkloadId::kTatp}, knob_indices, options, &repo);
  ASSERT_TRUE(weights.ok());
  EXPECT_FALSE(weights->actor.empty());
  EXPECT_EQ(repo.size(), 2u);
  EXPECT_EQ(repo.tasks()[0].unit_x.size(), 12u);

  // Fine-tuned optimizer accepts the weights.
  const ConfigurationSpace space = MySqlKnobCatalog().Project(knob_indices);
  OptimizerOptions optimizer_options;
  Result<std::unique_ptr<DdpgOptimizer>> ddpg =
      MakeFineTunedDdpg(space, optimizer_options, *weights);
  ASSERT_TRUE(ddpg.ok());
  EXPECT_EQ((*ddpg)->ExportWeights().actor, weights->actor);
}

// Bitwise pin of two-source pre-training at pool sizes 1/2/8: 40
// iterations per source, so DDPG trains on each source (its replay holds
// 32 transitions after the 32nd observation) and carries the weights over.
TEST(FineTuneTest, PretrainedWeightsMatchPin) {
  std::vector<size_t> knob_indices;
  for (size_t i = 0; i < 6; ++i) knob_indices.push_back(i);
  PretrainOptions options;
  options.iterations_per_source = 40;
  for (const size_t pool : {size_t{1}, size_t{2}, size_t{8}}) {
    const testing::PoolSizeGuard guard(pool);
    Result<DdpgOptimizer::Weights> weights = PretrainDdpgOnSources(
        {WorkloadId::kVoter, WorkloadId::kTatp}, knob_indices, options,
        nullptr);
    ASSERT_TRUE(weights.ok());
    testing::Fnv1a fnv;
    for (double w : weights->actor) fnv.Add(w);
    for (double w : weights->critic) fnv.Add(w);
    EXPECT_EQ(fnv.hash(), 0x2f6605d1360f9415ULL)
        << "pool=" << pool << " hash=0x" << std::hex << fnv.hash();
  }
}

TEST(FineTuneTest, RejectsEmptySources) {
  EXPECT_FALSE(
      PretrainDdpgOnSources({}, {0, 1}, PretrainOptions{}, nullptr).ok());
}

}  // namespace
}  // namespace dbtune
