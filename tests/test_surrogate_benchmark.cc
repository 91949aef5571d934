#include "benchmk/surrogate_benchmark.h"

#include <gtest/gtest.h>

#include <algorithm>

#include "benchmk/data_collector.h"
#include "core/tuning_session.h"
#include "knobs/catalog.h"
#include "pool_size_guard.h"
#include "tie_heavy_data.h"
#include "util/stats.h"

namespace dbtune {
namespace {

std::vector<size_t> FirstKnobs(size_t n) {
  std::vector<size_t> idx(n);
  for (size_t i = 0; i < n; ++i) idx[i] = i;
  return idx;
}

TEST(DataCollectorTest, CollectsRequestedSamples) {
  DbmsSimulator sim(SmallTestCatalog(), WorkloadId::kSysbench,
                    HardwareInstance::kB, 1);
  CollectionOptions options;
  options.lhs_samples = 120;
  Result<TuningDataset> dataset =
      CollectDataset(&sim, FirstKnobs(sim.space().dimension()), options);
  ASSERT_TRUE(dataset.ok());
  EXPECT_EQ(dataset->unit_x.size(), 120u);
  EXPECT_EQ(dataset->objectives.size(), 120u);
  EXPECT_GT(dataset->default_objective, 0.0);
  EXPECT_GT(dataset->simulated_collection_seconds, 0.0);
}

TEST(DataCollectorTest, OptimizerGuidedSamplesAdded) {
  DbmsSimulator sim(SmallTestCatalog(), WorkloadId::kTpcc,
                    HardwareInstance::kB, 2);
  CollectionOptions options;
  options.lhs_samples = 60;
  options.optimizer_guided_samples = 20;
  Result<TuningDataset> dataset =
      CollectDataset(&sim, FirstKnobs(sim.space().dimension()), options);
  ASSERT_TRUE(dataset.ok());
  EXPECT_EQ(dataset->unit_x.size(), 80u);
}

// A collection over 20 knobs that include the buffer pool, with SMAC-
// guided samples, at pool sizes 1/2/8. The samples and the recorded
// default are hashed apart.
TEST(DataCollectorTest, GuidedDatasetMatchesPins) {
  for (const size_t pool : {size_t{1}, size_t{2}, size_t{8}}) {
    const testing::PoolSizeGuard guard(pool);
    DbmsSimulator sim(WorkloadId::kSysbench, HardwareInstance::kB, 25);
    const size_t bp = *sim.space().KnobIndex("innodb_buffer_pool_size");
    std::vector<size_t> knobs = sim.surface().importance_ranking();
    knobs.resize(20);
    ASSERT_EQ(std::find(knobs.begin(), knobs.end(), bp), knobs.end());
    knobs.back() = bp;
    CollectionOptions options;
    options.lhs_samples = 40;
    options.optimizer_guided_samples = 12;
    options.seed = 26;
    Result<TuningDataset> dataset = CollectDataset(&sim, knobs, options);
    ASSERT_TRUE(dataset.ok());
    ASSERT_EQ(dataset->unit_x.size(), 52u);
    testing::Fnv1a samples;
    for (const std::vector<double>& row : dataset->unit_x) {
      for (double v : row) samples.Add(v);
    }
    for (double v : dataset->objectives) samples.Add(v);
    testing::Fnv1a default_config;
    for (double v : dataset->default_config.values()) default_config.Add(v);
    EXPECT_EQ(samples.hash(), 0xcc920174afb590f6ULL)
        << "pool=" << pool << " hash=0x" << std::hex << samples.hash();
    EXPECT_EQ(default_config.hash(), 0x57663a6c1f2f5a05ULL)
        << "pool=" << pool << " hash=0x" << std::hex << default_config.hash();
  }
}

TEST(DataCollectorTest, FailedConfigsGetWorstObjective) {
  DbmsSimulator sim(WorkloadId::kSysbench, HardwareInstance::kB, 3);
  // Tune only the buffer pool: large values crash.
  const size_t bp = *sim.space().KnobIndex("innodb_buffer_pool_size");
  CollectionOptions options;
  options.lhs_samples = 60;
  Result<TuningDataset> dataset = CollectDataset(&sim, {bp}, options);
  ASSERT_TRUE(dataset.ok());
  // Every objective is positive (failed ones substituted).
  for (double obj : dataset->objectives) EXPECT_GT(obj, 0.0);
}

TEST(DataCollectorTest, RejectsZeroSamples) {
  DbmsSimulator sim(SmallTestCatalog(), WorkloadId::kVoter,
                    HardwareInstance::kB, 4);
  CollectionOptions options;
  options.lhs_samples = 0;
  EXPECT_FALSE(CollectDataset(&sim, {0, 1}, options).ok());
}

class SurrogateBenchmarkTest : public ::testing::Test {
 protected:
  void SetUp() override {
    sim_ = std::make_unique<DbmsSimulator>(
        SmallTestCatalog(), WorkloadId::kSysbench, HardwareInstance::kB, 5);
    CollectionOptions options;
    options.lhs_samples = 400;
    options.seed = 6;
    Result<TuningDataset> dataset = CollectDataset(
        sim_.get(), FirstKnobs(sim_->space().dimension()), options);
    ASSERT_TRUE(dataset.ok());
    dataset_ = std::move(dataset.value());
    Result<std::unique_ptr<SurrogateBenchmark>> benchmark =
        SurrogateBenchmark::Build(dataset_);
    ASSERT_TRUE(benchmark.ok());
    benchmark_ = std::move(benchmark.value());
  }

  std::unique_ptr<DbmsSimulator> sim_;
  TuningDataset dataset_;
  std::unique_ptr<SurrogateBenchmark> benchmark_;
};

TEST_F(SurrogateBenchmarkTest, PredictionsCorrelateWithSimulator) {
  Rng rng(7);
  std::vector<double> predicted, actual;
  for (int i = 0; i < 60; ++i) {
    const Configuration c = benchmark_->space().SampleUniform(rng);
    predicted.push_back(benchmark_->Evaluate(c).objective);
    actual.push_back(sim_->NoiselessObjective(c));
  }
  EXPECT_GT(SpearmanCorrelation(predicted, actual), 0.6);
}

TEST_F(SurrogateBenchmarkTest, EvaluationAccounting) {
  const double before = benchmark_->simulated_seconds();
  benchmark_->Evaluate(benchmark_->space().Default());
  // One query stands in for a restart + 3-minute stress test.
  EXPECT_EQ(benchmark_->simulated_seconds(), before + 210.0);
  // The whole point: the surrogate answers much faster than a 3-minute
  // stress test would.
  EXPECT_LT(benchmark_->evaluation_seconds(),
            benchmark_->simulated_seconds() / 100.0);
}

TEST_F(SurrogateBenchmarkTest, ScoreDirectionMatchesWorkload) {
  EXPECT_EQ(benchmark_->objective(), ObjectiveKind::kThroughput);
  const TuningEnvironment env(benchmark_.get());
  EXPECT_EQ(env.default_score(), dataset_.default_objective);
}

// A session of a fresh `type` optimizer over `env`.
SessionResult RunSession(TuningEnvironment* env, OptimizerType type,
                         size_t iterations, uint64_t seed) {
  OptimizerOptions options;
  options.seed = seed;
  std::unique_ptr<Optimizer> optimizer =
      CreateOptimizer(type, env->space(), options);
  return RunTuningSession(env, optimizer.get(), iterations);
}

TEST_F(SurrogateBenchmarkTest, SurrogateSessionImproves) {
  TuningEnvironment env(benchmark_.get());
  const SessionResult result = RunSession(&env, OptimizerType::kSmac, 50, 8);
  EXPECT_EQ(result.improvement_trace.size(), 50u);
  EXPECT_GT(result.final_improvement, 0.0);
  // The default is the first incumbent, so no prefix is worse than it.
  for (double improvement : result.improvement_trace) {
    EXPECT_GE(improvement, 0.0);
  }
  // Each surrogate query stands in for a restart + 3-minute stress test.
  EXPECT_EQ(result.simulated_evaluation_seconds, 50 * 210.0);
}

TEST_F(SurrogateBenchmarkTest, PreservesOptimizerOrderingVsRandom) {
  TuningEnvironment smac_env(benchmark_.get());
  const SessionResult smac =
      RunSession(&smac_env, OptimizerType::kSmac, 60, 9);
  TuningEnvironment random_env(benchmark_.get());
  const SessionResult random =
      RunSession(&random_env, OptimizerType::kRandomSearch, 60, 9);
  EXPECT_GE(smac.final_improvement, random.final_improvement - 1.0);
}

// Bitwise pins of the (clipped configuration, objective) sequence each
// paper optimizer evaluates in a 40-iteration session on the benchmark,
// at pool sizes 1/2/8. Recorded with a hand-written suggest/predict/
// observe loop before surrogate sessions ran through TuningEnvironment;
// any change to what a surrogate session feeds the optimizer, down to one
// ulp, changes a hash.
struct SurrogatePin {
  OptimizerType type;
  uint64_t hash;
};

constexpr size_t kPinIterations = 40;
constexpr uint64_t kPinSeed = 11;

const SurrogatePin kSurrogatePins[] = {
    {OptimizerType::kVanillaBo, 0x9a8dde8768a4d593ULL},
    {OptimizerType::kMixedKernelBo, 0xfebddf6f57fe36f3ULL},
    {OptimizerType::kSmac, 0x5abd1478e89e8bc9ULL},
    {OptimizerType::kTpe, 0x94abdfc15d4d9a46ULL},
    {OptimizerType::kTurbo, 0x7ab7185ff462b747ULL},
    {OptimizerType::kDdpg, 0xe4b7b7e5831dbbe4ULL},
    {OptimizerType::kGa, 0xa3b4a5141b0543abULL},
};

TEST_F(SurrogateBenchmarkTest, SessionsMatchPins) {
  ASSERT_EQ(std::size(kSurrogatePins), PaperOptimizers().size());
  for (const size_t pool : {size_t{1}, size_t{2}, size_t{8}}) {
    const testing::PoolSizeGuard guard(pool);
    for (const SurrogatePin& pin : kSurrogatePins) {
      TuningEnvironment env(benchmark_.get());
      const SessionResult result =
          RunSession(&env, pin.type, kPinIterations, kPinSeed);
      ASSERT_EQ(env.history().size(), kPinIterations);
      ASSERT_EQ(result.objective_trace.size(), kPinIterations);
      testing::Fnv1a fnv;
      // The default is the first incumbent (SYSBENCH: higher is better).
      double best = env.default_objective();
      for (size_t i = 0; i < kPinIterations; ++i) {
        const Observation& observation = env.history()[i];
        for (size_t j = 0; j < observation.config.size(); ++j) {
          fnv.Add(observation.config[j]);
        }
        fnv.Add(observation.objective);
        best = std::max(best, observation.objective);
        EXPECT_EQ(result.objective_trace[i], best)
            << OptimizerTypeName(pin.type) << " iteration " << i;
      }
      EXPECT_EQ(fnv.hash(), pin.hash)
          << OptimizerTypeName(pin.type) << " pool=" << pool << " hash=0x"
          << std::hex << fnv.hash();
    }
  }
}

TEST(SurrogateBenchmarkBuildTest, RejectsEmptyDataset) {
  TuningDataset dataset;
  EXPECT_FALSE(SurrogateBenchmark::Build(dataset).ok());
}

}  // namespace
}  // namespace dbtune
