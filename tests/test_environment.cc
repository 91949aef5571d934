#include "dbms/environment.h"

#include <gtest/gtest.h>

#include "knobs/catalog.h"

namespace dbtune {
namespace {

TEST(EnvironmentTest, MeasuresDefaultAtConstruction) {
  DbmsSimulator sim(WorkloadId::kSysbench, HardwareInstance::kB, 1);
  TuningEnvironment env(&sim);
  EXPECT_GT(env.default_objective(), 0.0);
  EXPECT_DOUBLE_EQ(env.default_score(), env.default_objective());
  EXPECT_EQ(env.iterations(), 0u);
  EXPECT_EQ(sim.evaluation_count(), 1u);  // the default measurement
}

TEST(EnvironmentTest, LatencyScoreIsNegated) {
  DbmsSimulator sim(WorkloadId::kJob, HardwareInstance::kB, 1);
  TuningEnvironment env(&sim);
  EXPECT_GT(env.default_objective(), 0.0);
  EXPECT_LT(env.default_score(), 0.0);
  EXPECT_DOUBLE_EQ(env.default_score(), -env.default_objective());
}

TEST(EnvironmentTest, SubsetTuningPinsOtherKnobs) {
  DbmsSimulator sim(WorkloadId::kSysbench, HardwareInstance::kB, 1);
  TuningEnvironment env(&sim, {0, 5, 10});
  EXPECT_EQ(env.space().dimension(), 3u);
  const Configuration sub = env.space().Default();
  const Observation obs = env.Evaluate(sub);
  EXPECT_EQ(obs.config.size(), 3u);
}

TEST(EnvironmentTest, DefaultConfigIsTheEffectiveDefault) {
  DbmsSimulator sim(WorkloadId::kSysbench, HardwareInstance::kB, 1);
  const size_t bp = *sim.space().KnobIndex("innodb_buffer_pool_size");
  const TuningEnvironment env(&sim, {bp});
  ASSERT_EQ(env.default_config().size(), 1u);
  EXPECT_EQ(env.default_config()[0], sim.EffectiveDefault()[bp]);
  // The subspace's catalog default is not what was measured.
  EXPECT_NE(env.default_config()[0], env.space().Default()[0]);
  EXPECT_EQ(env.best_config(), env.default_config());
}

TEST(EnvironmentTest, FailedConfigGetsWorstSeenScore) {
  DbmsSimulator sim(WorkloadId::kSysbench, HardwareInstance::kB, 1);
  const size_t bp = *sim.space().KnobIndex("innodb_buffer_pool_size");
  TuningEnvironment env(&sim, {bp});

  // One bad-but-running config to set the worst score.
  Configuration small_bp({64.0 * 1024 * 1024});
  const Observation ok = env.Evaluate(small_bp);
  ASSERT_FALSE(ok.failed);

  // A crashing config inherits the worst score seen so far.
  Configuration huge_bp({60.0 * 1024 * 1024 * 1024.0});
  const Observation failed = env.Evaluate(huge_bp);
  EXPECT_TRUE(failed.failed);
  EXPECT_DOUBLE_EQ(failed.objective, 0.0);
  EXPECT_LE(failed.score, env.default_score());
}

TEST(EnvironmentTest, BestTrackingAndImprovement) {
  DbmsSimulator sim(WorkloadId::kSysbench, HardwareInstance::kB, 2);
  TuningEnvironment env(&sim);
  Rng rng(3);
  double best = env.default_score();
  for (int i = 0; i < 50; ++i) {
    const Observation obs = env.Evaluate(env.space().SampleUniform(rng));
    if (!obs.failed) best = std::max(best, obs.score);
  }
  EXPECT_DOUBLE_EQ(env.best_score(), best);
  EXPECT_EQ(env.iterations(), 50u);
  if (best > env.default_score()) {
    EXPECT_GT(env.ImprovementPercent(), 0.0);
    EXPECT_GT(env.best_iteration(), 0u);
    EXPECT_LE(env.best_iteration(), 50u);
  }
}

TEST(EnvironmentTest, ImprovementPercentDirectionAware) {
  DbmsSimulator sim(WorkloadId::kJob, HardwareInstance::kB, 1);
  TuningEnvironment env(&sim);
  // Halving latency = 50% improvement.
  EXPECT_NEAR(RelativeGain(env.default_objective() / 2.0,
                           env.default_objective(), sim.objective()) *
                  100.0,
              50.0, 1e-9);
  DbmsSimulator sim2(WorkloadId::kTpcc, HardwareInstance::kB, 1);
  TuningEnvironment env2(&sim2);
  // Doubling throughput = 100% improvement.
  EXPECT_NEAR(RelativeGain(2.0 * env2.default_objective(),
                           env2.default_objective(), sim2.objective()) *
                  100.0,
              100.0, 1e-9);
}

TEST(EnvironmentTest, HistoryRecordsEverything) {
  DbmsSimulator sim(SmallTestCatalog(), WorkloadId::kVoter,
                    HardwareInstance::kB, 1);
  TuningEnvironment env(&sim);
  Rng rng(4);
  for (int i = 0; i < 10; ++i) env.Evaluate(env.space().SampleUniform(rng));
  EXPECT_EQ(env.history().size(), 10u);
  for (const Observation& obs : env.history()) {
    EXPECT_EQ(obs.config.size(), env.space().dimension());
  }
}

}  // namespace
}  // namespace dbtune
