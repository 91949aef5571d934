#include "core/tuning_session.h"

#include <gtest/gtest.h>

#include "knobs/catalog.h"

namespace dbtune {
namespace {

std::vector<size_t> FirstKnobs(size_t n) {
  std::vector<size_t> idx(n);
  for (size_t i = 0; i < n; ++i) idx[i] = i;
  return idx;
}

TEST(TuningSessionTest, TracesHaveRightShape) {
  DbmsSimulator sim(SmallTestCatalog(), WorkloadId::kSysbench,
                    HardwareInstance::kB, 1);
  const SessionResult result = RunTuningSession(
      &sim, FirstKnobs(sim.space().dimension()), OptimizerType::kSmac, 30, 2);
  EXPECT_EQ(result.improvement_trace.size(), 30u);
  EXPECT_EQ(result.objective_trace.size(), 30u);
  EXPECT_DOUBLE_EQ(result.final_improvement, result.improvement_trace.back());
  EXPECT_DOUBLE_EQ(result.final_objective, result.objective_trace.back());
  EXPECT_GT(result.simulated_evaluation_seconds, 0.0);
}

TEST(TuningSessionTest, BestSoFarTracesAreMonotone) {
  DbmsSimulator sim(SmallTestCatalog(), WorkloadId::kTpcc,
                    HardwareInstance::kB, 3);
  const SessionResult result = RunTuningSession(
      &sim, FirstKnobs(sim.space().dimension()), OptimizerType::kRandomSearch,
      40, 4);
  for (size_t i = 1; i < result.improvement_trace.size(); ++i) {
    EXPECT_GE(result.improvement_trace[i], result.improvement_trace[i - 1]);
    // Throughput objective: the best-so-far objective also rises.
    EXPECT_GE(result.objective_trace[i], result.objective_trace[i - 1]);
  }
}

TEST(TuningSessionTest, LatencyWorkloadTraceDecreases) {
  DbmsSimulator sim(SmallTestCatalog(), WorkloadId::kJob,
                    HardwareInstance::kB, 5);
  const SessionResult result = RunTuningSession(
      &sim, FirstKnobs(sim.space().dimension()), OptimizerType::kSmac, 30, 6);
  for (size_t i = 1; i < result.objective_trace.size(); ++i) {
    EXPECT_LE(result.objective_trace[i], result.objective_trace[i - 1]);
  }
  EXPECT_GE(result.final_improvement, 0.0);
}

TEST(TuningSessionTest, OverheadRecordedEveryIteration) {
  DbmsSimulator sim(SmallTestCatalog(), WorkloadId::kTatp,
                    HardwareInstance::kB, 7);
  TuningEnvironment env(&sim, FirstKnobs(sim.space().dimension()));
  OptimizerOptions options;
  options.seed = 8;
  std::unique_ptr<Optimizer> optimizer =
      CreateOptimizer(OptimizerType::kVanillaBo, env.space(), options);
  const SessionResult result = RunTuningSession(&env, optimizer.get(), 20);
  EXPECT_EQ(result.per_iteration_overhead.size(), 20u);
  EXPECT_GE(result.algorithm_overhead_seconds, 0.0);
  double total = 0.0;
  for (double t : result.per_iteration_overhead) total += t;
  EXPECT_NEAR(total, result.algorithm_overhead_seconds, 1e-6);
}

TEST(TuningSessionTest, SmacFindsImprovementOnSysbench) {
  // The headline behaviour: model-based tuning improves over the default.
  DbmsSimulator sim(WorkloadId::kSysbench, HardwareInstance::kB, 9);
  TuningEnvironment env(&sim, FirstKnobs(20));
  OptimizerOptions options;
  options.seed = 10;
  std::unique_ptr<Optimizer> optimizer =
      CreateOptimizer(OptimizerType::kSmac, env.space(), options);
  const SessionResult result = RunTuningSession(&env, optimizer.get(), 60);
  EXPECT_GT(result.final_improvement, 0.0);
  EXPECT_GT(result.best_iteration, 0u);
  EXPECT_LE(result.best_iteration, 60u);
}

}  // namespace
}  // namespace dbtune
