#include "importance/incremental.h"

#include <gtest/gtest.h>

#include <algorithm>

#include "knobs/catalog.h"
#include "pool_size_guard.h"
#include "tie_heavy_data.h"

namespace dbtune {
namespace {

std::vector<size_t> GroundTruthRanking(const DbmsSimulator& sim) {
  return sim.surface().importance_ranking();
}

TEST(IncrementalTest, SchedulesMatchPaperHeuristics) {
  const IncrementalOptions inc = IncreasingSchedule(25);
  ASSERT_GE(inc.phase_sizes.size(), 2u);
  for (size_t i = 1; i < inc.phase_sizes.size(); ++i) {
    EXPECT_GT(inc.phase_sizes[i], inc.phase_sizes[i - 1]);
  }
  const IncrementalOptions dec = DecreasingSchedule(25);
  for (size_t i = 1; i < dec.phase_sizes.size(); ++i) {
    EXPECT_LT(dec.phase_sizes[i], dec.phase_sizes[i - 1]);
  }
  EXPECT_EQ(inc.iterations_per_phase, 25u);
}

TEST(IncrementalTest, RejectsInvalidOptions) {
  DbmsSimulator sim(WorkloadId::kVoter, HardwareInstance::kB, 1);
  IncrementalOptions options;
  options.phase_sizes = {};
  EXPECT_FALSE(
      RunIncrementalSession(&sim, GroundTruthRanking(sim), options).ok());
  options.phase_sizes = {5, 0};
  EXPECT_FALSE(
      RunIncrementalSession(&sim, GroundTruthRanking(sim), options).ok());
  options.phase_sizes = {99999};
  EXPECT_FALSE(
      RunIncrementalSession(&sim, GroundTruthRanking(sim), options).ok());
}

TEST(IncrementalTest, IncreasingSessionRunsAndIsMonotone) {
  DbmsSimulator sim(WorkloadId::kSysbench, HardwareInstance::kB, 2);
  IncrementalOptions options;
  options.phase_sizes = {5, 10};
  options.iterations_per_phase = 15;
  options.seed = 3;
  Result<SessionResult> result =
      RunIncrementalSession(&sim, GroundTruthRanking(sim), options);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->improvement_trace.size(), 30u);
  for (size_t i = 1; i < result->improvement_trace.size(); ++i) {
    EXPECT_GE(result->improvement_trace[i], result->improvement_trace[i - 1]);
  }
  EXPECT_DOUBLE_EQ(result->final_improvement,
                   result->improvement_trace.back());
  // Each phase's session accounting is concatenated.
  EXPECT_EQ(result->per_iteration_overhead.size(), 30u);
  EXPECT_GT(result->simulated_evaluation_seconds, 0.0);
  EXPECT_EQ(result->replayed_iterations, 0u);
  if (result->final_improvement > 0.0) {
    const size_t best = result->best_iteration;
    ASSERT_GE(best, 1u);
    ASSERT_LE(best, 30u);
    EXPECT_EQ(result->improvement_trace[best - 1], result->final_improvement);
    if (best > 1) {
      EXPECT_LT(result->improvement_trace[best - 2],
                result->final_improvement);
    }
  }
}

TEST(IncrementalTest, DecreasingSessionRuns) {
  DbmsSimulator sim(WorkloadId::kTpcc, HardwareInstance::kB, 4);
  IncrementalOptions options;
  options.phase_sizes = {20, 10, 5};
  options.iterations_per_phase = 10;
  options.seed = 5;
  Result<SessionResult> result =
      RunIncrementalSession(&sim, GroundTruthRanking(sim), options);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->objective_trace.size(), 30u);
  EXPECT_GE(result->final_improvement, 0.0);
}

TEST(IncrementalTest, FindsImprovementOnImportantKnobs) {
  DbmsSimulator sim(WorkloadId::kSysbench, HardwareInstance::kB, 6);
  IncrementalOptions options;
  options.phase_sizes = {5, 10, 15};
  options.iterations_per_phase = 20;
  options.optimizer = OptimizerType::kSmac;
  options.seed = 7;
  Result<SessionResult> result =
      RunIncrementalSession(&sim, GroundTruthRanking(sim), options);
  ASSERT_TRUE(result.ok());
  EXPECT_GT(result->final_improvement, 10.0);
}

// FNV-1a over the improvement trace, then the objective trace.
uint64_t HashTraces(const SessionResult& result) {
  testing::Fnv1a fnv;
  for (double v : result.improvement_trace) fnv.Add(v);
  for (double v : result.objective_trace) fnv.Add(v);
  return fnv.hash();
}

struct SchedulePin {
  WorkloadId workload;
  bool increasing;
  uint64_t hash;
};

// Both paper schedules at 8 iterations per phase, vanilla BO over the
// ground-truth ranking, at pool sizes 1/2/8.
TEST(IncrementalTest, SchedulesMatchPins) {
  const SchedulePin pins[] = {
      {WorkloadId::kSysbench, true, 0x6ccab318be17feffULL},
      {WorkloadId::kSysbench, false, 0xbcdb07f3e7908386ULL},
      {WorkloadId::kJob, true, 0x5960e7eae062ceb7ULL},
      {WorkloadId::kJob, false, 0xce72675f7b02448dULL},
  };
  for (const size_t pool : {size_t{1}, size_t{2}, size_t{8}}) {
    const testing::PoolSizeGuard guard(pool);
    for (const SchedulePin& pin : pins) {
      DbmsSimulator sim(pin.workload, HardwareInstance::kB, 21);
      IncrementalOptions options =
          pin.increasing ? IncreasingSchedule(8) : DecreasingSchedule(8);
      options.seed = 22;
      Result<SessionResult> result =
          RunIncrementalSession(&sim, GroundTruthRanking(sim), options);
      ASSERT_TRUE(result.ok());
      ASSERT_EQ(result->improvement_trace.size(), 32u);
      EXPECT_EQ(HashTraces(*result), pin.hash)
          << WorkloadName(pin.workload) << " increasing=" << pin.increasing
          << " pool=" << pool << " hash=0x" << std::hex
          << HashTraces(*result);
    }
  }
}

// A SMAC run whose ranking puts the buffer pool 6th, so it enters in the
// second phase of the increasing schedule. Phases are longer than the
// optimizer's 10-point initial design, so the model learns from the
// warm-start observations.
TEST(IncrementalTest, LateBufferPoolMatchesPin) {
  for (const size_t pool : {size_t{1}, size_t{2}, size_t{8}}) {
    const testing::PoolSizeGuard guard(pool);
    DbmsSimulator sim(WorkloadId::kSysbench, HardwareInstance::kB, 23);
    const size_t bp = *sim.space().KnobIndex("innodb_buffer_pool_size");
    std::vector<size_t> ranking = GroundTruthRanking(sim);
    ranking.erase(std::find(ranking.begin(), ranking.end(), bp));
    ranking.insert(ranking.begin() + 5, bp);
    IncrementalOptions options = IncreasingSchedule(16);
    options.optimizer = OptimizerType::kSmac;
    options.seed = 24;
    Result<SessionResult> result =
        RunIncrementalSession(&sim, ranking, options);
    ASSERT_TRUE(result.ok());
    EXPECT_EQ(HashTraces(*result), 0xf4597057ff2bc288ULL)
        << "pool=" << pool << " hash=0x" << std::hex << HashTraces(*result);
  }
}

// DDPG through every phase: the warm-start observations give each
// phase's agent its history, and its rewards start with the phase's
// first suggestion.
TEST(IncrementalTest, DdpgSessionMatchesPin) {
  for (const size_t pool : {size_t{1}, size_t{2}, size_t{8}}) {
    const testing::PoolSizeGuard guard(pool);
    DbmsSimulator sim(WorkloadId::kSysbench, HardwareInstance::kB, 27);
    IncrementalOptions options = IncreasingSchedule(16);
    options.optimizer = OptimizerType::kDdpg;
    options.seed = 28;
    Result<SessionResult> result =
        RunIncrementalSession(&sim, GroundTruthRanking(sim), options);
    ASSERT_TRUE(result.ok());
    EXPECT_EQ(HashTraces(*result), 0x0a9f3d57ded3af2cULL)
        << "pool=" << pool << " hash=0x" << std::hex << HashTraces(*result);
  }
}

}  // namespace
}  // namespace dbtune
