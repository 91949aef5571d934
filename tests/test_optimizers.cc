#include "optimizer/optimizer.h"

#include <cctype>
#include <cmath>
#include <functional>
#include <memory>
#include <string>

#include <gtest/gtest.h>

#include "dbms/environment.h"
#include "knobs/catalog.h"
#include "optimizer/ddpg.h"
#include "optimizer/projected_optimizer.h"
#include "tie_heavy_data.h"
#include "transfer/repository.h"
#include "transfer/rgpe.h"
#include "transfer/workload_mapping.h"
#include "util/random.h"
#include "util/thread_pool.h"

namespace dbtune {
namespace {

// A simple continuous space for optimizer behaviour tests.
ConfigurationSpace MakeContinuousSpace(size_t d) {
  std::vector<Knob> knobs;
  for (size_t i = 0; i < d; ++i) {
    std::string name = "x";
    name += std::to_string(i);  // avoids gcc-12 -Wrestrict false positive
    knobs.push_back(Knob::Continuous(name, 0.0, 1.0, 0.5));
  }
  return ConfigurationSpace(std::move(knobs));
}

// Maximum 0 at (0.7, 0.2, ..., alternating); strictly concave.
double ConcaveObjective(const Configuration& c) {
  double score = 0.0;
  for (size_t i = 0; i < c.size(); ++i) {
    const double target = (i % 2 == 0) ? 0.7 : 0.2;
    score -= (c[i] - target) * (c[i] - target);
  }
  return score;
}

double RunOnObjective(Optimizer* optimizer, size_t iterations,
                      double (*objective)(const Configuration&)) {
  double best = -1e300;
  for (size_t i = 0; i < iterations; ++i) {
    const Configuration c = optimizer->Suggest();
    const double score = objective(c);
    optimizer->Observe(c, score);
    best = std::max(best, score);
  }
  return best;
}

TEST(ExpectedImprovementTest, ZeroWhenFarBelowBest) {
  EXPECT_NEAR(ExpectedImprovement(0.0, 1e-8, 10.0), 0.0, 1e-9);
}

TEST(ExpectedImprovementTest, PositiveAboveBest) {
  EXPECT_GT(ExpectedImprovement(1.0, 0.01, 0.0), 0.9);
}

TEST(ExpectedImprovementTest, UncertaintyAddsValue) {
  const double certain = ExpectedImprovement(0.0, 1e-8, 0.5);
  const double uncertain = ExpectedImprovement(0.0, 4.0, 0.5);
  EXPECT_GT(uncertain, certain);
}

// An empty acquisition pool (acquisition_candidates = 0, which
// CreateOptimizer accepts) used to read the first prediction of an empty
// vector; the shared EI sweep refuses it instead.
TEST(OptimizerDeathTest, EmptyAcquisitionPoolChecks) {
  size_t winner = 0;
  EXPECT_DEATH(SweepExpectedImprovement({}, {}, 0.0, &winner),
               "empty acquisition candidate pool");
  const ConfigurationSpace space = MakeContinuousSpace(2);
  OptimizerOptions options;
  options.initial_design = 2;
  options.acquisition_candidates = 0;
  EXPECT_DEATH(
      {
        std::unique_ptr<Optimizer> optimizer =
            CreateOptimizer(OptimizerType::kVanillaBo, space, options);
        RunOnObjective(optimizer.get(), 3, ConcaveObjective);
      },
      "empty acquisition candidate pool");
}

TEST(OptimizerFactoryTest, CreatesEveryType) {
  const ConfigurationSpace space = MakeContinuousSpace(3);
  for (OptimizerType type : PaperOptimizers()) {
    std::unique_ptr<Optimizer> optimizer = CreateOptimizer(type, space);
    ASSERT_NE(optimizer, nullptr);
    EXPECT_EQ(optimizer->name(), OptimizerTypeName(type));
  }
  EXPECT_EQ(PaperOptimizers().size(), 7u);
}

TEST(OptimizerBaseTest, HistoryBookkeeping) {
  const ConfigurationSpace space = MakeContinuousSpace(2);
  std::unique_ptr<Optimizer> optimizer =
      CreateOptimizer(OptimizerType::kRandomSearch, space);
  EXPECT_EQ(optimizer->num_observations(), 0u);
  optimizer->Observe(Configuration({0.1, 0.1}), 1.0);
  optimizer->Observe(Configuration({0.9, 0.9}), 3.0);
  optimizer->Observe(Configuration({0.5, 0.5}), 2.0);
  EXPECT_EQ(optimizer->num_observations(), 3u);
  EXPECT_DOUBLE_EQ(optimizer->best_score(), 3.0);
  EXPECT_EQ(optimizer->best_config(), Configuration({0.9, 0.9}));
}

TEST(BuildAcquisitionCandidatesTest, PoolSizeAndValidity) {
  const ConfigurationSpace space = MakeContinuousSpace(4);
  Rng rng(1);
  FeatureMatrix history = {{0.5, 0.5, 0.5, 0.5}};
  std::vector<double> scores = {1.0};
  const auto pool =
      BuildAcquisitionCandidates(space, rng, history, scores, 50);
  EXPECT_EQ(pool.size(), 50u);
  for (const auto& u : pool) {
    ASSERT_EQ(u.size(), 4u);
    for (double v : u) {
      EXPECT_GE(v, 0.0);
      EXPECT_LE(v, 1.0);
    }
  }
}

// --- Parameterized sweep: every optimizer must optimize a concave bowl
// clearly better than its starting point and respect the space.
class OptimizerSweepTest : public ::testing::TestWithParam<OptimizerType> {};

TEST_P(OptimizerSweepTest, SuggestionsAreValid) {
  const ConfigurationSpace space = SmallTestCatalog();
  OptimizerOptions options;
  options.seed = 3;
  std::unique_ptr<Optimizer> optimizer =
      CreateOptimizer(GetParam(), space, options);
  Rng rng(4);
  for (int i = 0; i < 25; ++i) {
    const Configuration c = optimizer->Suggest();
    EXPECT_TRUE(space.Validate(c).ok())
        << optimizer->name() << " iteration " << i;
    optimizer->Observe(c, rng.Uniform());
  }
}

TEST_P(OptimizerSweepTest, ImprovesOnConcaveObjective) {
  const ConfigurationSpace space = MakeContinuousSpace(4);
  OptimizerOptions options;
  options.seed = 5;
  std::unique_ptr<Optimizer> optimizer =
      CreateOptimizer(GetParam(), space, options);
  const double best = RunOnObjective(optimizer.get(), 60, ConcaveObjective);
  // Default-centred start scores -4*(0.2^2+0.3^2)/2-ish; optimum is 0.
  EXPECT_GT(best, -0.12) << optimizer->name();
}

TEST_P(OptimizerSweepTest, DeterministicGivenSeed) {
  const ConfigurationSpace space = MakeContinuousSpace(3);
  OptimizerOptions options;
  options.seed = 11;
  std::unique_ptr<Optimizer> a = CreateOptimizer(GetParam(), space, options);
  std::unique_ptr<Optimizer> b = CreateOptimizer(GetParam(), space, options);
  for (int i = 0; i < 15; ++i) {
    const Configuration ca = a->Suggest();
    const Configuration cb = b->Suggest();
    ASSERT_EQ(ca.values(), cb.values()) << OptimizerTypeName(GetParam());
    const double score = ConcaveObjective(ca);
    a->Observe(ca, score);
    b->Observe(cb, score);
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllOptimizers, OptimizerSweepTest,
    ::testing::Values(OptimizerType::kVanillaBo,
                      OptimizerType::kMixedKernelBo, OptimizerType::kSmac,
                      OptimizerType::kTpe, OptimizerType::kTurbo,
                      OptimizerType::kDdpg, OptimizerType::kGa,
                      OptimizerType::kRandomSearch),
    [](const ::testing::TestParamInfo<OptimizerType>& info) {
      std::string name = OptimizerTypeName(info.param);
      for (char& c : name) {
        if (!std::isalnum(static_cast<unsigned char>(c))) c = '_';
      }
      return name;
    });

TEST(ModelBasedOptimizerTest, BeatsRandomSearchOnBowl) {
  // SMAC and the BO variants must out-optimize random search on the same
  // budget (sanity check that modeling helps at all).
  const ConfigurationSpace space = MakeContinuousSpace(6);
  auto run = [&](OptimizerType type, uint64_t seed) {
    OptimizerOptions options;
    options.seed = seed;
    std::unique_ptr<Optimizer> optimizer =
        CreateOptimizer(type, space, options);
    return RunOnObjective(optimizer.get(), 70, ConcaveObjective);
  };
  double random_avg = 0.0, smac_avg = 0.0, bo_avg = 0.0;
  for (uint64_t seed = 1; seed <= 3; ++seed) {
    random_avg += run(OptimizerType::kRandomSearch, seed);
    smac_avg += run(OptimizerType::kSmac, seed);
    bo_avg += run(OptimizerType::kVanillaBo, seed);
  }
  EXPECT_GT(smac_avg, random_avg);
  EXPECT_GT(bo_avg, random_avg);
}

TEST(DdpgTest, WeightExportImportRoundTrip) {
  const ConfigurationSpace space = MakeContinuousSpace(3);
  OptimizerOptions options;
  options.seed = 21;
  DdpgOptimizer a(space, options);
  const DdpgOptimizer::Weights weights = a.ExportWeights();

  OptimizerOptions options_b;
  options_b.seed = 22;
  DdpgOptimizer b(space, options_b);
  ASSERT_TRUE(b.ImportWeights(weights).ok());
  EXPECT_EQ(b.ExportWeights().actor, weights.actor);
  EXPECT_EQ(b.ExportWeights().critic, weights.critic);
}

TEST(DdpgTest, ImportRejectsWrongShape) {
  const ConfigurationSpace s3 = MakeContinuousSpace(3);
  const ConfigurationSpace s5 = MakeContinuousSpace(5);
  DdpgOptimizer a(s3, OptimizerOptions{});
  DdpgOptimizer b(s5, OptimizerOptions{});
  EXPECT_FALSE(b.ImportWeights(a.ExportWeights()).ok());
}

TEST(DdpgTest, UsesMetricsAsState) {
  const ConfigurationSpace space = MakeContinuousSpace(3);
  DdpgOptimizer ddpg(space, OptimizerOptions{});
  ddpg.SetReferenceScore(1.0);
  Rng rng(6);
  std::vector<double> metrics(40);
  for (int i = 0; i < 40; ++i) {
    const Configuration c = ddpg.Suggest();
    for (double& m : metrics) m = rng.Uniform(-1, 1);
    ddpg.ObserveWithMetrics(c, ConcaveObjective(c) + 1.0, metrics);
  }
  EXPECT_EQ(ddpg.num_observations(), 40u);
}

TEST(TpeWeaknessTest, InteractionBlindness) {
  // Saddle objective: score = (2a-1)(2b-1). Marginals are flat; TPE's
  // independent densities cannot see the structure while SMAC's forest
  // can. With matched budgets SMAC should find corner-like solutions at
  // least as good as TPE's on average.
  const ConfigurationSpace space = MakeContinuousSpace(2);
  auto saddle = [](const Configuration& c) {
    return (2.0 * c[0] - 1.0) * (2.0 * c[1] - 1.0);
  };
  auto run = [&](OptimizerType type, uint64_t seed) {
    OptimizerOptions options;
    options.seed = seed;
    std::unique_ptr<Optimizer> optimizer =
        CreateOptimizer(type, space, options);
    double best = -1e300;
    for (int i = 0; i < 50; ++i) {
      const Configuration c = optimizer->Suggest();
      const double s = saddle(c);
      optimizer->Observe(c, s);
      best = std::max(best, s);
    }
    return best;
  };
  double smac_total = 0.0, tpe_total = 0.0;
  for (uint64_t seed = 1; seed <= 4; ++seed) {
    smac_total += run(OptimizerType::kSmac, seed);
    tpe_total += run(OptimizerType::kTpe, seed);
  }
  EXPECT_GE(smac_total, tpe_total - 0.10);
}

// Bitwise pins over every optimizer that scores an acquisition pool:
// each suggestion and every SuggestInfo field of an 18-iteration session
// on the simulator, at pool sizes 1/2/8. Recorded before the acquisition
// step (standardization, pool snapping, the argmax sweep and the
// SuggestInfo writes) moved into the Optimizer base; any reordering of
// that arithmetic, down to one ulp, changes a hash.
using testing::PoolSizeGuard;

// Two source tasks, each measured on a simulator of its own: sharing the
// target's simulator would shift its noise stream.
ObservationRepository MakeGoldenRepository() {
  ObservationRepository repo;
  const WorkloadId workloads[] = {WorkloadId::kSysbench, WorkloadId::kTpcc};
  for (size_t t = 0; t < 2; ++t) {
    DbmsSimulator sim(SmallTestCatalog(), workloads[t],
                      t == 0 ? HardwareInstance::kA : HardwareInstance::kB,
                      /*seed=*/11 + t);
    TuningEnvironment env(&sim);
    Rng rng(19 + t);
    for (int i = 0; i < 24; ++i) env.Evaluate(env.space().SampleUniform(rng));
    repo.AddTask(ObservationRepository::FromHistory(
        t == 0 ? "sysbench-a" : "tpcc-b", env.space(), env.history()));
  }
  return repo;
}

struct OptimizerGolden {
  const char* name;
  std::function<std::unique_ptr<Optimizer>(
      const ConfigurationSpace&, const OptimizerOptions&,
      const ObservationRepository*)>
      make;
  uint64_t hash;
};

struct GoldenSession {
  uint64_t hash = 0;
  /// Suggestions that scored an acquisition pool.
  int acquisitions = 0;
};

GoldenSession RunGoldenSession(const OptimizerGolden& golden,
                               const ObservationRepository* repo) {
  DbmsSimulator sim(SmallTestCatalog(), WorkloadId::kSysbench,
                    HardwareInstance::kB, /*seed=*/3);
  TuningEnvironment env(&sim);
  OptimizerOptions options;
  options.seed = 7;
  options.initial_design = 5;
  options.acquisition_candidates = 120;
  const std::unique_ptr<Optimizer> optimizer =
      golden.make(env.space(), options, repo);
  testing::Fnv1a fnv;
  GoldenSession session;
  for (int i = 0; i < 18; ++i) {
    const Configuration c = optimizer->Suggest();
    for (size_t j = 0; j < c.size(); ++j) fnv.Add(c[j]);
    const SuggestInfo& info = optimizer->last_suggest_info();
    fnv.Add(static_cast<uint64_t>(info.has_prediction));
    fnv.Add(info.predicted_mean);
    fnv.Add(info.predicted_variance);
    fnv.Add(static_cast<uint64_t>(info.has_acquisition));
    fnv.Add(info.acquisition_best);
    fnv.Add(info.acquisition_spread);
    fnv.Add(static_cast<uint64_t>(info.acquisition_pool));
    if (info.has_acquisition) ++session.acquisitions;
    const Observation obs = env.Evaluate(c);
    optimizer->ObserveWithMetrics(obs.config, obs.score,
                                  obs.internal_metrics);
  }
  session.hash = fnv.hash();
  return session;
}

TEST(OptimizerGoldenTest, SuggestionsAndSuggestInfoMatchPins) {
  const auto of_type = [](OptimizerType type) {
    return [type](const ConfigurationSpace& space,
                  const OptimizerOptions& options,
                  const ObservationRepository*) {
      return CreateOptimizer(type, space, options);
    };
  };
  const auto rgpe = [](TransferBase base) {
    return [base](const ConfigurationSpace& space,
                  const OptimizerOptions& options,
                  const ObservationRepository* repo) {
      return std::unique_ptr<Optimizer>(
          std::make_unique<RgpeOptimizer>(space, options, repo, base));
    };
  };
  const auto mapping = [](TransferBase base) {
    return [base](const ConfigurationSpace& space,
                  const OptimizerOptions& options,
                  const ObservationRepository* repo) {
      return std::unique_ptr<Optimizer>(
          std::make_unique<WorkloadMappingOptimizer>(space, options, repo,
                                                     base));
    };
  };
  const OptimizerGolden goldens[] = {
      {"Vanilla BO", of_type(OptimizerType::kVanillaBo), 0x6635f05215084c7eULL},
      {"Mixed-Kernel BO", of_type(OptimizerType::kMixedKernelBo), 0xabe6dff8daf0c374ULL},
      {"SMAC", of_type(OptimizerType::kSmac), 0x6a8795ebb6fa5a8eULL},
      {"TPE", of_type(OptimizerType::kTpe), 0x977e27357b26efbfULL},
      {"TuRBO", of_type(OptimizerType::kTurbo), 0xc3656a30612cb150ULL},
      {"RGPE (SMAC)", rgpe(TransferBase::kSmac), 0x742170186ce5f5daULL},
      {"RGPE (Mixed-Kernel BO)", rgpe(TransferBase::kMixedKernelBo), 0x018d2370730d7836ULL},
      {"Mapping (SMAC)", mapping(TransferBase::kSmac), 0x5ab92c1cb52a9cabULL},
      {"Mapping (Mixed-Kernel BO)", mapping(TransferBase::kMixedKernelBo),
       0x1f852046a696df24ULL},
      {"Projected(SMAC)",
       [](const ConfigurationSpace& space, const OptimizerOptions& options,
          const ObservationRepository*) {
         ProjectionOptions projection;
         projection.dims = 4;
         return std::unique_ptr<Optimizer>(std::make_unique<ProjectedOptimizer>(
             space, options, OptimizerType::kSmac, projection));
       },
       0xad71099c13cc0bd3ULL},
  };
  const ObservationRepository repo = MakeGoldenRepository();
  for (const size_t pool : {size_t{1}, size_t{2}, size_t{8}}) {
    const PoolSizeGuard guard(pool);
    for (const OptimizerGolden& golden : goldens) {
      const GoldenSession session = RunGoldenSession(golden, &repo);
      EXPECT_EQ(session.hash, golden.hash)
          << golden.name << " pool=" << pool << " hash=0x" << std::hex
          << session.hash;
      // The pin covers the acquisition step only if the model ran.
      EXPECT_GE(session.acquisitions, 10) << golden.name;
    }
  }
}

// DDPG trains only once its replay holds 32 transitions, and GA breeds
// only after its population of 30 is scored, so the 18-iteration session
// above cannot cover them: these pins run 64 iterations and hash each
// suggestion (and, for DDPG, the final actor and critic weights).
uint64_t HashLongSession(OptimizerType type) {
  DbmsSimulator sim(SmallTestCatalog(), WorkloadId::kSysbench,
                    HardwareInstance::kB, /*seed=*/3);
  TuningEnvironment env(&sim);
  OptimizerOptions options;
  options.seed = 7;
  options.initial_design = 5;
  const std::unique_ptr<Optimizer> optimizer =
      CreateOptimizer(type, env.space(), options);
  testing::Fnv1a fnv;
  for (int i = 0; i < 64; ++i) {
    const Configuration c = optimizer->Suggest();
    for (size_t j = 0; j < c.size(); ++j) fnv.Add(c[j]);
    const Observation obs = env.Evaluate(c);
    optimizer->ObserveWithMetrics(obs.config, obs.score,
                                  obs.internal_metrics);
  }
  if (const auto* ddpg = dynamic_cast<const DdpgOptimizer*>(optimizer.get())) {
    const DdpgOptimizer::Weights weights = ddpg->ExportWeights();
    for (double w : weights.actor) fnv.Add(w);
    for (double w : weights.critic) fnv.Add(w);
  }
  return fnv.hash();
}

TEST(OptimizerGoldenTest, LongSessionsMatchPins) {
  const struct {
    OptimizerType type;
    uint64_t hash;
  } goldens[] = {
      {OptimizerType::kDdpg, 0x1de163ee7f78fdffULL},
      {OptimizerType::kGa, 0x54ce4e899fbf285cULL},
      {OptimizerType::kRandomSearch, 0xfe098873947c4412ULL},
  };
  for (const size_t pool : {size_t{1}, size_t{2}, size_t{8}}) {
    const PoolSizeGuard guard(pool);
    for (const auto& golden : goldens) {
      const uint64_t hash = HashLongSession(golden.type);
      EXPECT_EQ(hash, golden.hash)
          << OptimizerTypeName(golden.type) << " pool=" << pool
          << " hash=0x" << std::hex << hash;
    }
  }
}

}  // namespace
}  // namespace dbtune
