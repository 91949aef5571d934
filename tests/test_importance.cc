#include "importance/importance.h"

#include <cmath>

#include <gtest/gtest.h>

#include "importance/ablation.h"
#include "importance/fanova.h"
#include "importance/gini.h"
#include "importance/lasso.h"
#include "importance/shap.h"
#include "sampling/latin_hypercube.h"
#include "tie_heavy_data.h"
#include "util/random.h"
#include "util/stats.h"

namespace dbtune {
namespace {

// A synthetic 8-knob space with known ground truth:
//   knob 0: improvable (gain up to +2 away from default 0.0)
//   knob 1: risky (default 0.5 optimal; changing only hurts, up to -2)
//   knob 2: improvable, weaker (+0.8)
//   knobs 3..7: noise.
ConfigurationSpace MakeSyntheticSpace() {
  std::vector<Knob> knobs;
  knobs.push_back(Knob::Continuous("improvable_strong", 0.0, 1.0, 0.0));
  knobs.push_back(Knob::Continuous("risky", 0.0, 1.0, 0.5));
  knobs.push_back(Knob::Continuous("improvable_weak", 0.0, 1.0, 0.0));
  for (int i = 3; i < 8; ++i) {
    std::string name = "noise_";
    name += std::to_string(i);  // avoids gcc-12 -Wrestrict false positive
    knobs.push_back(Knob::Continuous(name, 0.0, 1.0, 0.5));
  }
  return ConfigurationSpace(std::move(knobs));
}

double SyntheticScore(const Configuration& c) {
  double score = 0.0;
  score += 2.0 * c[0];                              // improvable, linear
  score += -8.0 * (c[1] - 0.5) * (c[1] - 0.5);      // risky quadratic
  score += 0.8 * c[2];                              // improvable, weak
  return score;
}

ImportanceInput MakeSyntheticInput(size_t n, uint64_t seed) {
  static const ConfigurationSpace* space =
      new ConfigurationSpace(MakeSyntheticSpace());
  ImportanceInput input;
  input.space = space;
  Rng rng(seed);
  for (const Configuration& c : LatinHypercubeSample(*space, n, rng)) {
    input.unit_x.push_back(space->ToUnit(c));
    input.scores.push_back(SyntheticScore(c) + rng.Gaussian(0.0, 0.01));
  }
  input.default_unit = space->ToUnit(space->Default());
  input.default_score = SyntheticScore(space->Default());
  return input;
}

TEST(ImportanceTest, TopKnobsOrdersByScore) {
  const std::vector<double> importance = {0.1, 5.0, 3.0, 0.0};
  EXPECT_EQ(TopKnobs(importance, 2), (std::vector<size_t>{1, 2}));
  EXPECT_EQ(TopKnobs(importance, 10).size(), 4u);
}

TEST(ImportanceTest, MakeInputValidates) {
  const ConfigurationSpace space = MakeSyntheticSpace();
  EXPECT_FALSE(MakeImportanceInput(space, {}, {}, space.Default(), 0.0).ok());
  std::vector<Configuration> configs = {space.Default()};
  EXPECT_FALSE(
      MakeImportanceInput(space, configs, {1.0, 2.0}, space.Default(), 0.0)
          .ok());
  Result<ImportanceInput> ok =
      MakeImportanceInput(space, configs, {1.0}, space.Default(), 1.0);
  ASSERT_TRUE(ok.ok());
  EXPECT_EQ(ok->unit_x.size(), 1u);
}

TEST(ImportanceTest, MeasurementNames) {
  for (MeasurementType type : AllMeasurements()) {
    std::unique_ptr<ImportanceMeasure> measure =
        CreateImportanceMeasure(type);
    EXPECT_EQ(measure->name(), MeasurementTypeName(type));
  }
  EXPECT_EQ(AllMeasurements().size(), 5u);
}

class MeasurementSweepTest
    : public ::testing::TestWithParam<MeasurementType> {};

TEST_P(MeasurementSweepTest, ReturnsFullNonNegativeVector) {
  const ImportanceInput input = MakeSyntheticInput(300, 1);
  std::unique_ptr<ImportanceMeasure> measure =
      CreateImportanceMeasure(GetParam(), 13);
  Result<std::vector<double>> importance = measure->Rank(input);
  ASSERT_TRUE(importance.ok());
  ASSERT_EQ(importance->size(), 8u);
  for (double v : *importance) {
    EXPECT_GE(v, 0.0);
    EXPECT_TRUE(std::isfinite(v));
  }
}

TEST_P(MeasurementSweepTest, SignalBeatsNoise) {
  const ImportanceInput input = MakeSyntheticInput(500, 2);
  std::unique_ptr<ImportanceMeasure> measure =
      CreateImportanceMeasure(GetParam(), 17);
  Result<std::vector<double>> importance = measure->Rank(input);
  ASSERT_TRUE(importance.ok());
  // The strong improvable knob must beat every pure-noise knob for every
  // measurement.
  for (size_t j = 3; j < 8; ++j) {
    EXPECT_GT((*importance)[0], (*importance)[j])
        << MeasurementTypeName(GetParam()) << " vs noise knob " << j;
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllMeasurements, MeasurementSweepTest,
    ::testing::ValuesIn(AllMeasurements()),
    [](const ::testing::TestParamInfo<MeasurementType>& info) {
      return MeasurementTypeName(info.param);
    });

TEST(ImportanceTest, VarianceMeasuresRankRiskyHigh) {
  // Gini / fANOVA see variance, so the risky knob (large swings) ranks
  // above the weak improvable one.
  const ImportanceInput input = MakeSyntheticInput(600, 3);
  for (MeasurementType type :
       {MeasurementType::kGini, MeasurementType::kFanova}) {
    std::unique_ptr<ImportanceMeasure> measure =
        CreateImportanceMeasure(type, 19);
    Result<std::vector<double>> importance = measure->Rank(input);
    ASSERT_TRUE(importance.ok());
    EXPECT_GT((*importance)[1], (*importance)[2])
        << MeasurementTypeName(type);
  }
}

TEST(ImportanceTest, ShapRanksTunabilityNotVariance) {
  // SHAP credits only positive (gain) contributions: the risky knob's
  // tunability is ~zero, so both improvable knobs must out-rank it.
  const ImportanceInput input = MakeSyntheticInput(600, 4);
  ShapImportance shap(23);
  Result<std::vector<double>> importance = shap.Rank(input);
  ASSERT_TRUE(importance.ok());
  EXPECT_GT((*importance)[0], (*importance)[1]);
  EXPECT_GT((*importance)[2], (*importance)[1]);
}

TEST(ImportanceTest, LassoReportsFitQuality) {
  const ImportanceInput input = MakeSyntheticInput(400, 5);
  LassoImportance lasso;
  ASSERT_TRUE(lasso.Rank(input).ok());
  // Linear+quadratic features describe this synthetic surface well.
  EXPECT_GT(lasso.last_fit_r_squared(), 0.8);
}

TEST(ImportanceTest, GiniStableAcrossSubsamples) {
  // Figure 4's stability property: top-3 sets from disjoint halves agree.
  const ImportanceInput full = MakeSyntheticInput(800, 6);
  ImportanceInput half_a, half_b;
  half_a.space = half_b.space = full.space;
  half_a.default_unit = half_b.default_unit = full.default_unit;
  half_a.default_score = half_b.default_score = full.default_score;
  for (size_t i = 0; i < full.unit_x.size(); ++i) {
    ImportanceInput& target = (i % 2 == 0) ? half_a : half_b;
    target.unit_x.push_back(full.unit_x[i]);
    target.scores.push_back(full.scores[i]);
  }
  GiniImportance gini(29);
  Result<std::vector<double>> ia = gini.Rank(half_a);
  Result<std::vector<double>> ib = gini.Rank(half_b);
  ASSERT_TRUE(ia.ok() && ib.ok());
  const double iou =
      IntersectionOverUnion(TopKnobs(*ia, 3), TopKnobs(*ib, 3));
  EXPECT_GE(iou, 0.5);
}

TEST(ImportanceTest, AblationZeroOnFlatSurface) {
  // When every sample scores identically (e.g. all failed configurations
  // substituted with the worst-seen value), ablation paths credit no
  // improvement to any knob.
  const ConfigurationSpace space = MakeSyntheticSpace();
  ImportanceInput input;
  input.space = &space;
  Rng rng(7);
  for (int i = 0; i < 150; ++i) {
    const Configuration c = space.SampleUniform(rng);
    input.unit_x.push_back(space.ToUnit(c));
    input.scores.push_back(-5.0);
  }
  input.default_unit = space.ToUnit(space.Default());
  input.default_score = 0.0;
  AblationImportance ablation;
  Result<std::vector<double>> importance = ablation.Rank(input);
  ASSERT_TRUE(importance.ok());
  for (double v : *importance) EXPECT_NEAR(v, 0.0, 1e-9);
}

TEST(ImportanceTest, AblationCreditsGainKnobsOverRisky) {
  // Ablation walks toward better-than-default targets; gains concentrate
  // on the knobs whose change helps (0, 2), not the risky knob (1).
  const ImportanceInput input = MakeSyntheticInput(500, 8);
  AblationImportance ablation(31);
  Result<std::vector<double>> importance = ablation.Rank(input);
  ASSERT_TRUE(importance.ok());
  EXPECT_GT((*importance)[0], (*importance)[1]);
}

// Bitwise pins of the Lasso, Gini, Ablation and SHAP rankings on fixed
// input at pool sizes 1/2/8 (fANOVA is pinned with the forests in
// test_random_forest).
TEST(ImportanceGoldenTest, RankingsMatchPins) {
  const struct {
    MeasurementType type;
    uint64_t hash;
  } goldens[] = {
      {MeasurementType::kLasso, 0xf1b6e2afae3b140fULL},
      {MeasurementType::kGini, 0x14d53e0bb07ad89eULL},
      {MeasurementType::kAblation, 0xf94e237322c6633dULL},
      {MeasurementType::kShap, 0x9c0daccefab2414fULL},
  };
  const ImportanceInput input = MakeSyntheticInput(160, 41);
  for (const size_t pool : {size_t{1}, size_t{2}, size_t{8}}) {
    const testing::PoolSizeGuard guard(pool);
    for (const auto& golden : goldens) {
      Result<std::vector<double>> importance =
          CreateImportanceMeasure(golden.type, 43)->Rank(input);
      ASSERT_TRUE(importance.ok());
      testing::Fnv1a fnv;
      for (double v : *importance) fnv.Add(v);
      EXPECT_EQ(fnv.hash(), golden.hash)
          << MeasurementTypeName(golden.type) << " pool=" << pool
          << " hash=0x" << std::hex << fnv.hash();
    }
  }
}

// Bitwise pins of each measure's held-out (Lasso: in-sample) fit R², the
// r² column of Figure 4, on the ranking pins' input.
TEST(ImportanceGoldenTest, FitRSquaredMatchesPins) {
  const ImportanceInput input = MakeSyntheticInput(160, 41);
  LassoImportance lasso(43);
  GiniImportance gini(43);
  FanovaImportance fanova(43);
  AblationImportance ablation(43);
  ShapImportance shap(43);
  ASSERT_TRUE(lasso.Rank(input).ok());
  ASSERT_TRUE(gini.Rank(input).ok());
  ASSERT_TRUE(fanova.Rank(input).ok());
  ASSERT_TRUE(ablation.Rank(input).ok());
  ASSERT_TRUE(shap.Rank(input).ok());
  EXPECT_EQ(lasso.last_fit_r_squared(), 0x1.fb959ab791ddfp-1);
  EXPECT_EQ(gini.last_fit_r_squared(), 0x1.c1908a722121fp-1);
  EXPECT_EQ(fanova.last_fit_r_squared(), 0x1.c9a46368ae5eap-1);
  EXPECT_EQ(ablation.last_fit_r_squared(), 0x1.c1908a722121fp-1);
  EXPECT_EQ(shap.last_fit_r_squared(), 0x1.c1908a722121fp-1);
}

}  // namespace
}  // namespace dbtune
