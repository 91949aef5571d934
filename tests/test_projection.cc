// The HeSBO-style low-dimensional projection: deterministic embedding,
// exact round-tripping through SnapUnit, biased special-value decoding,
// and the ProjectedOptimizer / SessionControls wiring end to end.

#include <cmath>
#include <set>
#include <vector>

#include <gtest/gtest.h>

#include "core/tuning_session.h"
#include "dbms/simulator.h"
#include "knobs/catalog.h"
#include "knobs/projected_space.h"
#include "optimizer/projected_optimizer.h"
#include "util/random.h"

namespace dbtune {
namespace {

std::vector<double> RandomPoint(size_t dims, Rng& rng) {
  std::vector<double> z(dims);
  for (double& v : z) v = rng.Uniform();
  return z;
}

TEST(ProjectedSpaceTest, BoxIsAUnitHypercube) {
  const ConfigurationSpace space = SmallTestCatalog();
  ProjectionOptions options;
  options.dims = 4;
  const ProjectedConfigurationSpace projection(&space, options);
  EXPECT_EQ(projection.dims(), 4u);
  ASSERT_EQ(projection.box().dimension(), 4u);
  for (size_t j = 0; j < 4; ++j) {
    const Knob& z = projection.box().knob(j);
    EXPECT_EQ(z.min(), 0.0);
    EXPECT_EQ(z.max(), 1.0);
  }
}

TEST(ProjectedSpaceTest, EmbeddingIsSeedDeterministic) {
  const ConfigurationSpace space = MySqlKnobCatalog();
  ProjectionOptions options;
  options.dims = 16;
  options.seed = 5;
  const ProjectedConfigurationSpace a(&space, options);
  const ProjectedConfigurationSpace b(&space, options);
  bool differs_from_other_seed = false;
  options.seed = 6;
  const ProjectedConfigurationSpace c(&space, options);
  for (size_t i = 0; i < space.dimension(); ++i) {
    EXPECT_EQ(a.target_dim(i), b.target_dim(i));
    EXPECT_EQ(a.sign(i), b.sign(i));
    EXPECT_LT(a.target_dim(i), 16u);
    if (a.target_dim(i) != c.target_dim(i) || a.sign(i) != c.sign(i)) {
      differs_from_other_seed = true;
    }
  }
  EXPECT_TRUE(differs_from_other_seed);
  // Every target dimension should receive some knobs at 212 → 16.
  std::set<size_t> used;
  for (size_t i = 0; i < space.dimension(); ++i) used.insert(a.target_dim(i));
  EXPECT_EQ(used.size(), 16u);
}

// The contract that lets optimizers treat decoded points as members of
// the full space: decoding always lands on a snapped representative, so
// re-snapping is a no-op (bitwise).
TEST(ProjectedSpaceTest, DecodeRoundTripsThroughSnapUnitExactly) {
  const ConfigurationSpace full = MySqlKnobCatalog();
  const ConfigurationSpace small = SmallTestCatalog();
  for (const ConfigurationSpace* space : {&full, &small}) {
    ProjectionOptions options;
    options.dims = 8;
    const ProjectedConfigurationSpace projection(space, options);
    Rng rng(17);
    for (int trial = 0; trial < 50; ++trial) {
      const std::vector<double> z = RandomPoint(8, rng);
      const std::vector<double> unit = projection.DecodeUnit(z);
      ASSERT_EQ(unit.size(), space->dimension());
      const std::vector<double> snapped = space->SnapUnit(unit);
      for (size_t i = 0; i < unit.size(); ++i) {
        EXPECT_EQ(unit[i], snapped[i])
            << "knob " << space->knob(i).name() << " trial " << trial;
      }
    }
  }
}

TEST(ProjectedSpaceTest, DecodeClampsOutOfRangeInputs) {
  const ConfigurationSpace space = SmallTestCatalog();
  ProjectionOptions options;
  options.dims = 3;
  const ProjectedConfigurationSpace projection(&space, options);
  const std::vector<double> wild = {-4.0, 2.5, 1.0};
  const Configuration config = projection.Decode(wild);
  ASSERT_EQ(config.size(), space.dimension());
  for (size_t i = 0; i < space.dimension(); ++i) {
    EXPECT_GE(config[i], space.knob(i).min());
    EXPECT_LE(config[i], space.knob(i).max());
  }
}

// With the maximum special bias, a coordinate whose (sign-adjusted)
// value falls below the bias threshold decodes to the knob's default.
TEST(ProjectedSpaceTest, SpecialBiasReservesMassForDefaults) {
  const ConfigurationSpace space = MySqlKnobCatalog();
  ProjectionOptions options;
  options.dims = 8;
  options.special_value_bias = 2.0;  // clamped to the 0.95 ceiling
  const ProjectedConfigurationSpace projection(&space, options);
  EXPECT_EQ(projection.options().special_value_bias, 0.95);

  const Configuration defaults = space.Default();
  const std::vector<double> z(8, 0.0);  // t = 0 for positive-sign knobs
  const Configuration decoded = projection.Decode(z);
  for (size_t i = 0; i < space.dimension(); ++i) {
    if (projection.sign(i) > 0) {
      EXPECT_EQ(decoded[i], defaults[i]) << space.knob(i).name();
    }
  }
}

TEST(ProjectedSpaceTest, ZeroBiasUsesFullRange) {
  const ConfigurationSpace space = SmallTestCatalog();
  ProjectionOptions options;
  options.dims = space.dimension();  // likely injective enough to move
  options.special_value_bias = 0.0;
  const ProjectedConfigurationSpace projection(&space, options);
  Rng rng(23);
  const Configuration defaults = space.Default();
  bool moved = false;
  for (int trial = 0; trial < 20 && !moved; ++trial) {
    const Configuration decoded =
        projection.Decode(RandomPoint(projection.dims(), rng));
    for (size_t i = 0; i < space.dimension(); ++i) {
      if (decoded[i] != defaults[i]) moved = true;
    }
  }
  EXPECT_TRUE(moved);
}

TEST(ProjectedOptimizerTest, SuggestsValidFullSpaceConfigurations) {
  const ConfigurationSpace space = MySqlKnobCatalog();
  OptimizerOptions options;
  options.seed = 3;
  options.initial_design = 5;
  ProjectionOptions projection;
  projection.dims = 8;
  ProjectedOptimizer optimizer(space, options, OptimizerType::kVanillaBo,
                               projection);
  EXPECT_EQ(optimizer.space().dimension(), space.dimension());
  for (int i = 0; i < 12; ++i) {
    const Configuration config = optimizer.Suggest();
    ASSERT_EQ(config.size(), space.dimension());
    for (size_t k = 0; k < space.dimension(); ++k) {
      EXPECT_GE(config[k], space.knob(k).min());
      EXPECT_LE(config[k], space.knob(k).max());
    }
    optimizer.Observe(config, -static_cast<double>(i));
  }
  EXPECT_EQ(optimizer.num_observations(), 12u);
  EXPECT_EQ(optimizer.inner().num_observations(), 12u);
  EXPECT_NE(optimizer.name().find("Projected"), std::string::npos);
}

TEST(ProjectedOptimizerTest, SessionControlsEnableProjection) {
  DbmsSimulator sim(WorkloadId::kSysbench, HardwareInstance::kB, 11);
  std::vector<size_t> knob_indices;
  for (size_t i = 0; i < 20; ++i) knob_indices.push_back(i);
  SessionControls controls;
  controls.projection = ProjectionOptions{.dims = 6, .seed = 4};
  const SessionResult result = RunTuningSession(
      &sim, knob_indices, OptimizerType::kVanillaBo, 18, 11, controls);
  ASSERT_EQ(result.improvement_trace.size(), 18u);
  EXPECT_TRUE(std::isfinite(result.final_improvement));
  EXPECT_GE(result.best_iteration, 1u);
}

}  // namespace
}  // namespace dbtune
