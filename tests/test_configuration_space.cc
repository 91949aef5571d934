#include "knobs/configuration_space.h"

#include <gtest/gtest.h>

#include "knobs/catalog.h"

namespace dbtune {
namespace {

ConfigurationSpace MakeSpace() {
  std::vector<Knob> knobs;
  knobs.push_back(Knob::Continuous("c", 0.0, 10.0, 2.0));
  knobs.push_back(Knob::Integer("i", 1, 100, 10));
  knobs.push_back(Knob::Categorical("k", {"x", "y", "z"}, 0));
  return ConfigurationSpace(std::move(knobs));
}

TEST(ConfigurationSpaceTest, DimensionAndLookup) {
  const ConfigurationSpace space = MakeSpace();
  EXPECT_EQ(space.dimension(), 3u);
  Result<size_t> idx = space.KnobIndex("i");
  ASSERT_TRUE(idx.ok());
  EXPECT_EQ(*idx, 1u);
  EXPECT_FALSE(space.KnobIndex("nope").ok());
}

TEST(ConfigurationSpaceTest, KnobIndexFindsEveryKnobInLargeCatalog) {
  // KnobIndex is map-backed; every knob of the full catalog must resolve
  // to its own position, and lookups must survive copies of the space.
  const ConfigurationSpace space = MySqlKnobCatalog();
  for (size_t i = 0; i < space.dimension(); ++i) {
    Result<size_t> idx = space.KnobIndex(space.knob(i).name());
    ASSERT_TRUE(idx.ok()) << space.knob(i).name();
    EXPECT_EQ(*idx, i);
  }
  const ConfigurationSpace copy = space;
  Result<size_t> idx = copy.KnobIndex(space.knob(0).name());
  ASSERT_TRUE(idx.ok());
  EXPECT_EQ(*idx, 0u);
  EXPECT_EQ(copy.KnobIndex("definitely_not_a_knob").status().code(),
            StatusCode::kNotFound);
}

TEST(ConfigurationSpaceTest, SnapUnitMatchesFromUnitToUnitRoundTrip) {
  const ConfigurationSpace space = MakeSpace();
  Rng rng(11);
  for (int i = 0; i < 50; ++i) {
    std::vector<double> u(space.dimension());
    for (double& v : u) v = rng.Uniform();
    const std::vector<double> snapped = space.SnapUnit(u);
    const std::vector<double> round_trip = space.ToUnit(space.FromUnit(u));
    EXPECT_EQ(snapped, round_trip);  // bitwise, not approximate
  }
}

TEST(ConfigurationSpaceTest, DefaultConfiguration) {
  const ConfigurationSpace space = MakeSpace();
  const Configuration def = space.Default();
  EXPECT_DOUBLE_EQ(def[0], 2.0);
  EXPECT_DOUBLE_EQ(def[1], 10.0);
  EXPECT_DOUBLE_EQ(def[2], 0.0);
  EXPECT_TRUE(space.Validate(def).ok());
}

TEST(ConfigurationSpaceTest, SampleUniformIsValid) {
  const ConfigurationSpace space = MakeSpace();
  Rng rng(5);
  for (int i = 0; i < 100; ++i) {
    const Configuration c = space.SampleUniform(rng);
    EXPECT_TRUE(space.Validate(c).ok());
  }
}

TEST(ConfigurationSpaceTest, UnitRoundTrip) {
  const ConfigurationSpace space = MakeSpace();
  Rng rng(7);
  for (int i = 0; i < 50; ++i) {
    const Configuration c = space.SampleUniform(rng);
    const Configuration back = space.FromUnit(space.ToUnit(c));
    for (size_t j = 0; j < c.size(); ++j) {
      EXPECT_NEAR(back[j], c[j], 1e-9);
    }
  }
}

TEST(ConfigurationSpaceTest, ValidateRejectsBadArity) {
  const ConfigurationSpace space = MakeSpace();
  EXPECT_EQ(space.Validate(Configuration({1.0})).code(),
            StatusCode::kInvalidArgument);
}

TEST(ConfigurationSpaceTest, ValidateRejectsOutOfDomain) {
  const ConfigurationSpace space = MakeSpace();
  Configuration c = space.Default();
  c[0] = 11.0;
  EXPECT_EQ(space.Validate(c).code(), StatusCode::kOutOfRange);
}

TEST(ConfigurationSpaceTest, ClipBringsIntoDomain) {
  const ConfigurationSpace space = MakeSpace();
  Configuration c({-5.0, 1000.0, 9.0});
  const Configuration clipped = space.Clip(c);
  EXPECT_TRUE(space.Validate(clipped).ok());
  EXPECT_DOUBLE_EQ(clipped[0], 0.0);
  EXPECT_DOUBLE_EQ(clipped[1], 100.0);
  EXPECT_DOUBLE_EQ(clipped[2], 2.0);
}

TEST(ConfigurationSpaceTest, CategoricalMask) {
  const ConfigurationSpace space = MakeSpace();
  EXPECT_EQ(space.CategoricalMask(), (std::vector<bool>{false, false, true}));
}

TEST(ConfigurationSpaceTest, ProjectPreservesKnobs) {
  const ConfigurationSpace space = MakeSpace();
  const ConfigurationSpace sub = space.Project({2, 0});
  EXPECT_EQ(sub.dimension(), 2u);
  EXPECT_EQ(sub.knob(0).name(), "k");
  EXPECT_EQ(sub.knob(1).name(), "c");
}

TEST(ConfigurationTest, EqualityAndDebugString) {
  Configuration a({1.0, 2.0});
  Configuration b({1.0, 2.0});
  Configuration c({1.0, 3.0});
  EXPECT_TRUE(a == b);
  EXPECT_FALSE(a == c);
  EXPECT_EQ(a.DebugString(), "[1, 2]");
}

}  // namespace
}  // namespace dbtune
