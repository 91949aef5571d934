#include "knobs/catalog.h"

#include <algorithm>
#include <set>
#include <vector>

#include <gtest/gtest.h>

namespace dbtune {
namespace {

TEST(CatalogTest, HasExactly197Knobs) {
  const ConfigurationSpace space = MySqlKnobCatalog();
  EXPECT_EQ(space.dimension(), kMySqlKnobCount);
  EXPECT_EQ(space.dimension(), 197u);
}

TEST(CatalogTest, NamesAreUniqueAndNonEmpty) {
  const ConfigurationSpace space = MySqlKnobCatalog();
  std::set<std::string> names;
  for (const Knob& k : space.knobs()) {
    EXPECT_FALSE(k.name().empty());
    EXPECT_TRUE(names.insert(k.name()).second) << "duplicate " << k.name();
  }
}

TEST(CatalogTest, ContainsPaperHighlightedKnobs) {
  const ConfigurationSpace space = MySqlKnobCatalog();
  // Knobs the paper names explicitly.
  EXPECT_TRUE(space.KnobIndex("innodb_buffer_pool_size").ok());
  EXPECT_TRUE(space.KnobIndex("tmp_table_size").ok());
  EXPECT_TRUE(space.KnobIndex("innodb_thread_concurrency").ok());
  EXPECT_TRUE(space.KnobIndex("innodb_stats_method").ok());
  EXPECT_TRUE(space.KnobIndex("innodb_flush_neighbors").ok());
}

TEST(CatalogTest, HeterogeneousTypeMix) {
  const ConfigurationSpace space = MySqlKnobCatalog();
  const std::vector<bool> mask = space.CategoricalMask();
  ASSERT_EQ(mask.size(), space.dimension());
  const size_t categorical = std::count(mask.begin(), mask.end(), true);
  const size_t numeric = mask.size() - categorical;
  // Enough categorical knobs for the heterogeneity experiments.
  EXPECT_GE(categorical, 30u);
  EXPECT_GE(numeric, 100u);
}

TEST(CatalogTest, DefaultsAreValid) {
  const ConfigurationSpace space = MySqlKnobCatalog();
  EXPECT_TRUE(space.Validate(space.Default()).ok());
}

TEST(CatalogTest, PaperKnobTypesMatch) {
  const ConfigurationSpace space = MySqlKnobCatalog();
  // The paper's examples: buffer pool / tmp_table_size continuous-ish
  // (numeric), stats_method / flush_neighbors categorical.
  EXPECT_FALSE(
      space.knob(*space.KnobIndex("innodb_buffer_pool_size")).is_categorical());
  EXPECT_FALSE(space.knob(*space.KnobIndex("tmp_table_size")).is_categorical());
  EXPECT_TRUE(
      space.knob(*space.KnobIndex("innodb_stats_method")).is_categorical());
  EXPECT_TRUE(
      space.knob(*space.KnobIndex("innodb_flush_neighbors")).is_categorical());
}

TEST(CatalogTest, SmallTestCatalogSane) {
  const ConfigurationSpace space = SmallTestCatalog();
  EXPECT_EQ(space.dimension(), 12u);
  EXPECT_TRUE(space.Validate(space.Default()).ok());
  const std::vector<bool> mask = space.CategoricalMask();
  EXPECT_GE(std::count(mask.begin(), mask.end(), true), 2);
}

TEST(CatalogTest, BufferPoolIsLogScaled) {
  const ConfigurationSpace space = MySqlKnobCatalog();
  const Knob& bp = space.knob(*space.KnobIndex("innodb_buffer_pool_size"));
  EXPECT_TRUE(bp.log_scale());
  EXPECT_GT(bp.max() / bp.min(), 1000.0);  // spans orders of magnitude
}

}  // namespace
}  // namespace dbtune
