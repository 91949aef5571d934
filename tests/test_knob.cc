#include "knobs/knob.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>

#include "knobs/catalog.h"

#include <gtest/gtest.h>

namespace dbtune {
namespace {

TEST(KnobTest, ContinuousBasics) {
  Knob k = Knob::Continuous("ratio", 0.0, 100.0, 75.0);
  EXPECT_EQ(k.type(), KnobType::kContinuous);
  EXPECT_FALSE(k.is_categorical());
  EXPECT_DOUBLE_EQ(k.default_value(), 75.0);
  EXPECT_DOUBLE_EQ(k.Encode(50.0), 0.5);
  EXPECT_DOUBLE_EQ(k.Decode(0.25), 25.0);
}

TEST(KnobTest, ContinuousEncodeDecodeRoundTrip) {
  Knob k = Knob::Continuous("x", -5.0, 5.0, 0.0);
  for (double v : {-5.0, -1.25, 0.0, 3.75, 5.0}) {
    EXPECT_NEAR(k.Decode(k.Encode(v)), v, 1e-12);
  }
}

TEST(KnobTest, LogScaleEncodeDecode) {
  Knob k = Knob::Continuous("size", 1.0, 1024.0, 32.0, /*log_scale=*/true);
  EXPECT_NEAR(k.Encode(32.0), 0.5, 1e-12);  // 32 = sqrt(1 * 1024)
  EXPECT_NEAR(k.Decode(0.5), 32.0, 1e-9);
  EXPECT_DOUBLE_EQ(k.Encode(1.0), 0.0);
  EXPECT_DOUBLE_EQ(k.Encode(1024.0), 1.0);
}

// The log-scale maps with the bounds' logs taken afresh on every call:
// the formula the cached log bounds must reproduce bit for bit.
double UncachedLogEncode(const Knob& k, double value) {
  const double v = k.Clip(value);
  return (std::log(v) - std::log(k.min())) /
         (std::log(k.max()) - std::log(k.min()));
}

double UncachedLogDecode(const Knob& k, double unit) {
  const double u = std::clamp(unit, 0.0, 1.0);
  double v = std::exp(std::log(k.min()) +
                      u * (std::log(k.max()) - std::log(k.min())));
  if (k.type() == KnobType::kInteger) v = std::round(v);
  return std::clamp(v, k.min(), k.max());
}

uint64_t Bits(double v) { return std::bit_cast<uint64_t>(v); }

TEST(KnobTest, LogScaleMapsMatchUncachedFormulaBitwise) {
  std::vector<Knob> knobs = {
      Knob::Continuous("log", 0.5, 512.0, 16.0, true),
      Knob::Continuous("tiny", 1e-6, 3e-3, 1e-4, true),
      Knob::Integer("int_log", 1, 1 << 20, 64, true),
      Knob::Integer("int_narrow", 3, 7, 5, true),
  };
  const ConfigurationSpace catalog = MySqlKnobCatalog();
  for (const Knob& k : catalog.knobs()) {
    if (k.log_scale()) knobs.push_back(k);
  }
  ASSERT_GT(knobs.size(), 8u);
  for (const Knob& k : knobs) {
    // Units across [0, 1], plus both clamped sides.
    for (int i = -20; i <= 1020; ++i) {
      const double unit = static_cast<double>(i) / 1000.0 + 1e-7 * (i % 7);
      EXPECT_EQ(Bits(k.Decode(unit)), Bits(UncachedLogDecode(k, unit)))
          << k.name() << " unit=" << unit;
    }
    // Native values geometrically across the domain, from below min to
    // above max (Encode clips first).
    const double ratio = std::pow(4.0 * k.max() / (0.25 * k.min()), 1.0 / 999.0);
    double native = 0.25 * k.min();
    for (int i = 0; i < 1000; ++i, native *= ratio) {
      EXPECT_EQ(Bits(k.Encode(native)), Bits(UncachedLogEncode(k, native)))
          << k.name() << " native=" << native;
    }
    EXPECT_EQ(Bits(k.Encode(k.min())), Bits(0.0)) << k.name();
    EXPECT_EQ(Bits(k.Encode(k.max())), Bits(UncachedLogEncode(k, k.max())))
        << k.name();
  }
}

TEST(KnobTest, IntegerRoundsOnDecode) {
  Knob k = Knob::Integer("count", 0, 10, 5);
  EXPECT_EQ(k.type(), KnobType::kInteger);
  const double v = k.Decode(0.449);
  EXPECT_DOUBLE_EQ(v, std::round(v));
  EXPECT_GE(v, 0.0);
  EXPECT_LE(v, 10.0);
}

TEST(KnobTest, IntegerClipRounds) {
  Knob k = Knob::Integer("count", 0, 10, 5);
  EXPECT_DOUBLE_EQ(k.Clip(3.6), 4.0);
  EXPECT_DOUBLE_EQ(k.Clip(-2.0), 0.0);
  EXPECT_DOUBLE_EQ(k.Clip(99.0), 10.0);
}

TEST(KnobTest, CategoricalEncodeDecodeAllCategories) {
  Knob k = Knob::Categorical("mode", {"a", "b", "c"}, 1);
  EXPECT_TRUE(k.is_categorical());
  EXPECT_EQ(k.num_categories(), 3u);
  EXPECT_DOUBLE_EQ(k.default_value(), 1.0);
  for (size_t c = 0; c < 3; ++c) {
    const double unit = k.Encode(static_cast<double>(c));
    EXPECT_GE(unit, 0.0);
    EXPECT_LE(unit, 1.0);
    EXPECT_DOUBLE_EQ(k.Decode(unit), static_cast<double>(c));
  }
}

TEST(KnobTest, CategoricalDecodeCoversUniformly) {
  Knob k = Knob::Categorical("mode", {"a", "b"}, 0);
  EXPECT_DOUBLE_EQ(k.Decode(0.0), 0.0);
  EXPECT_DOUBLE_EQ(k.Decode(0.49), 0.0);
  EXPECT_DOUBLE_EQ(k.Decode(0.51), 1.0);
  EXPECT_DOUBLE_EQ(k.Decode(1.0), 1.0);
}

TEST(KnobTest, IsValid) {
  Knob k = Knob::Integer("count", 1, 8, 4);
  EXPECT_TRUE(k.IsValid(1));
  EXPECT_TRUE(k.IsValid(8));
  EXPECT_FALSE(k.IsValid(0));
  EXPECT_FALSE(k.IsValid(9));
  EXPECT_FALSE(k.IsValid(std::nan("")));
}

TEST(KnobTest, DecodeClampsOutOfRangeUnit) {
  Knob k = Knob::Continuous("x", 0.0, 1.0, 0.5);
  EXPECT_DOUBLE_EQ(k.Decode(-0.5), 0.0);
  EXPECT_DOUBLE_EQ(k.Decode(1.5), 1.0);
}

TEST(KnobTest, TypeNames) {
  EXPECT_STREQ(KnobTypeName(KnobType::kContinuous), "continuous");
  EXPECT_STREQ(KnobTypeName(KnobType::kInteger), "integer");
  EXPECT_STREQ(KnobTypeName(KnobType::kCategorical), "categorical");
}

// Property sweep: encode/decode round trip over knob variants.
class KnobRoundTripTest : public ::testing::TestWithParam<Knob> {};

TEST_P(KnobRoundTripTest, DecodeEncodeIsIdempotent) {
  const Knob& k = GetParam();
  for (int i = 0; i <= 20; ++i) {
    const double unit = static_cast<double>(i) / 20.0;
    const double native = k.Decode(unit);
    EXPECT_TRUE(k.IsValid(native)) << k.name() << " unit=" << unit;
    // Decoding the re-encoded value must be a fixed point.
    EXPECT_NEAR(k.Decode(k.Encode(native)), native, 1e-9) << k.name();
  }
}

INSTANTIATE_TEST_SUITE_P(
    Variants, KnobRoundTripTest,
    ::testing::Values(
        Knob::Continuous("lin", 0.0, 10.0, 5.0),
        Knob::Continuous("neg", -3.0, 3.0, 0.0),
        Knob::Continuous("log", 0.5, 512.0, 16.0, true),
        Knob::Integer("int", 0, 100, 50),
        Knob::Integer("int_log", 1, 1 << 20, 64, true),
        Knob::Categorical("cat2", {"off", "on"}, 0),
        Knob::Categorical("cat5", {"a", "b", "c", "d", "e"}, 2)),
    [](const ::testing::TestParamInfo<Knob>& info) {
      return info.param.name();
    });

}  // namespace
}  // namespace dbtune
