#include "benchmk/dataset_io.h"

#include <cstdio>
#include <fstream>

#include <gtest/gtest.h>

#include "benchmk/surrogate_benchmark.h"
#include "dbms/environment.h"
#include "knobs/catalog.h"

namespace dbtune {
namespace {

std::string TempPath(const char* name) {
  return std::string(::testing::TempDir()) + "/" + name;
}

TuningDataset MakeDataset() {
  DbmsSimulator sim(SmallTestCatalog(), WorkloadId::kSysbench,
                    HardwareInstance::kB, 1);
  std::vector<size_t> knobs(sim.space().dimension());
  for (size_t i = 0; i < knobs.size(); ++i) knobs[i] = i;
  CollectionOptions options;
  options.lhs_samples = 80;
  return CollectDataset(&sim, knobs, options).value();
}

TEST(DatasetIoTest, RoundTripPreservesEverything) {
  const TuningDataset original = MakeDataset();
  const std::string path = TempPath("roundtrip.dbtune");
  ASSERT_TRUE(SaveTuningDataset(original, path).ok());

  Result<TuningDataset> loaded = LoadTuningDataset(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();

  EXPECT_EQ(loaded->space.dimension(), original.space.dimension());
  for (size_t i = 0; i < original.space.dimension(); ++i) {
    const Knob& a = original.space.knob(i);
    const Knob& b = loaded->space.knob(i);
    EXPECT_EQ(a.name(), b.name());
    EXPECT_EQ(a.type(), b.type());
    EXPECT_DOUBLE_EQ(a.min(), b.min());
    EXPECT_DOUBLE_EQ(a.max(), b.max());
    EXPECT_DOUBLE_EQ(a.default_value(), b.default_value());
    EXPECT_EQ(a.log_scale(), b.log_scale());
    EXPECT_EQ(a.categories(), b.categories());
  }
  EXPECT_EQ(loaded->objective_kind, original.objective_kind);
  EXPECT_DOUBLE_EQ(loaded->default_objective, original.default_objective);
  EXPECT_EQ(loaded->default_config, original.default_config);
  // The recorded default is the measured one (the buffer pool at its
  // effective default), not the catalog default.
  DbmsSimulator sim(SmallTestCatalog(), WorkloadId::kSysbench,
                    HardwareInstance::kB, 1);
  EXPECT_EQ(original.default_config, TuningEnvironment(&sim).default_config());
  EXPECT_NE(original.default_config, original.space.Default());
  ASSERT_EQ(loaded->unit_x.size(), original.unit_x.size());
  for (size_t r = 0; r < original.unit_x.size(); ++r) {
    EXPECT_DOUBLE_EQ(loaded->objectives[r], original.objectives[r]);
    ASSERT_EQ(loaded->unit_x[r].size(), original.unit_x[r].size());
    for (size_t c = 0; c < original.unit_x[r].size(); ++c) {
      EXPECT_DOUBLE_EQ(loaded->unit_x[r][c], original.unit_x[r][c]);
    }
  }
}

TEST(DatasetIoTest, LoadedDatasetBuildsIdenticalBenchmark) {
  const TuningDataset original = MakeDataset();
  const std::string path = TempPath("benchmark.dbtune");
  ASSERT_TRUE(SaveTuningDataset(original, path).ok());
  Result<TuningDataset> loaded = LoadTuningDataset(path);
  ASSERT_TRUE(loaded.ok());

  auto bench_a = SurrogateBenchmark::Build(original).value();
  auto bench_b = SurrogateBenchmark::Build(*loaded).value();
  Rng rng(3);
  for (int i = 0; i < 20; ++i) {
    const Configuration c = bench_a->space().SampleUniform(rng);
    EXPECT_DOUBLE_EQ(bench_a->Evaluate(c).objective,
                     bench_b->Evaluate(c).objective);
  }
}

TEST(DatasetIoTest, MissingFileIsNotFound) {
  Result<TuningDataset> loaded =
      LoadTuningDataset(TempPath("does-not-exist.dbtune"));
  EXPECT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kNotFound);
}

TEST(DatasetIoTest, RejectsWrongHeader) {
  const std::string path = TempPath("bad-header.dbtune");
  std::ofstream(path) << "not a dataset\n";
  Result<TuningDataset> loaded = LoadTuningDataset(path);
  EXPECT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kInvalidArgument);
}

TEST(DatasetIoTest, RejectsTruncatedFile) {
  const std::string path = TempPath("truncated.dbtune");
  std::ofstream(path) << "dbtune-dataset v2\n"
                      << "meta|throughput|1200\n";
  Result<TuningDataset> loaded = LoadTuningDataset(path);
  EXPECT_FALSE(loaded.ok());
}

TEST(DatasetIoTest, RejectsArityMismatch) {
  const std::string path = TempPath("arity.dbtune");
  std::ofstream(path)
      << "dbtune-dataset v2\n"
      << "meta|throughput|1200\n"
      << "knob|a|continuous|0|1|0.5|0|\n"
      << "knob|b|continuous|0|1|0.5|0|\n"
      << "default|0.5|0.5\n"
      << "sample|100|0.1\n";  // one unit value for two knobs
  Result<TuningDataset> loaded = LoadTuningDataset(path);
  EXPECT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kInvalidArgument);
}

TEST(DatasetIoTest, RejectsBadNumber) {
  const std::string path = TempPath("badnum.dbtune");
  std::ofstream(path) << "dbtune-dataset v2\n"
                      << "meta|throughput|not-a-number\n";
  Result<TuningDataset> loaded = LoadTuningDataset(path);
  EXPECT_FALSE(loaded.ok());
}

TEST(DatasetIoTest, RejectsLegacyV1Header) {
  // Pre-v2 files have no end marker, so a truncated v1 file is
  // indistinguishable from a complete one — refuse them outright.
  const std::string path = TempPath("legacy.dbtune");
  std::ofstream(path) << "dbtune-dataset v1\n"
                      << "meta|throughput|1200\n";
  Result<TuningDataset> loaded = LoadTuningDataset(path);
  EXPECT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kInvalidArgument);
}

// Regression: a v2 file cut off at a line boundary used to load as a
// silently shorter dataset. The end marker makes every prefix invalid.
TEST(DatasetIoTest, RejectsFileCutOffBeforeEndMarker) {
  const TuningDataset original = MakeDataset();
  const std::string path = TempPath("cutoff.dbtune");
  ASSERT_TRUE(SaveTuningDataset(original, path).ok());

  // Drop the trailer and the last sample line — a clean line-boundary
  // cut, exactly what a full disk leaves behind.
  std::ifstream in(path);
  std::vector<std::string> lines;
  for (std::string line; std::getline(in, line);) lines.push_back(line);
  in.close();
  ASSERT_GT(lines.size(), 2u);
  std::ofstream out(path, std::ios::trunc);
  for (size_t i = 0; i + 2 < lines.size(); ++i) out << lines[i] << "\n";
  out.close();

  Result<TuningDataset> loaded = LoadTuningDataset(path);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kInvalidArgument);
}

TEST(DatasetIoTest, RejectsSampleCountMismatch) {
  const std::string path = TempPath("count.dbtune");
  std::ofstream(path) << "dbtune-dataset v2\n"
                      << "meta|throughput|1200\n"
                      << "knob|a|continuous|0|1|0.5|0|\n"
                      << "default|0.5\n"
                      << "sample|100|0.1\n"
                      << "end|3\n";  // declares 3, file has 1
  Result<TuningDataset> loaded = LoadTuningDataset(path);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kInvalidArgument);
}

TEST(DatasetIoTest, RejectsDataAfterEndMarker) {
  const std::string path = TempPath("afterend.dbtune");
  std::ofstream(path) << "dbtune-dataset v2\n"
                      << "meta|throughput|1200\n"
                      << "knob|a|continuous|0|1|0.5|0|\n"
                      << "default|0.5\n"
                      << "sample|100|0.1\n"
                      << "end|1\n"
                      << "sample|200|0.9\n";
  Result<TuningDataset> loaded = LoadTuningDataset(path);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kInvalidArgument);
}

TEST(DatasetIoTest, CategoricalKnobsSurviveRoundTrip) {
  std::vector<Knob> knobs;
  knobs.push_back(Knob::Categorical("mode", {"fsync", "O_DIRECT", "none"}, 1));
  knobs.push_back(Knob::Integer("size", 1, 1024, 64, true));
  TuningDataset dataset;
  dataset.space = ConfigurationSpace(std::move(knobs));
  dataset.default_config = dataset.space.Default();
  dataset.default_objective = 42.0;
  dataset.objective_kind = ObjectiveKind::kLatencyP95;
  dataset.unit_x = {{0.2, 0.7}, {0.9, 0.1}};
  dataset.objectives = {10.0, 20.0};

  const std::string path = TempPath("categorical.dbtune");
  ASSERT_TRUE(SaveTuningDataset(dataset, path).ok());
  Result<TuningDataset> loaded = LoadTuningDataset(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->space.knob(0).categories(),
            (std::vector<std::string>{"fsync", "O_DIRECT", "none"}));
  EXPECT_EQ(loaded->objective_kind, ObjectiveKind::kLatencyP95);
}

}  // namespace
}  // namespace dbtune
