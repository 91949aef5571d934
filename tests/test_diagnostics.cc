// Tuner-quality diagnostics and telemetry export: regret/stall
// accounting, one-step-ahead calibration (hand-computed and on a
// well-specified GP task), per-session labeled metrics, the Prometheus
// renderer (escaping, labels, atomic snapshots, cadence), the session
// JSONL diag fields, and the markdown report generator.

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/tuning_session.h"
#include "dbtune_report_lib.h"
#include "knobs/catalog.h"
#include "obs/clock.h"
#include "obs/diagnostics.h"
#include "obs/metrics.h"
#include "obs/metrics_export.h"
#include "obs/session_log.h"
#include "obs/trace.h"
#include "pool_size_guard.h"
#include "surrogate/gaussian_process.h"
#include "util/matrix.h"
#include "util/random.h"
#include "util/thread_pool.h"

namespace dbtune {
namespace {

using testing::PoolSizeGuard;

// Every test starts and ends with observability fully off and empty.
class DiagnosticsTest : public ::testing::Test {
 protected:
  void SetUp() override { ResetObsState(); }
  void TearDown() override { ResetObsState(); }

  static void ResetObsState() {
    obs::SetMetricsEnabled(false);
    obs::SetTraceEnabled(false);
    obs::DisableFakeClockForTest();
    obs::ClearTrace();
    obs::MetricsRegistry::Get().Reset();
  }
};

std::string ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

bool FileExists(const std::string& path) {
  return std::ifstream(path).good();
}

TEST_F(DiagnosticsTest, RegretAndStallAccounting) {
  obs::TuningDiagnostics diag;

  // First observation defines the incumbent: zero regret, zero stall.
  obs::IterationDiagnostics d = diag.Record({}, 1.0);
  EXPECT_EQ(d.iteration, 1u);
  EXPECT_DOUBLE_EQ(d.simple_regret, 0.0);
  EXPECT_DOUBLE_EQ(d.cumulative_regret, 0.0);
  EXPECT_EQ(d.iterations_since_improvement, 0u);
  EXPECT_DOUBLE_EQ(d.improvement_ewma, 0.0);

  // Improvement by 2: regret stays zero, EWMA picks up alpha (0.2) * 2.
  d = diag.Record({}, 3.0);
  EXPECT_DOUBLE_EQ(d.simple_regret, 0.0);
  EXPECT_DOUBLE_EQ(d.cumulative_regret, 0.0);
  EXPECT_EQ(d.iterations_since_improvement, 0u);
  EXPECT_DOUBLE_EQ(d.improvement_ewma, 0.4);

  // Below the incumbent: regret 1, first stalled iteration, EWMA decays.
  d = diag.Record({}, 2.0);
  EXPECT_DOUBLE_EQ(d.simple_regret, 1.0);
  EXPECT_DOUBLE_EQ(d.cumulative_regret, 1.0);
  EXPECT_EQ(d.iterations_since_improvement, 1u);
  EXPECT_DOUBLE_EQ(d.improvement_ewma, 0.32);

  // Still below: regret accumulates, the stall counter keeps growing.
  d = diag.Record({}, 2.5);
  EXPECT_DOUBLE_EQ(d.simple_regret, 0.5);
  EXPECT_DOUBLE_EQ(d.cumulative_regret, 1.5);
  EXPECT_EQ(d.iterations_since_improvement, 2u);
  EXPECT_DOUBLE_EQ(d.improvement_ewma, 0.256);

  EXPECT_EQ(diag.iterations(), 4u);
  // No iteration carried a prediction: the coverage base is empty.
  EXPECT_EQ(diag.predicted_iterations(), 0u);
  EXPECT_DOUBLE_EQ(diag.coverage68(), 0.0);
  EXPECT_DOUBLE_EQ(diag.coverage95(), 0.0);
}

TEST_F(DiagnosticsTest, ResidualAndNlpdHandComputed) {
  obs::TuningDiagnostics diag;

  // N(1, 4) predicted, 3 observed: z = (3 - 1) / 2 = 1 (on the 68%
  // boundary, so covered), NLPD = 0.5 ln(2 pi 4) + 0.5 z^2.
  obs::DiagnosticsPrediction prediction;
  prediction.has_prediction = true;
  prediction.mean = 1.0;
  prediction.variance = 4.0;
  obs::IterationDiagnostics d = diag.Record(prediction, 3.0);
  ASSERT_TRUE(d.has_prediction);
  EXPECT_DOUBLE_EQ(d.standardized_residual, 1.0);
  const double nlpd1 = 0.5 * std::log(8.0 * M_PI) + 0.5;
  EXPECT_NEAR(d.nlpd, nlpd1, 1e-12);
  EXPECT_DOUBLE_EQ(d.coverage68, 1.0);
  EXPECT_DOUBLE_EQ(d.coverage95, 1.0);

  // N(0, 1) predicted, 3 observed: z = 3, outside both intervals.
  prediction.mean = 0.0;
  prediction.variance = 1.0;
  d = diag.Record(prediction, 3.0);
  EXPECT_DOUBLE_EQ(d.standardized_residual, 3.0);
  const double nlpd2 = 0.5 * std::log(2.0 * M_PI) + 4.5;
  EXPECT_NEAR(d.nlpd, nlpd2, 1e-12);
  EXPECT_DOUBLE_EQ(d.coverage68, 0.5);
  EXPECT_DOUBLE_EQ(d.coverage95, 0.5);
  EXPECT_NEAR(d.mean_nlpd, 0.5 * (nlpd1 + nlpd2), 1e-12);

  // A non-positive variance cannot score a density: the iteration is
  // excluded from the coverage base instead of polluting it.
  prediction.variance = 0.0;
  d = diag.Record(prediction, 3.0);
  EXPECT_FALSE(d.has_prediction);
  EXPECT_EQ(diag.predicted_iterations(), 2u);
}

// Calibration on a well-specified task: each observation is drawn from
// the surrogate's own one-step-ahead predictive distribution, so the
// standardized residuals are exactly standard normal and the empirical
// interval coverage must land near the nominal 68.3% / 95% levels.
TEST_F(DiagnosticsTest, CoverageOnWellSpecifiedGp) {
  Rng rng(101);
  const size_t kDims = 2;
  FeatureMatrix x;
  std::vector<double> y;
  for (size_t i = 0; i < 6; ++i) {
    std::vector<double> point(kDims);
    for (double& v : point) v = rng.Uniform();
    x.push_back(point);
    y.push_back(rng.Gaussian());
  }

  obs::TuningDiagnostics diag;
  GaussianProcess gp(std::make_unique<Matern52Kernel>());
  for (size_t iter = 0; iter < 150; ++iter) {
    ASSERT_TRUE(gp.Fit(x, y).ok());
    std::vector<double> query(kDims);
    for (double& v : query) v = rng.Uniform();
    double mean = 0.0, variance = 0.0;
    gp.PredictMeanVar(query, &mean, &variance);
    obs::DiagnosticsPrediction prediction;
    double score = mean;
    if (variance > 1e-12) {
      score = mean + std::sqrt(variance) * rng.Gaussian();
      prediction.has_prediction = true;
      prediction.mean = mean;
      prediction.variance = variance;
    }
    diag.Record(prediction, score);
    x.push_back(query);
    y.push_back(score);
  }

  EXPECT_GE(diag.predicted_iterations(), 100u);
  EXPECT_GE(diag.coverage68(), 0.60);
  EXPECT_LE(diag.coverage68(), 0.76);
  EXPECT_GE(diag.coverage95(), 0.88);
  EXPECT_LE(diag.coverage95(), 1.0);
  EXPECT_TRUE(std::isfinite(diag.mean_nlpd()));
}

TEST_F(DiagnosticsTest, PerSessionMetricsPublished) {
  obs::ScopedMetricsForTest metrics_on;
  EXPECT_EQ(obs::LabeledMetricName("tuning.regret.simple", "session", "s1"),
            "tuning.regret.simple{session=\"s1\"}");

  obs::TuningDiagnostics diag("s1");
  obs::DiagnosticsPrediction prediction;
  prediction.has_prediction = true;
  prediction.mean = 0.0;
  prediction.variance = 1.0;
  diag.Record(prediction, 0.5);
  diag.Record(prediction, -0.5);

  obs::MetricsRegistry& registry = obs::MetricsRegistry::Get();
  const obs::Counter* iterations =
      registry.FindCounter("tuning.iterations{session=\"s1\"}");
  ASSERT_NE(iterations, nullptr);
  EXPECT_EQ(iterations->value(), 2u);
  const obs::Gauge* regret =
      registry.FindGauge("tuning.regret.simple{session=\"s1\"}");
  ASSERT_NE(regret, nullptr);
  EXPECT_DOUBLE_EQ(regret->value(), 1.0);  // 0.5 incumbent, -0.5 observed
  const obs::Gauge* coverage =
      registry.FindGauge("tuning.calibration.coverage68{session=\"s1\"}");
  ASSERT_NE(coverage, nullptr);
  EXPECT_DOUBLE_EQ(coverage->value(), 1.0);  // both |z| = 0.5 <= 1
  // Nothing published when metrics are off.
  EXPECT_EQ(registry.FindGauge("tuning.regret.simple{session=\"other\"}"),
            nullptr);
}

TEST_F(DiagnosticsTest, PrometheusRendererEscapesHostileNames) {
  obs::MetricsRegistry& registry = obs::MetricsRegistry::Get();
  // Out-of-charset characters (spaces, newline, an unterminated brace)
  // degrade to name mangling, never to malformed exposition.
  registry.counter("evil name\nwith{unterminated").Increment(3);
  // A hostile label value is escaped per the exposition format.
  registry.gauge(obs::LabeledMetricName("cal.test", "session", "a\"b\\c\nd"))
      .Set(1.0);
  // A labeled histogram merges its label with the quantile label.
  registry.histogram(obs::LabeledMetricName("lat.test", "session", "x"))
      .RecordNanos(1'000'000);

  const std::string text = obs::RenderPrometheusRegistry();
  EXPECT_NE(text.find("dbtune_evil_name_with_unterminated 3\n"),
            std::string::npos);
  EXPECT_NE(
      text.find("dbtune_cal_test{session=\"a\\\"b\\\\c\\nd\"} 1\n"),
      std::string::npos);
  EXPECT_NE(text.find("dbtune_lat_test{session=\"x\",quantile=\"0.5\"}"),
            std::string::npos);
  EXPECT_NE(text.find("dbtune_lat_test_count{session=\"x\"} 1\n"),
            std::string::npos);
  // No raw control character survives into the exposition.
  for (char c : text) {
    EXPECT_TRUE(c == '\n' || static_cast<unsigned char>(c) >= 0x20u);
  }
}

TEST_F(DiagnosticsTest, PrometheusSnapshotIsDeterministicAndTyped) {
  obs::MetricsRegistry& registry = obs::MetricsRegistry::Get();
  registry.counter("diag.test.counter").Increment(42);
  registry.gauge("diag.test.gauge").Set(2.5);
  obs::Histogram& hist = registry.histogram("diag.test.hist");
  hist.RecordNanos(1'000'000);
  hist.RecordNanos(2'000'000);
  hist.RecordNanos(4'000'000);

  const std::string text = obs::RenderPrometheusRegistry();
  // The rendering is a pure function of the snapshot.
  EXPECT_EQ(text, obs::RenderPrometheusRegistry());
  EXPECT_NE(text.find("# TYPE dbtune_diag_test_counter counter\n"),
            std::string::npos);
  EXPECT_NE(text.find("dbtune_diag_test_counter 42\n"), std::string::npos);
  EXPECT_NE(text.find("# TYPE dbtune_diag_test_gauge gauge\n"),
            std::string::npos);
  EXPECT_NE(text.find("dbtune_diag_test_gauge 2.5\n"), std::string::npos);
  // Histograms render as summaries: quantiles plus _sum/_count.
  EXPECT_NE(text.find("# TYPE dbtune_diag_test_hist summary\n"),
            std::string::npos);
  EXPECT_NE(text.find("dbtune_diag_test_hist{quantile=\"0.95\"}"),
            std::string::npos);
  EXPECT_NE(text.find("dbtune_diag_test_hist_count 3\n"), std::string::npos);
  // Families are emitted sorted, counters before gauges.
  EXPECT_LT(text.find("dbtune_diag_test_counter"),
            text.find("dbtune_diag_test_gauge"));
}

TEST_F(DiagnosticsTest, SnapshotWriteIsAtomicAndMatchesRenderer) {
  obs::MetricsRegistry::Get().counter("diag.atomic.counter").Increment(7);
  const std::string path = ::testing::TempDir() + "diag_atomic.prom";
  ASSERT_TRUE(obs::WritePrometheusSnapshot(path).ok());
  EXPECT_TRUE(FileExists(path));
  // The temporary staging file never survives a successful write.
  EXPECT_FALSE(FileExists(path + ".tmp"));
  EXPECT_EQ(ReadFile(path), obs::RenderPrometheusRegistry());
  // Unwritable destinations report an error instead of crashing.
  EXPECT_FALSE(
      obs::WritePrometheusSnapshot("/nonexistent-dir-47/m.prom").ok());
  EXPECT_FALSE(obs::WritePrometheusSnapshot("").ok());
}

TEST_F(DiagnosticsTest, ExporterCadenceUnderFakeClock) {
  obs::EnableFakeClockForTest();
  obs::Counter& marker =
      obs::MetricsRegistry::Get().counter("diag.cadence.marker");
  marker.Increment();

  const std::string path = ::testing::TempDir() + "diag_cadence.prom";
  obs::MetricsExporter exporter(path, /*interval_seconds=*/10.0);
  ASSERT_TRUE(exporter.enabled());

  // The first call always writes.
  exporter.MaybeExport();
  EXPECT_NE(ReadFile(path).find("dbtune_diag_cadence_marker 1\n"),
            std::string::npos);

  // Within the interval (the fake clock advances 1ms per read) the
  // exporter skips the write: the file still shows the old value.
  marker.Increment();
  exporter.MaybeExport();
  EXPECT_NE(ReadFile(path).find("dbtune_diag_cadence_marker 1\n"),
            std::string::npos);

  // ExportNow is unconditional (the session-end snapshot).
  ASSERT_TRUE(exporter.ExportNow().ok());
  EXPECT_NE(ReadFile(path).find("dbtune_diag_cadence_marker 2\n"),
            std::string::npos);
  EXPECT_FALSE(FileExists(path + ".tmp"));

  // A disabled exporter never writes and reports it on ExportNow.
  obs::MetricsExporter disabled;
  EXPECT_FALSE(disabled.enabled());
  disabled.MaybeExport();
  EXPECT_FALSE(disabled.ExportNow().ok());
}

std::vector<size_t> FirstKnobs(size_t n) {
  std::vector<size_t> idx(n);
  for (size_t i = 0; i < n; ++i) idx[i] = i;
  return idx;
}

// The acceptance test of the diagnostics pipeline: same seed + fake
// clock + single-lane pool, diagnostics and export on → the session
// JSONL (including the additive diag fields) is byte-identical across
// runs, parses cleanly in the report library, and the Prometheus
// snapshot carries the per-session labeled series.
TEST_F(DiagnosticsTest, SessionDiagnosticsGoldenByteIdentical) {
  PoolSizeGuard guard(1);
  obs::ScopedMetricsForTest metrics_on;

  auto run = [&](const std::string& tag) {
    obs::EnableFakeClockForTest();
    obs::MetricsRegistry::Get().Reset();

    SessionControls controls;
    controls.session_log_path =
        ::testing::TempDir() + "diag_golden_" + tag + ".jsonl";
    controls.diagnostics = true;
    controls.session_label = "golden";
    controls.metrics_export_path =
        ::testing::TempDir() + "diag_golden_" + tag + ".prom";

    DbmsSimulator sim(SmallTestCatalog(), WorkloadId::kSysbench,
                      HardwareInstance::kB, /*seed=*/1);
    TuningEnvironment env(&sim, FirstKnobs(sim.space().dimension()));
    OptimizerOptions options;
    options.seed = 2;
    std::unique_ptr<Optimizer> optimizer =
        CreateOptimizer(OptimizerType::kSmac, env.space(), options);
    const SessionResult result =
        RunTuningSession(&env, optimizer.get(), /*iterations=*/12, controls);
    EXPECT_TRUE(result.has_diagnostics);
    EXPECT_EQ(result.final_diagnostics.iteration, 12u);
    return std::make_pair(ReadFile(controls.session_log_path),
                          ReadFile(controls.metrics_export_path));
  };

  const auto [log_a, prom_a] = run("a");
  const auto [log_b, prom_b] = run("b");
  ASSERT_FALSE(log_a.empty());
  EXPECT_EQ(log_a, log_b);
  EXPECT_EQ(prom_a, prom_b);

  // Every line carries the versioned diag fields.
  EXPECT_NE(log_a.find("\"diag_v\":2,"), std::string::npos);
  EXPECT_NE(log_a.find("\"cum_regret\":"), std::string::npos);

  // The report library ingests the log without malformed lines.
  const dbtune_report::SessionData parsed =
      dbtune_report::ParseSessionJsonl("golden", log_a);
  EXPECT_EQ(parsed.rows.size(), 12u);
  EXPECT_EQ(parsed.malformed_lines, 0u);
  ASSERT_FALSE(parsed.rows.empty());
  EXPECT_TRUE(parsed.rows.back().has_diagnostics);
  EXPECT_EQ(parsed.rows.back().diag_version, 2);

  // The exported snapshot carries the per-session labeled series.
  EXPECT_NE(
      prom_a.find("dbtune_tuning_regret_simple{session=\"golden\"}"),
      std::string::npos);
  EXPECT_NE(prom_a.find("dbtune_tuning_iterations{session=\"golden\"} 12\n"),
            std::string::npos);
}

TEST_F(DiagnosticsTest, SparklineAndPercentileHelpers) {
  EXPECT_EQ(dbtune_report::Sparkline({}, 24), "");
  EXPECT_EQ(dbtune_report::Sparkline({1.0, 2.0, 3.0}, 8),
            "▁▅█");  // low, mid, high blocks
  // Flat series renders at the lowest level instead of dividing by zero.
  EXPECT_EQ(dbtune_report::Sparkline({5.0, 5.0}, 8), "▁▁");
  // Longer series downsample to max_points buckets.
  std::vector<double> ramp;
  for (int i = 0; i < 100; ++i) ramp.push_back(i);
  const std::string spark = dbtune_report::Sparkline(ramp, 4);
  EXPECT_EQ(spark, "▁▃▆█");

  const std::vector<double> sorted = {1.0, 2.0, 3.0, 4.0};
  EXPECT_DOUBLE_EQ(dbtune_report::Percentile(sorted, 0.5), 2.0);
  EXPECT_DOUBLE_EQ(dbtune_report::Percentile(sorted, 0.95), 4.0);
  EXPECT_DOUBLE_EQ(dbtune_report::Percentile(sorted, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(dbtune_report::Percentile({}, 0.5), 0.0);
}

TEST_F(DiagnosticsTest, ReportRenderingIsDeterministic) {
  std::string jsonl;
  jsonl +=
      "{\"iter\":1,\"suggest_s\":0.001000000,\"evaluate_s\":1.000000000,"
      "\"observe_s\":0.000500000,\"score\":-5,\"best_score\":-5,"
      "\"improvement_pct\":0,\"diag_v\":2,\"pred\":0,\"zres\":0,\"nlpd\":0,"
      "\"cov68\":0,\"cov95\":0,\"regret\":0,\"cum_regret\":0,\"stall\":0,"
      "\"ewma_improve\":0,\"acq_best\":0,\"acq_spread\":0,"
      "\"inc_fit_rate\":0,\"hyperopt_runs\":0}\n";
  jsonl +=
      "{\"iter\":2,\"suggest_s\":0.002000000,\"evaluate_s\":1.100000000,"
      "\"observe_s\":0.000600000,\"score\":-3,\"best_score\":-3,"
      "\"improvement_pct\":40,\"diag_v\":2,\"pred\":1,\"zres\":0.5,"
      "\"nlpd\":1.25,\"cov68\":1,\"cov95\":1,\"regret\":0,\"cum_regret\":0,"
      "\"stall\":0,\"ewma_improve\":0.4,\"acq_best\":0.8,"
      "\"acq_spread\":0.1,\"inc_fit_rate\":0.5,\"hyperopt_runs\":2}\n";
  jsonl += "this line is not json\n";

  const dbtune_report::SessionData session =
      dbtune_report::ParseSessionJsonl("synthetic", jsonl);
  EXPECT_EQ(session.rows.size(), 2u);
  EXPECT_EQ(session.malformed_lines, 1u);
  EXPECT_FALSE(session.rows[0].has_prediction);
  EXPECT_TRUE(session.rows[1].has_prediction);
  EXPECT_DOUBLE_EQ(session.rows[1].standardized_residual, 0.5);
  EXPECT_EQ(session.rows[1].hyperopt_runs, 2ull);

  const std::string report =
      dbtune_report::RenderMarkdownReport({session});
  EXPECT_EQ(report, dbtune_report::RenderMarkdownReport({session}));
  EXPECT_NE(report.find("# dbtune session report"), std::string::npos);
  EXPECT_NE(report.find("| synthetic | 2 | -3 | 40 |"), std::string::npos);
  EXPECT_NE(report.find("1 malformed line(s) skipped in synthetic"),
            std::string::npos);
  EXPECT_NE(report.find("## Diagnostics: synthetic"), std::string::npos);
  EXPECT_NE(report.find("### Convergence"), std::string::npos);
  EXPECT_NE(report.find("- 68% interval coverage: 1 (nominal 0.683)"),
            std::string::npos);
  EXPECT_NE(report.find("- hyper-parameter searches: 2"), std::string::npos);
  EXPECT_NE(report.find("| synthetic | suggest |"), std::string::npos);
  // A diagnostics-free session renders the summary table only.
  dbtune_report::SessionData plain = session;
  plain.name = "plain";
  for (auto& row : plain.rows) row.has_diagnostics = false;
  const std::string plain_report =
      dbtune_report::RenderMarkdownReport({plain});
  EXPECT_EQ(plain_report.find("## Diagnostics: plain"), std::string::npos);
}

// The durable-store section, byte for byte: recovery state, the bytes Open
// read beside the observations held in memory, the data log, then one row
// per session; and the line an empty store gets instead of the table.
TEST_F(DiagnosticsTest, StoreSummaryRendersRecoveryMemoryAndSessions) {
  dbtune_report::StoreSummary summary;
  summary.path = "runs/store.wal";
  summary.last_lsn = 42;
  summary.loaded_snapshot = true;
  summary.recovered_torn_tail = true;
  summary.tasks = 2;
  summary.recovery_bytes_read = 1234;
  summary.observations_in_memory = 7;
  summary.data_log_bytes = 5000;
  summary.dead_bytes = 100;
  summary.compactions = 1;
  summary.sealed_sessions = 1;
  summary.sessions = {{"live", 3, 12, false}, {"done", 2, 5, true}};
  EXPECT_EQ(dbtune_report::RenderStoreSummary(summary),
            "## Durable store\n\n"
            "- path: `runs/store.wal`\n"
            "- last LSN: 42\n"
            "- recovery: checkpoint + wal replay (torn tail truncated)\n"
            "- persisted base tasks: 2\n"
            "- recovery read: 1234 byte(s); 7 observation(s) in memory\n"
            "- data log: 5000 byte(s), 100 dead, 1 compaction(s); "
            "1 sealed session(s)\n\n"
            "| session | dims | observations | state |\n"
            "|---|---|---|---|\n"
            "| live | 3 | 12 | in-flight |\n"
            "| done | 2 | 5 | finished |\n");
  summary.sessions.clear();
  const std::string empty = dbtune_report::RenderStoreSummary(summary);
  EXPECT_TRUE(
      empty.ends_with("1 sealed session(s)\n\nNo recorded sessions.\n"))
      << empty;
}

}  // namespace
}  // namespace dbtune
