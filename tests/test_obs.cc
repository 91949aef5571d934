// Observability layer: metrics registry, trace spans, session JSONL.
// The golden tests pin the determinism contract — under the fake clock
// and a single-lane pool, two same-seed sessions must produce
// byte-identical session logs and trace files.

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/tuning_session.h"
#include "knobs/catalog.h"
#include "obs/clock.h"
#include "obs/metrics.h"
#include "obs/metrics_export.h"
#include "obs/session_log.h"
#include "obs/trace.h"
#include "pool_size_guard.h"
#include "util/thread_pool.h"

namespace dbtune {
namespace {

using testing::PoolSizeGuard;

// Every test starts and ends with observability fully off and empty.
class ObsTest : public ::testing::Test {
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

TEST_F(ObsTest, CounterIncrementsAndSurvivesReset) {
  obs::Counter& c = obs::MetricsRegistry::Get().counter("test.counter");
  c.Increment();
  c.Increment(41);
  EXPECT_EQ(c.value(), 42u);
  obs::MetricsRegistry::Get().Reset();
  // The handle stays valid; only the value is zeroed.
  EXPECT_EQ(c.value(), 0u);
  c.Increment();
  EXPECT_EQ(c.value(), 1u);
  EXPECT_EQ(&c, &obs::MetricsRegistry::Get().counter("test.counter"));
}

TEST_F(ObsTest, GaugeSetAndAdd) {
  obs::Gauge& g = obs::MetricsRegistry::Get().gauge("test.gauge");
  g.Set(2.5);
  EXPECT_DOUBLE_EQ(g.value(), 2.5);
  g.Add(0.5);
  g.Add(-1.0);
  EXPECT_DOUBLE_EQ(g.value(), 2.0);
}

TEST_F(ObsTest, GaugeMaxTracksPeak) {
  obs::Gauge& g = obs::MetricsRegistry::Get().gauge("test.gauge.peak");
  g.Max(3.0);
  EXPECT_DOUBLE_EQ(g.value(), 3.0);
  g.Max(1.0);  // lower candidate leaves the peak untouched
  EXPECT_DOUBLE_EQ(g.value(), 3.0);
  g.Max(7.5);
  EXPECT_DOUBLE_EQ(g.value(), 7.5);
}

TEST_F(ObsTest, ScopedMetricsForTestEnablesAndRestores) {
  ASSERT_FALSE(obs::MetricsEnabled());
  obs::MetricsRegistry::Get().counter("test.scoped").Increment(5);
  {
    obs::ScopedMetricsForTest metrics_on;
    // Construction enabled recording and wiped prior values.
    EXPECT_TRUE(obs::MetricsEnabled());
    const obs::Counter* c =
        obs::MetricsRegistry::Get().FindCounter("test.scoped");
    ASSERT_NE(c, nullptr);
    EXPECT_EQ(c->value(), 0u);
    obs::MetricsRegistry::Get().counter("test.scoped").Increment();
  }
  // Destruction restored the previous state and wiped again.
  EXPECT_FALSE(obs::MetricsEnabled());
  const obs::Counter* c =
      obs::MetricsRegistry::Get().FindCounter("test.scoped");
  ASSERT_NE(c, nullptr);
  EXPECT_EQ(c->value(), 0u);
}

TEST_F(ObsTest, FindDoesNotRegister) {
  EXPECT_EQ(obs::MetricsRegistry::Get().FindCounter("test.absent"), nullptr);
  EXPECT_EQ(obs::MetricsRegistry::Get().FindGauge("test.absent"), nullptr);
  EXPECT_EQ(obs::MetricsRegistry::Get().FindHistogram("test.absent"),
            nullptr);
  obs::MetricsRegistry::Get().counter("test.present");
  EXPECT_NE(obs::MetricsRegistry::Get().FindCounter("test.present"), nullptr);
}

TEST_F(ObsTest, HistogramBucketBoundsBracketEveryValue) {
  for (uint64_t nanos : {uint64_t{0}, uint64_t{1}, uint64_t{3}, uint64_t{4},
                         uint64_t{1000}, uint64_t{999'999},
                         uint64_t{1'000'000'000}, uint64_t{1} << 40}) {
    const size_t index = obs::Histogram::BucketIndex(nanos);
    EXPECT_LE(obs::Histogram::BucketLowerNanos(index), nanos) << nanos;
    EXPECT_GT(obs::Histogram::BucketLowerNanos(index + 1), nanos) << nanos;
  }
  // Buckets are monotone: a larger value never lands in an earlier bucket.
  size_t previous = 0;
  for (uint64_t nanos = 1; nanos < (uint64_t{1} << 34); nanos *= 3) {
    const size_t index = obs::Histogram::BucketIndex(nanos);
    EXPECT_GE(index, previous);
    previous = index;
  }
}

TEST_F(ObsTest, HistogramPercentilesWithinBucketError) {
  obs::Histogram h;
  // 1ms..100ms, uniform: p50 ≈ 50ms, p95 ≈ 95ms, p99 ≈ 99ms. Log-bucket
  // resolution with 4 sub-buckets per octave bounds relative error by
  // ~12.5%; allow a slightly wider margin for interpolation.
  for (int ms = 1; ms <= 100; ++ms) {
    h.RecordNanos(static_cast<uint64_t>(ms) * 1'000'000);
  }
  EXPECT_EQ(h.count(), 100u);
  EXPECT_NEAR(h.sum_seconds(), 5.050, 1e-9);
  EXPECT_NEAR(h.Percentile(0.50), 0.050, 0.050 * 0.15);
  EXPECT_NEAR(h.Percentile(0.95), 0.095, 0.095 * 0.15);
  EXPECT_NEAR(h.Percentile(0.99), 0.099, 0.099 * 0.15);
  // Degenerate quantiles stay inside the recorded range.
  EXPECT_GE(h.Percentile(0.0), 0.0);
  EXPECT_LE(h.Percentile(1.0), 0.100 * 1.15);
}

TEST_F(ObsTest, EmptyHistogramReportsZero) {
  obs::Histogram h;
  EXPECT_EQ(h.count(), 0u);
  EXPECT_DOUBLE_EQ(h.sum_seconds(), 0.0);
  EXPECT_DOUBLE_EQ(h.Percentile(0.5), 0.0);
}

TEST_F(ObsTest, ScopedLatencyRecordsOnlyWhenEnabled) {
  obs::Histogram& h = obs::MetricsRegistry::Get().histogram("test.latency");
  {
    obs::ScopedLatency latency(&h);  // metrics disabled: no-op
  }
  EXPECT_EQ(h.count(), 0u);
  obs::ScopedMetricsForTest metrics_on;
  {
    obs::ScopedLatency latency(&h);
  }
  EXPECT_EQ(h.count(), 1u);
}

TEST_F(ObsTest, FakeClockTicksOneMillisecondPerRead) {
  obs::EnableFakeClockForTest();
  ASSERT_TRUE(obs::FakeClockActive());
  const uint64_t first = obs::MonotonicNanos();
  const uint64_t second = obs::MonotonicNanos();
  EXPECT_EQ(second - first, 1'000'000u);
  obs::EnableFakeClockForTest();  // re-enabling rewinds to zero
  EXPECT_EQ(obs::MonotonicNanos(), first);
}

TEST_F(ObsTest, SpanNestingSerializesDeterministically) {
  obs::EnableFakeClockForTest();
  obs::SetTraceEnabled(true);
  {
    DBTUNE_TRACE_SPAN("outer");
    {
      DBTUNE_TRACE_SPAN("inner");
    }
  }
  EXPECT_EQ(obs::TraceEventCount(), 2u);
  const std::string json = obs::TraceToJson();
  EXPECT_EQ(json, obs::TraceToJson());
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  const size_t outer = json.find("\"name\":\"outer\"");
  const size_t inner = json.find("\"name\":\"inner\"");
  ASSERT_NE(outer, std::string::npos);
  ASSERT_NE(inner, std::string::npos);
  // Events are sorted by start time: the outer span opened first.
  EXPECT_LT(outer, inner);
  obs::ClearTrace();
  EXPECT_EQ(obs::TraceEventCount(), 0u);
}

TEST_F(ObsTest, SpansCostNothingWhenDisabled) {
  {
    DBTUNE_TRACE_SPAN("invisible");
  }
  EXPECT_EQ(obs::TraceEventCount(), 0u);
}

TEST_F(ObsTest, WriteTraceReportsUnwritablePath) {
  obs::SetTraceEnabled(true);
  {
    DBTUNE_TRACE_SPAN("event");
  }
  const Status bad = obs::WriteTrace("/nonexistent-dir-47/trace.json");
  EXPECT_FALSE(bad.ok());
  const std::string path = ::testing::TempDir() + "obs_trace_ok.json";
  EXPECT_TRUE(obs::WriteTrace(path).ok());
  EXPECT_NE(ReadFile(path).find("\"traceEvents\""), std::string::npos);
}

TEST_F(ObsTest, DefaultSessionLoggerIsDisabled) {
  // Default-constructed logger is off and logging is a no-op.
  obs::SessionLogger disabled;
  EXPECT_FALSE(disabled.enabled());
  disabled.Log(obs::SessionIterationRecord{});
}

TEST_F(ObsTest, SessionLoggerWritesOneJsonObjectPerLine) {
  const std::string path = ::testing::TempDir() + "obs_session_unit.jsonl";
  {
    obs::SessionLogger logger(path);
    ASSERT_TRUE(logger.enabled());
    obs::SessionIterationRecord record;
    record.iteration = 1;
    record.suggest_seconds = 0.25;
    record.score = -3.5;
    record.best_score = -3.5;
    logger.Log(record);
    record.iteration = 2;
    logger.Log(record);
  }
  std::ifstream in(path);
  std::string line;
  size_t lines = 0;
  while (std::getline(in, line)) {
    ++lines;
    EXPECT_EQ(line.front(), '{');
    EXPECT_EQ(line.back(), '}');
    EXPECT_NE(line.find("\"iter\":"), std::string::npos);
    // Field order is fixed: iteration first, improvement last.
    EXPECT_LT(line.find("\"iter\":"), line.find("\"suggest_s\":"));
    EXPECT_LT(line.find("\"score\":"), line.find("\"improvement_pct\":"));
  }
  EXPECT_EQ(lines, 2u);
}

TEST_F(ObsTest, SessionLoggerLineFormatIsPinned) {
  // The v-base line layout is a compatibility contract: with diagnostics
  // off it must stay byte-identical to the pre-diagnostics format.
  const std::string path = ::testing::TempDir() + "obs_session_pinned.jsonl";
  {
    obs::SessionLogger logger(path);
    obs::SessionIterationRecord record;
    record.iteration = 3;
    record.suggest_seconds = 0.25;
    record.evaluate_seconds = 1.5;
    record.observe_seconds = 0.125;
    record.score = -3.5;
    record.best_score = -2.25;
    record.improvement_percent = 12.5;
    logger.Log(record);
  }
  EXPECT_EQ(ReadFile(path),
            "{\"iter\":3,\"suggest_s\":0.250000000,"
            "\"evaluate_s\":1.500000000,\"observe_s\":0.125000000,"
            "\"score\":-3.5,\"best_score\":-2.25,"
            "\"improvement_pct\":12.5}\n");
}

TEST_F(ObsTest, SessionLoggerCloseIsIdempotent) {
  const std::string path = ::testing::TempDir() + "obs_session_close.jsonl";
  obs::SessionLogger logger(path);
  ASSERT_TRUE(logger.enabled());
  obs::SessionIterationRecord record;
  record.iteration = 1;
  logger.Log(record);
  logger.Close();
  EXPECT_FALSE(logger.enabled());
  logger.Close();  // second close is a no-op
  logger.Log(record);  // logging after close is a no-op, not a crash
  // The line written before Close survived; nothing was appended after.
  const std::string content = ReadFile(path);
  EXPECT_EQ(content.find("\"iter\":1,"), 1u);
  EXPECT_EQ(std::count(content.begin(), content.end(), '\n'), 1);
}

TEST_F(ObsTest, SessionLoggerFlushesOnDestruction) {
  const std::string path = ::testing::TempDir() + "obs_session_flush.jsonl";
  {
    obs::SessionLogger logger(path);
    obs::SessionIterationRecord record;
    record.iteration = 7;
    logger.Log(record);
    // No explicit Close: the destructor must flush and close.
  }
  EXPECT_NE(ReadFile(path).find("\"iter\":7,"), std::string::npos);
}

// Concurrent recording: counters and histograms are lock-free and must
// not lose increments under a parallel fan-out (run under TSan via the
// `threading` label).
TEST_F(ObsTest, ConcurrentRecordingLosesNothing) {
  obs::ScopedMetricsForTest metrics_on;
  PoolSizeGuard guard(8);
  obs::Counter& counter =
      obs::MetricsRegistry::Get().counter("test.concurrent.counter");
  obs::Gauge& gauge =
      obs::MetricsRegistry::Get().gauge("test.concurrent.gauge");
  obs::Histogram& histogram =
      obs::MetricsRegistry::Get().histogram("test.concurrent.hist");
  const size_t kEvents = 20'000;
  ParallelFor(GlobalPool(), 0, kEvents, /*grain=*/64,
              [&](size_t begin, size_t end) {
                for (size_t i = begin; i < end; ++i) {
                  counter.Increment();
                  gauge.Add(1.0);
                  histogram.RecordNanos(i);
                }
              });
  EXPECT_EQ(counter.value(), kEvents);
  EXPECT_DOUBLE_EQ(gauge.value(), static_cast<double>(kEvents));
  EXPECT_EQ(histogram.count(), kEvents);
}

// Regression: the serve loop and the cadence exporter snapshot the same
// path concurrently. With a shared fixed ".tmp" name, one writer's
// truncation raced another's rename and a torn file could be published;
// per-call temp names keep every published snapshot complete.
TEST_F(ObsTest, ConcurrentSnapshotWritersNeverPublishTornFiles) {
  obs::ScopedMetricsForTest metrics_on;
  obs::MetricsRegistry::Get().counter("test.snapshot.counter").Increment();
  obs::MetricsRegistry::Get().gauge("test.snapshot.gauge").Set(4.0);
  const std::string expected = obs::RenderPrometheusRegistry();
  ASSERT_FALSE(expected.empty());

  const std::string path = ::testing::TempDir() + "concurrent_metrics.prom";
  std::remove(path.c_str());
  constexpr size_t kWriters = 4;
  constexpr size_t kWritesEach = 50;
  std::vector<std::thread> writers;
  writers.reserve(kWriters);
  for (size_t w = 0; w < kWriters; ++w) {
    writers.emplace_back([&path] {
      for (size_t i = 0; i < kWritesEach; ++i) {
        EXPECT_TRUE(obs::WritePrometheusSnapshot(path).ok());
      }
    });
  }
  // The registry is static while the writers run, so every complete
  // snapshot renders the same bytes: any read observing anything else
  // caught a torn publish.
  for (int reads = 0; reads < 200; ++reads) {
    const std::string seen = ReadFile(path);
    if (!seen.empty()) {
      ASSERT_EQ(seen, expected) << "torn snapshot observed";
    }
  }
  for (std::thread& writer : writers) writer.join();
  EXPECT_EQ(ReadFile(path), expected);
  std::remove(path.c_str());
}

std::vector<size_t> FirstKnobs(size_t n) {
  std::vector<size_t> idx(n);
  for (size_t i = 0; i < n; ++i) idx[i] = i;
  return idx;
}

// The acceptance test of the observability layer: same seed + fake clock
// + single-lane pool → the session log and the trace file are
// byte-identical across runs.
TEST_F(ObsTest, SessionLogAndTraceAreByteIdenticalAcrossSameSeedRuns) {
  PoolSizeGuard guard(1);
  obs::ScopedMetricsForTest metrics_on;
  obs::SetTraceEnabled(true);

  auto run = [&](const std::string& tag) {
    // Rewind the fake clock and drop prior events so both runs start
    // from the identical observability state.
    obs::EnableFakeClockForTest();
    obs::ClearTrace();
    obs::MetricsRegistry::Get().Reset();

    SessionControls controls;
    controls.session_log_path =
        ::testing::TempDir() + "obs_golden_" + tag + ".jsonl";
    controls.trace_path = ::testing::TempDir() + "obs_golden_" + tag + ".trace";

    DbmsSimulator sim(SmallTestCatalog(), WorkloadId::kSysbench,
                      HardwareInstance::kB, /*seed=*/1);
    TuningEnvironment env(&sim, FirstKnobs(sim.space().dimension()));
    OptimizerOptions options;
    options.seed = 2;
    std::unique_ptr<Optimizer> optimizer =
        CreateOptimizer(OptimizerType::kSmac, env.space(), options);
    const SessionResult result =
        RunTuningSession(&env, optimizer.get(), /*iterations=*/12, controls);
    EXPECT_EQ(result.objective_trace.size(), 12u);
    return std::make_pair(ReadFile(controls.session_log_path),
                          ReadFile(controls.trace_path));
  };

  const auto [log_a, trace_a] = run("a");
  const auto [log_b, trace_b] = run("b");

  ASSERT_FALSE(log_a.empty());
  ASSERT_FALSE(trace_a.empty());
  EXPECT_EQ(log_a, log_b);
  EXPECT_EQ(trace_a, trace_b);

  // Shape checks: 12 JSONL lines, one per iteration; the trace is a
  // Chrome trace-event document containing the session spans.
  size_t lines = 0;
  for (char ch : log_a) lines += ch == '\n' ? 1 : 0;
  EXPECT_EQ(lines, 12u);
  EXPECT_NE(log_a.find("\"iter\":1,"), std::string::npos);
  EXPECT_NE(log_a.find("\"iter\":12,"), std::string::npos);
  EXPECT_NE(trace_a.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(trace_a.find("\"name\":\"session.iteration\""),
            std::string::npos);
  EXPECT_NE(trace_a.find("\"name\":\"smac.suggest\""), std::string::npos);

  // Metrics picked up the session too.
  const obs::Counter* iterations =
      obs::MetricsRegistry::Get().FindCounter("session.iterations");
  ASSERT_NE(iterations, nullptr);
  EXPECT_EQ(iterations->value(), 12u);
}

}  // namespace
}  // namespace dbtune
