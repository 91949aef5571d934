// Startup switches end to end. ctest runs this binary twice: once with
// every DBTUNE_* library variable unset (EnvStartupUnset.*), once with
// each one set through the test's ENVIRONMENT property (EnvStartupSet.*,
// paths under DBTUNE_ENV_STARTUP_DIR). Each run asserts what the process
// saw at startup, so the binary never mutates its own environment.

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/tuning_session.h"
#include "importance/incremental.h"
#include "knobs/catalog.h"
#include "obs/clock.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "store/observation_store.h"
#include "util/env_config.h"
#include "util/thread_pool.h"

namespace dbtune {
namespace {

const std::string kDir = DBTUNE_ENV_STARTUP_DIR;
const std::string kTrace = kDir + "/trace.json";
const std::string kSessionLog = kDir + "/session.jsonl";
const std::string kMetricsExport = kDir + "/metrics.prom";
const std::string kStore = kDir + "/store.wal";

constexpr size_t kIterations = 5;

std::string ReadFile(const std::string& path) {
  std::ifstream in(path);
  std::stringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

void RemoveOutputs() {
  for (const std::string& path : {kTrace, kSessionLog, kMetricsExport}) {
    std::filesystem::remove(path);
  }
  ASSERT_TRUE(store::ObservationStore::Destroy(kStore).ok());
}

SessionResult RunSmallSession(const SessionControls& controls) {
  DbmsSimulator sim(SmallTestCatalog(), WorkloadId::kSysbench,
                    HardwareInstance::kB, 3);
  std::vector<size_t> knobs(sim.space().dimension());
  for (size_t i = 0; i < knobs.size(); ++i) knobs[i] = i;
  return RunTuningSession(&sim, knobs, OptimizerType::kRandomSearch,
                          kIterations, 4, controls);
}

size_t CountLines(const std::string& text, const std::string& needle) {
  size_t lines = 0;
  std::istringstream in(text);
  for (std::string line; std::getline(in, line);) {
    if (line.find(needle) != std::string::npos) ++lines;
  }
  return lines;
}

TEST(EnvStartupUnset, EverySwitchIsOff) {
  EXPECT_FALSE(obs::MetricsEnabled());
  EXPECT_FALSE(obs::TraceEnabled());
  EXPECT_FALSE(obs::FakeClockActive());
  const unsigned hardware = std::thread::hardware_concurrency();
  EXPECT_EQ(ExecutionContext::Get().num_threads(),
            std::min<size_t>(hardware == 0 ? 1 : hardware, 256));

  const EnvConfig& config = ProcessEnvConfig();
  EXPECT_TRUE(config.warnings.empty());
  EXPECT_EQ(config.metrics_export_interval_s, 10.0);
  EXPECT_FALSE(config.store_snapshot_every.has_value());

  const SessionControls controls;
  EXPECT_EQ(controls.session_log_path, "");
  EXPECT_EQ(controls.trace_path, "");
  EXPECT_FALSE(controls.diagnostics);
  EXPECT_EQ(controls.metrics_export_path, "");
  EXPECT_EQ(controls.store_path, "");
  EXPECT_FALSE(RunSmallSession(controls).has_diagnostics);
}

TEST(EnvStartupSet, EverySwitchTookEffectAtStartup) {
  EXPECT_TRUE(obs::MetricsEnabled());
  EXPECT_TRUE(obs::TraceEnabled());
  EXPECT_TRUE(obs::FakeClockActive());
  EXPECT_EQ(ExecutionContext::Get().num_threads(), 3u);

  const EnvConfig& config = ProcessEnvConfig();
  EXPECT_TRUE(config.warnings.empty());
  EXPECT_EQ(config.metrics_export_interval_s, 0.25);
  EXPECT_EQ(config.store_snapshot_every, 2u);

  const SessionControls controls;
  EXPECT_EQ(controls.session_log_path, kSessionLog);
  EXPECT_EQ(controls.trace_path, kTrace);
  EXPECT_TRUE(controls.diagnostics);
  EXPECT_EQ(controls.metrics_export_path, kMetricsExport);
  EXPECT_EQ(controls.store_path, kStore);
}

TEST(EnvStartupSet, DefaultControlsWriteEveryOutput) {
  std::filesystem::create_directories(kDir);
  RemoveOutputs();
  const SessionResult result = RunSmallSession(SessionControls{});
  EXPECT_TRUE(result.has_diagnostics);

  const std::string log = ReadFile(kSessionLog);
  EXPECT_EQ(CountLines(log, "\"iter\""), kIterations) << log;
  EXPECT_EQ(CountLines(log, "\"diag_v\""), kIterations) << log;
  EXPECT_NE(ReadFile(kTrace).find("\"session.iteration\""),
            std::string::npos);
  EXPECT_NE(ReadFile(kMetricsExport).find("session_iterations"),
            std::string::npos);

  // The store took every observation under the default session id, and
  // DBTUNE_STORE_SNAPSHOT_EVERY=2 checkpointed it (the default of 64
  // would not have by now).
  EXPECT_TRUE(std::filesystem::exists(kStore + ".manifest"));
  auto store = store::ObservationStore::Open(kStore);
  ASSERT_TRUE(store.ok()) << store.status().ToString();
  const Result<store::StoredSession> session = (*store)->FindSession("default");
  ASSERT_TRUE(session.ok()) << session.status().ToString();
  EXPECT_EQ(session->observations.size(), kIterations);
}

TEST(EnvStartupSet, ExplicitOffOverridesTheEnvironment) {
  std::filesystem::create_directories(kDir);
  RemoveOutputs();
  SessionControls controls;
  controls.session_log_path = "";
  controls.trace_path = "";
  controls.diagnostics = false;
  controls.metrics_export_path = "";
  controls.store_path = "";
  EXPECT_FALSE(RunSmallSession(controls).has_diagnostics);
  for (const std::string& path : {kTrace, kSessionLog, kMetricsExport,
                                  kStore}) {
    EXPECT_FALSE(std::filesystem::exists(path)) << path;
  }
}

// A helper that runs one inner session per phase never binds the process
// store: each phase would otherwise resume the previous phase's records
// under the default session id. Two identical runs therefore replay
// nothing, match bitwise, and leave no store behind.
TEST(EnvStartupSet, IncrementalSessionsNeverBindTheStore) {
  std::filesystem::create_directories(kDir);
  RemoveOutputs();
  auto run = [] {
    DbmsSimulator sim(SmallTestCatalog(), WorkloadId::kSysbench,
                      HardwareInstance::kB, 5);
    std::vector<size_t> ranking(sim.space().dimension());
    for (size_t i = 0; i < ranking.size(); ++i) ranking[i] = i;
    IncrementalOptions options;
    options.phase_sizes = {3, 6};
    options.iterations_per_phase = kIterations;
    options.seed = 6;
    return RunIncrementalSession(&sim, ranking, options).value();
  };
  const SessionResult first = run();
  const SessionResult second = run();
  ASSERT_EQ(first.improvement_trace.size(), 2 * kIterations);
  EXPECT_EQ(first.improvement_trace, second.improvement_trace);
  EXPECT_EQ(first.objective_trace, second.objective_trace);
  EXPECT_EQ(first.replayed_iterations, 0u);
  EXPECT_EQ(second.replayed_iterations, 0u);
  EXPECT_FALSE(std::filesystem::exists(kStore));
}

}  // namespace
}  // namespace dbtune
