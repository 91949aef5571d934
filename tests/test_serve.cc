// Serving layer: protocol framing round-trips, session lifecycle
// (eviction, double close, suggest-after-close as Status — never
// aborts), store-backed resurrection, and the headline invariant — a
// served session's trajectory is bitwise identical to the standalone
// in-process loop at every pool size and batch width.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <limits>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/tuning_session.h"
#include "dbms/environment.h"
#include "dbms/simulator.h"
#include "knobs/catalog.h"
#include "obs/clock.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "optimizer/optimizer.h"
#include "pool_size_guard.h"
#include "serve/batch_scheduler.h"
#include "serve/frame_server.h"
#include "serve/protocol.h"
#include "serve/session_manager.h"
#include "store/observation_store.h"
#include "store/wal.h"
#include "util/thread_pool.h"

namespace dbtune {
namespace {

using serve::BatchScheduler;
using serve::FrameServer;
using serve::LoopbackTransport;
using serve::SchedulerOptions;
using serve::ServedSessionOptions;
using serve::SessionManager;
using serve::SessionManagerOptions;
using store::ObservationStore;

using testing::PoolSizeGuard;

std::vector<size_t> FirstKnobs(size_t n) {
  std::vector<size_t> idx(n);
  for (size_t i = 0; i < n; ++i) idx[i] = i;
  return idx;
}

std::string ServeStorePath(const std::string& name) {
  const std::string path = ::testing::TempDir() + "serve_" + name + ".wal";
  EXPECT_TRUE(store::ObservationStore::Destroy(path).ok());
  return path;
}

// One served-vs-standalone comparison unit: a session id plus everything
// that determines its trajectory.
struct SessionSpec {
  std::string id;
  OptimizerType optimizer = OptimizerType::kVanillaBo;
  uint64_t optimizer_seed = 1;
  WorkloadId workload = WorkloadId::kSysbench;
  uint64_t simulator_seed = 1;
};

std::vector<SessionSpec> MixedSpecs() {
  return {
      {"s-bo", OptimizerType::kVanillaBo, 11, WorkloadId::kSysbench, 21},
      {"s-mixed", OptimizerType::kMixedKernelBo, 12, WorkloadId::kTpcc, 22},
      {"s-smac", OptimizerType::kSmac, 13, WorkloadId::kJob, 23},
      {"s-tpe", OptimizerType::kTpe, 14, WorkloadId::kTatp, 24},
      {"s-turbo", OptimizerType::kTurbo, 15, WorkloadId::kSysbench, 25},
      {"s-rand", OptimizerType::kRandomSearch, 16, WorkloadId::kTpcc, 26},
  };
}

// The client side of one served session: its own simulator/environment
// (the server never evaluates).
struct ClientSession {
  std::unique_ptr<DbmsSimulator> simulator;
  std::unique_ptr<TuningEnvironment> env;
};

ClientSession MakeClient(const SessionSpec& spec) {
  ClientSession client;
  client.simulator = std::make_unique<DbmsSimulator>(
      SmallTestCatalog(), spec.workload, HardwareInstance::kB,
      spec.simulator_seed);
  client.env = std::make_unique<TuningEnvironment>(
      client.simulator.get(),
      FirstKnobs(client.simulator->space().dimension()));
  return client;
}

// The ground truth: the standalone in-process loop of core/tuning_session.
std::vector<Observation> StandaloneHistory(const SessionSpec& spec,
                                           size_t iterations) {
  ClientSession client = MakeClient(spec);
  OptimizerOptions options;
  options.seed = spec.optimizer_seed;
  std::unique_ptr<Optimizer> optimizer =
      CreateOptimizer(spec.optimizer, client.env->space(), options);
  RunTuningSession(client.env.get(), optimizer.get(), iterations);
  return client.env->history();
}

ServedSessionOptions ToServedOptions(const SessionSpec& spec,
                                     const ClientSession& client) {
  ServedSessionOptions options;
  options.space_name = "small";
  options.optimizer_type = spec.optimizer;
  options.seed = spec.optimizer_seed;
  options.reference_score = client.env->default_score();
  return options;
}

// Drives every spec through the serving layer for `iterations` rounds:
// all suggests of a round batch through the scheduler, each client
// evaluates its own configuration, all observes batch back.
std::vector<std::vector<Observation>> ServedHistories(
    const std::vector<SessionSpec>& specs, size_t iterations,
    size_t batch_width, ObservationStore* store = nullptr) {
  SessionManagerOptions manager_options;
  manager_options.store = store;
  SessionManager manager(manager_options);
  std::vector<ClientSession> clients;
  clients.reserve(specs.size());
  for (const SessionSpec& spec : specs) clients.push_back(MakeClient(spec));
  manager.RegisterSpace("small", clients.front().env->space());
  for (size_t s = 0; s < specs.size(); ++s) {
    EXPECT_TRUE(
        manager.CreateSession(specs[s].id, ToServedOptions(specs[s],
                                                           clients[s]))
            .ok());
  }

  SchedulerOptions scheduler_options;
  scheduler_options.batch_width = batch_width;
  BatchScheduler scheduler(&manager, scheduler_options);

  std::vector<uint64_t> tickets(specs.size());
  for (size_t iter = 0; iter < iterations; ++iter) {
    for (size_t s = 0; s < specs.size(); ++s) {
      tickets[s] = scheduler.EnqueueSuggest(specs[s].id);
    }
    scheduler.Drain();
    std::vector<Observation> outcomes(specs.size());
    for (size_t s = 0; s < specs.size(); ++s) {
      Result<Configuration> suggested = scheduler.TakeSuggest(tickets[s]);
      EXPECT_TRUE(suggested.ok()) << suggested.status().ToString();
      outcomes[s] = clients[s].env->Evaluate(*suggested);
    }
    for (size_t s = 0; s < specs.size(); ++s) {
      tickets[s] = scheduler.EnqueueObserve(specs[s].id, outcomes[s]);
    }
    scheduler.Drain();
    for (size_t s = 0; s < specs.size(); ++s) {
      EXPECT_TRUE(scheduler.TakeObserve(tickets[s]).ok());
    }
  }

  std::vector<std::vector<Observation>> histories;
  histories.reserve(specs.size());
  for (ClientSession& client : clients) {
    histories.push_back(client.env->history());
  }
  return histories;
}

void ExpectBitwiseEqual(const std::vector<Observation>& expected,
                        const std::vector<Observation>& actual,
                        const std::string& label) {
  ASSERT_EQ(expected.size(), actual.size()) << label;
  for (size_t i = 0; i < expected.size(); ++i) {
    EXPECT_TRUE(expected[i].config == actual[i].config)
        << label << " config diverged at iteration " << (i + 1);
    EXPECT_EQ(expected[i].score, actual[i].score)
        << label << " score diverged at iteration " << (i + 1);
    EXPECT_EQ(expected[i].objective, actual[i].objective)
        << label << " objective diverged at iteration " << (i + 1);
    EXPECT_EQ(expected[i].failed, actual[i].failed)
        << label << " failed flag diverged at iteration " << (i + 1);
    EXPECT_EQ(expected[i].internal_metrics, actual[i].internal_metrics)
        << label << " metrics diverged at iteration " << (i + 1);
  }
}

// ---------------------------------------------------------------------------
// The acceptance invariant: served == standalone, bitwise, at pools
// 1/2/8 and batch widths 1/8/64.

TEST(ServeEqualityTest, ServedMatchesStandaloneAcrossPoolsAndWidths) {
  const std::vector<SessionSpec> specs = MixedSpecs();
  const size_t iterations = 14;
  std::vector<std::vector<Observation>> standalone;
  standalone.reserve(specs.size());
  for (const SessionSpec& spec : specs) {
    standalone.push_back(StandaloneHistory(spec, iterations));
  }
  for (size_t pool : {1u, 2u, 8u}) {
    PoolSizeGuard guard(pool);
    for (size_t width : {1u, 8u, 64u}) {
      const auto served = ServedHistories(specs, iterations, width);
      for (size_t s = 0; s < specs.size(); ++s) {
        ExpectBitwiseEqual(standalone[s], served[s],
                           specs[s].id + " pool=" + std::to_string(pool) +
                               " width=" + std::to_string(width));
      }
    }
  }

  // Observability stays invisible on the served path: the same sessions
  // with metrics recording and tracing on match the standalone
  // (observability-off) histories bitwise.
  const obs::ScopedMetricsForTest metrics;
  obs::SetTraceEnabled(true);
  obs::ClearTrace();
  for (size_t pool : {1u, 2u, 8u}) {
    PoolSizeGuard guard(pool);
    const auto served = ServedHistories(specs, iterations, 8);
    for (size_t s = 0; s < specs.size(); ++s) {
      ExpectBitwiseEqual(standalone[s], served[s],
                         specs[s].id + " observed pool=" +
                             std::to_string(pool));
    }
  }
  EXPECT_GT(obs::TraceEventCount(), 0u);
  const obs::Histogram* suggests =
      obs::MetricsRegistry::Get().FindHistogram("serve.suggest.latency");
  ASSERT_NE(suggests, nullptr);
  EXPECT_EQ(suggests->count(), 3 * iterations * specs.size());
  obs::SetTraceEnabled(false);
  obs::ClearTrace();
}

// ---------------------------------------------------------------------------
// Session lifecycle: protocol misuse returns Status, never aborts.

ConfigurationSpace SmallSpace() {
  DbmsSimulator sim(SmallTestCatalog(), WorkloadId::kSysbench,
                    HardwareInstance::kB, 7);
  TuningEnvironment env(&sim, FirstKnobs(sim.space().dimension()));
  return env.space();
}

ServedSessionOptions SmallOptions(uint64_t seed = 5) {
  ServedSessionOptions options;
  options.space_name = "small";
  options.optimizer_type = OptimizerType::kRandomSearch;
  options.seed = seed;
  options.reference_score = 100.0;
  return options;
}

TEST(ServeLifecycleTest, UnknownSpaceAndSessionAreNotFound) {
  SessionManager manager;
  EXPECT_EQ(manager.CreateSession("a", SmallOptions()).code(),
            StatusCode::kNotFound);
  EXPECT_EQ(manager.Suggest("a").status().code(), StatusCode::kNotFound);
  EXPECT_EQ(manager.Observe("a", Observation{}).code(),
            StatusCode::kNotFound);
  EXPECT_EQ(manager.CloseSession("a").code(), StatusCode::kNotFound);
}

TEST(ServeLifecycleTest, DoubleCreateDoubleCloseAndUseAfterCloseAreErrors) {
  SessionManager manager;
  manager.RegisterSpace("small", SmallSpace());
  ASSERT_TRUE(manager.CreateSession("a", SmallOptions()).ok());
  EXPECT_EQ(manager.CreateSession("a", SmallOptions()).code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(manager.num_open(), 1u);

  ASSERT_TRUE(manager.CloseSession("a").ok());
  EXPECT_EQ(manager.num_open(), 0u);
  EXPECT_EQ(manager.CloseSession("a").code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(manager.Suggest("a").status().code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(manager.Observe("a", Observation{}).code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(manager.CreateSession("a", SmallOptions()).code(),
            StatusCode::kFailedPrecondition);
}

// The id bound is inclusive (empty and over-long ids are among the
// rejected inputs of InvalidCreateParametersAreRejected).
TEST(ServeLifecycleTest, LongestSessionIdIsAccepted) {
  SessionManager manager;
  manager.RegisterSpace("small", SmallSpace());
  const std::string longest(serve::kMaxSessionIdBytes, 'x');
  ASSERT_TRUE(manager.CreateSession(longest, SmallOptions()).ok());
  EXPECT_TRUE(manager.Suggest(longest).ok());
}

// No suggestion is non-finite, whatever a session observed: every
// optimizer type, fed all internal metrics at 1e300 (finite, so
// accepted) and at exactly ±kStateBound (DDPG's state clamp in
// optimizer/ddpg.cc, mirrored below) for 64 iterations over the first 10
// catalog knobs. DDPG trains from iteration 33 on the clamped state, so
// its networks stay finite and the optimizer base never needs its
// uniform fallback (`optimizer.suggest.nonfinite` stays 0).
TEST(ServeLifecycleTest, HugeMetricsNeverYieldNonFiniteSuggestions) {
  constexpr double kDdpgStateBound = 1e6;
  obs::ScopedMetricsForTest metrics;
  DbmsSimulator simulator(WorkloadId::kSysbench, HardwareInstance::kB, 7);
  TuningEnvironment env(&simulator, FirstKnobs(10));
  SessionManager manager;
  manager.RegisterSpace("catalog10", env.space());
  const std::vector<std::pair<double, std::string>> metric_values = {
      {1e300, "1e300"},
      {kDdpgStateBound, "+bound"},
      {-kDdpgStateBound, "-bound"}};
  for (const auto& [metric, metric_name] : metric_values) {
    for (int type = 0; type <= static_cast<int>(OptimizerType::kRandomSearch);
         ++type) {
      ServedSessionOptions options;
      options.space_name = "catalog10";
      options.optimizer_type = static_cast<OptimizerType>(type);
      options.seed = 40 + static_cast<uint64_t>(type);
      options.reference_score = env.default_score();
      const std::string label = OptimizerTypeName(options.optimizer_type) +
                                std::string(" at ") + metric_name;
      const std::string id = "huge-" + label;
      ASSERT_TRUE(manager.CreateSession(id, options).ok()) << label;
      for (size_t iter = 1; iter <= 64; ++iter) {
        Result<Configuration> suggested = manager.Suggest(id);
        ASSERT_TRUE(suggested.ok())
            << label << " iteration " << iter << ": "
            << suggested.status().ToString();
        for (size_t k = 0; k < suggested->size(); ++k) {
          ASSERT_TRUE(std::isfinite((*suggested)[k]))
              << label << " iteration " << iter << " knob " << k;
        }
        Observation observation = env.Evaluate(*suggested);
        observation.internal_metrics.assign(kNumInternalMetrics, metric);
        const Status observed = manager.Observe(id, observation);
        ASSERT_TRUE(observed.ok())
            << label << " iteration " << iter << ": " << observed.ToString();
      }
      const obs::Counter* nonfinite = obs::MetricsRegistry::Get().FindCounter(
          "optimizer.suggest.nonfinite");
      EXPECT_EQ(nonfinite == nullptr ? 0u : nonfinite->value(), 0u) << label;
    }
  }
}

TEST(ServeLifecycleTest, SuggestObserveAlternationIsEnforced) {
  SessionManager manager;
  manager.RegisterSpace("small", SmallSpace());
  ASSERT_TRUE(manager.CreateSession("a", SmallOptions()).ok());
  // Observe before any suggest: no outstanding suggestion.
  EXPECT_EQ(manager.Observe("a", Observation{}).code(),
            StatusCode::kFailedPrecondition);
  Result<Configuration> first = manager.Suggest("a");
  ASSERT_TRUE(first.ok());
  // Second suggest before the observe.
  EXPECT_EQ(manager.Suggest("a").status().code(),
            StatusCode::kFailedPrecondition);
  // Wrong dimension is InvalidArgument, not a crash.
  Observation wrong;
  wrong.config = Configuration(std::vector<double>{1.0});
  EXPECT_EQ(manager.Observe("a", wrong).code(),
            StatusCode::kInvalidArgument);
  Observation ok_obs;
  ok_obs.config = *first;
  ok_obs.score = 1.0;
  EXPECT_TRUE(manager.Observe("a", ok_obs).ok());
  EXPECT_TRUE(manager.Suggest("a").ok());
}

TEST(ServeLifecycleTest, IdleSessionsAreEvictedUnderFakeClock) {
  obs::EnableFakeClockForTest();
  SessionManager manager;
  manager.RegisterSpace("small", SmallSpace());
  ASSERT_TRUE(manager.CreateSession("busy", SmallOptions(1)).ok());
  ASSERT_TRUE(manager.CreateSession("idle", SmallOptions(2)).ok());
  EXPECT_EQ(manager.num_resident(), 2u);

  // Give "idle" history so losing its optimizer actually loses state (a
  // zero-observation session resurrects trivially, store or not).
  {
    Result<Configuration> suggested = manager.Suggest("idle");
    ASSERT_TRUE(suggested.ok());
    Observation obs;
    obs.config = *suggested;
    obs.score = 1.0;
    ASSERT_TRUE(manager.Observe("idle", obs).ok());
  }

  // Keep "busy" warm while the fake clock marches 1ms per read; "idle"
  // is never touched again.
  for (int i = 0; i < 80; ++i) {
    Result<Configuration> suggested = manager.Suggest("busy");
    ASSERT_TRUE(suggested.ok());
    Observation obs;
    obs.config = *suggested;
    obs.score = static_cast<double>(i);
    ASSERT_TRUE(manager.Observe("busy", obs).ok());
  }
  EXPECT_EQ(manager.EvictIdle(0.05), 1u);  // 50 fake-clock ticks
  EXPECT_EQ(manager.num_resident(), 1u);
  EXPECT_EQ(manager.num_open(), 2u);  // evicted, not closed

  // Without a durable store the evicted session cannot come back.
  EXPECT_EQ(manager.Suggest("idle").status().code(),
            StatusCode::kFailedPrecondition);
  // The busy session is untouched.
  EXPECT_TRUE(manager.Suggest("busy").ok());
  obs::DisableFakeClockForTest();
}

// ---------------------------------------------------------------------------
// Store-backed resurrection: the PR 9 replay path.

// Runs `spec` through a served manager bound to `store` for
// `iterations` rounds, evicting (or closing/recreating) mid-way, and
// expects the client history to match the standalone run bitwise.
TEST(ServeStoreTest, EvictedSessionResumesBitIdentically) {
  const std::string path = ServeStorePath("evict_resume");
  auto opened = ObservationStore::Open(path);
  ASSERT_TRUE(opened.ok());
  ObservationStore* store = opened.value().get();

  const SessionSpec spec{"evictee", OptimizerType::kSmac, 31,
                         WorkloadId::kSysbench, 41};
  const size_t iterations = 12;
  const std::vector<Observation> standalone =
      StandaloneHistory(spec, iterations);

  obs::EnableFakeClockForTest();
  SessionManagerOptions manager_options;
  manager_options.store = store;
  SessionManager manager(manager_options);
  ClientSession client = MakeClient(spec);
  manager.RegisterSpace("small", client.env->space());
  ASSERT_TRUE(
      manager.CreateSession(spec.id, ToServedOptions(spec, client)).ok());

  for (size_t iter = 0; iter < iterations; ++iter) {
    Result<Configuration> suggested = manager.Suggest(spec.id);
    ASSERT_TRUE(suggested.ok()) << suggested.status().ToString();
    const Observation outcome = client.env->Evaluate(*suggested);
    // Evict while a suggestion is outstanding at iteration 5, and
    // between rounds at iteration 8: both must resume seamlessly.
    if (iter == 5) {
      EXPECT_EQ(manager.EvictIdle(1e-9), 1u);
      EXPECT_EQ(manager.num_resident(), 0u);
    }
    ASSERT_TRUE(manager.Observe(spec.id, outcome).ok());
    if (iter == 8) {
      EXPECT_EQ(manager.EvictIdle(1e-9), 1u);
    }
  }
  ExpectBitwiseEqual(standalone, client.env->history(), "evicted-resume");
  obs::DisableFakeClockForTest();
}

TEST(ServeStoreTest, EvictedThenRecreatedSessionReplaysFromStore) {
  const std::string path = ServeStorePath("recreate");
  auto opened = ObservationStore::Open(path);
  ASSERT_TRUE(opened.ok());
  ObservationStore* store = opened.value().get();

  const SessionSpec spec{"phoenix", OptimizerType::kVanillaBo, 51,
                         WorkloadId::kTpcc, 61};
  const size_t iterations = 12;
  const size_t split = 7;
  const std::vector<Observation> standalone =
      StandaloneHistory(spec, iterations);

  obs::EnableFakeClockForTest();
  SessionManagerOptions manager_options;
  manager_options.store = store;
  ClientSession client = MakeClient(spec);

  {
    SessionManager manager(manager_options);
    manager.RegisterSpace("small", client.env->space());
    ASSERT_TRUE(
        manager.CreateSession(spec.id, ToServedOptions(spec, client)).ok());
    for (size_t iter = 0; iter < split; ++iter) {
      Result<Configuration> suggested = manager.Suggest(spec.id);
      ASSERT_TRUE(suggested.ok());
      ASSERT_TRUE(
          manager.Observe(spec.id, client.env->Evaluate(*suggested)).ok());
    }
    EXPECT_EQ(manager.EvictIdle(1e-9), 1u);
    // Recreating the evicted id with the same parameters replays the
    // stored prefix into a fresh optimizer.
    size_t replayed = 0;
    ASSERT_TRUE(manager
                    .CreateSession(spec.id, ToServedOptions(spec, client),
                                   &replayed)
                    .ok());
    EXPECT_EQ(replayed, split);
    for (size_t iter = split; iter < iterations; ++iter) {
      Result<Configuration> suggested = manager.Suggest(spec.id);
      ASSERT_TRUE(suggested.ok());
      ASSERT_TRUE(
          manager.Observe(spec.id, client.env->Evaluate(*suggested)).ok());
    }
  }
  ExpectBitwiseEqual(standalone, client.env->history(),
                     "evict-recreate-resume");

  // A brand-new manager over the same store (process restart) resumes
  // the finished trajectory count too: replay consumes all 12.
  SessionManager restarted(manager_options);
  ClientSession probe = MakeClient(spec);
  restarted.RegisterSpace("small", probe.env->space());
  size_t replayed = 0;
  ASSERT_TRUE(restarted
                  .CreateSession(spec.id, ToServedOptions(spec, probe),
                                 &replayed)
                  .ok());
  EXPECT_EQ(replayed, iterations);
  obs::DisableFakeClockForTest();
}

TEST(ServeStoreTest, CloseSealsTrajectoryAsTransferTask) {
  const std::string path = ServeStorePath("seal");
  auto opened = ObservationStore::Open(path);
  ASSERT_TRUE(opened.ok());
  ObservationStore* store = opened.value().get();

  SessionManagerOptions options;
  options.store = store;
  SessionManager manager(options);
  manager.RegisterSpace("small", SmallSpace());
  ASSERT_TRUE(manager.CreateSession("sealed", SmallOptions(9)).ok());
  for (int i = 0; i < 3; ++i) {
    Result<Configuration> suggested = manager.Suggest("sealed");
    ASSERT_TRUE(suggested.ok());
    Observation obs;
    obs.config = *suggested;
    obs.score = 10.0 + i;
    ASSERT_TRUE(manager.Observe("sealed", obs).ok());
  }
  EXPECT_EQ(store->num_tasks(), 0u);
  ASSERT_TRUE(manager.CloseSession("sealed").ok());
  EXPECT_EQ(store->num_tasks(), 1u);
  // Sealed in the store too: the stored session is finished.
  const Result<store::StoredSession> stored = store->FindSession("sealed");
  ASSERT_TRUE(stored.ok()) << stored.status().ToString();
  EXPECT_TRUE(stored->finished);
}

// A checkpoint that fails inside an Observe (a torn data-log or manifest
// append, at a sweep of byte budgets) does not fail the Observe: its
// record is durable, so the client hears OK, the next iteration proceeds
// and retries the checkpoint, and a reopened store holds every
// acknowledged observation.
TEST(ServeStoreTest, FailedCheckpointNeverFailsAnObserve) {
  constexpr int kIterations = 14;
  size_t failed_checkpoints = 0;
  // The checkpoints after observations 4 and 12: the first rewrites the
  // manifest log, the second appends an edit to it.
  for (int trial = 0; trial < 160; ++trial) {
    const int tear_at = trial < 80 ? 3 : 11;
    const int64_t budget = 5 * (trial % 80);
    const std::string path = ServeStorePath("checkpoint_fault");
    std::vector<Observation> observed;
    {
      store::StoreOptions store_options;
      store_options.snapshot_every = 2;
      auto opened = ObservationStore::Open(path, store_options);
      ASSERT_TRUE(opened.ok());
      ObservationStore* store = opened.value().get();
      SessionManagerOptions options;
      options.store = store;
      SessionManager manager(options);
      manager.RegisterSpace("small", SmallSpace());
      ASSERT_TRUE(manager.CreateSession("s", SmallOptions(9)).ok());
      for (int i = 0; i < kIterations; ++i) {
        Result<Configuration> suggested = manager.Suggest("s");
        ASSERT_TRUE(suggested.ok()) << suggested.status().ToString();
        Observation obs;
        obs.config = *suggested;
        obs.score = 10.0 + i;
        if (i == tear_at) {
          // The WAL holds its header and the previous record: let this
          // record through too, then tear the checkpoint it triggers.
          const int64_t record = static_cast<int64_t>(
              std::filesystem::file_size(path) - sizeof(store::kWalMagic));
          store::testing::SetWalWriteFaultForTest(record + budget);
        }
        const Status observed_status = manager.Observe("s", obs);
        store::testing::SetWalWriteFaultForTest(-1);
        ASSERT_TRUE(observed_status.ok())
            << "budget " << budget << ": " << observed_status.ToString();
        observed.push_back(obs);
      }
      EXPECT_LE(store->stats().checkpoint_failures, 1u);
      failed_checkpoints += store->stats().checkpoint_failures;
    }
    auto reopened = ObservationStore::Open(path);
    ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
    const Result<store::StoredSession> stored = (*reopened)->FindSession("s");
    ASSERT_TRUE(stored.ok()) << stored.status().ToString();
    ExpectBitwiseEqual(observed, stored->observations,
                       "budget " + std::to_string(budget));
  }
  EXPECT_GT(failed_checkpoints, 10u);
}

// A closed session leaves memory at the next checkpoint: the store moves
// it to its data log, it still reads back sealed with every observation
// and its transfer task, and after a restart its id starts over empty.
TEST(ServeStoreTest, ClosedSessionMovesToSealedLogAndItsIdStartsOver) {
  const std::string path = ServeStorePath("seal_checkpoint");
  std::vector<Observation> observed;
  {
    auto opened = ObservationStore::Open(path);
    ASSERT_TRUE(opened.ok());
    ObservationStore* store = opened.value().get();
    SessionManagerOptions options;
    options.store = store;
    SessionManager manager(options);
    manager.RegisterSpace("small", SmallSpace());
    ASSERT_TRUE(manager.CreateSession("sealed", SmallOptions(9)).ok());
    for (int i = 0; i < 3; ++i) {
      Result<Configuration> suggested = manager.Suggest("sealed");
      ASSERT_TRUE(suggested.ok());
      Observation obs;
      obs.config = *suggested;
      obs.score = 10.0 + i;
      ASSERT_TRUE(manager.Observe("sealed", obs).ok());
      observed.push_back(obs);
    }
    ASSERT_TRUE(manager.CloseSession("sealed").ok());
    ASSERT_TRUE(store->Checkpoint().ok());
    EXPECT_EQ(store->stats().sealed_sessions, 1u);
    EXPECT_EQ(store->num_tasks(), 1u);
    const Result<store::StoredSession> stored = store->FindSession("sealed");
    ASSERT_TRUE(stored.ok()) << stored.status().ToString();
    EXPECT_TRUE(stored->finished);
    ExpectBitwiseEqual(observed, stored->observations, "sealed");
    // The tombstone answers as before the checkpoint.
    EXPECT_EQ(manager.CloseSession("sealed").code(),
              StatusCode::kFailedPrecondition);
    EXPECT_EQ(manager.Suggest("sealed").status().code(),
              StatusCode::kFailedPrecondition);
  }
  auto reopened = ObservationStore::Open(path);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  ObservationStore* store = reopened.value().get();
  ObservationRepository tasks;
  ASSERT_TRUE(store->ExportTasks(&tasks).ok());
  ASSERT_EQ(tasks.size(), 1u);
  EXPECT_EQ(tasks.tasks()[0].name, "sealed");
  SessionManagerOptions options;
  options.store = store;
  SessionManager restarted(options);
  restarted.RegisterSpace("small", SmallSpace());
  size_t replayed = 1;
  ASSERT_TRUE(
      restarted.CreateSession("sealed", SmallOptions(9), &replayed).ok());
  EXPECT_EQ(replayed, 0u);
  EXPECT_TRUE(restarted.Suggest("sealed").ok());
  EXPECT_EQ(store->stats().sealed_sessions, 0u);
  const std::vector<store::StoredSessionInfo> sessions = store->ListSessions();
  ASSERT_EQ(sessions.size(), 1u);
  EXPECT_FALSE(sessions[0].finished);
  EXPECT_EQ(sessions[0].observations, 0u);
}

// Records `recorded` observations of `spec` under `before` through a
// store-backed manager, restarts the manager over the same store,
// re-creates the id under `after`, and tunes it to `iterations`. The
// client re-applies the prefix the store kept, so its history must match
// a fresh standalone run under `after` bitwise — as must the reopened
// store.
void ResumeUnderOtherOptions(const std::string& name, const SessionSpec& spec,
                             const OptimizerOptions& before,
                             const OptimizerOptions& after, size_t recorded,
                             size_t iterations, size_t* replayed) {
  ClientSession fresh_client = MakeClient(spec);
  std::unique_ptr<Optimizer> fresh_optimizer =
      CreateOptimizer(spec.optimizer, fresh_client.env->space(), after);
  RunTuningSession(fresh_client.env.get(), fresh_optimizer.get(), iterations);
  const std::vector<Observation> fresh = fresh_client.env->history();
  const std::string path = ServeStorePath(name);

  // First process: record under `before`.
  {
    auto opened = ObservationStore::Open(path);
    ASSERT_TRUE(opened.ok());
    SessionManagerOptions manager_options;
    manager_options.store = opened.value().get();
    SessionManager manager(manager_options);
    ClientSession client = MakeClient(spec);
    manager.RegisterSpace("small", client.env->space());
    ServedSessionOptions options = ToServedOptions(spec, client);
    static_cast<OptimizerOptions&>(options) = before;
    ASSERT_TRUE(manager.CreateSession(spec.id, options).ok());
    for (size_t iter = 0; iter < recorded; ++iter) {
      Result<Configuration> suggested = manager.Suggest(spec.id);
      ASSERT_TRUE(suggested.ok());
      ASSERT_TRUE(
          manager.Observe(spec.id, client.env->Evaluate(*suggested)).ok());
    }
  }

  // Restarted process: re-create the id under `after`.
  ClientSession client = MakeClient(spec);
  {
    auto opened = ObservationStore::Open(path);
    ASSERT_TRUE(opened.ok());
    ObservationStore* store = opened.value().get();
    SessionManagerOptions manager_options;
    manager_options.store = store;
    SessionManager manager(manager_options);
    manager.RegisterSpace("small", client.env->space());
    ServedSessionOptions options = ToServedOptions(spec, client);
    static_cast<OptimizerOptions&>(options) = after;
    const Status created = manager.CreateSession(spec.id, options, replayed);
    ASSERT_TRUE(created.ok()) << created.ToString();

    // The client re-applies the surviving prefix, then tunes live.
    const Result<store::StoredSession> stored = store->FindSession(spec.id);
    ASSERT_TRUE(stored.ok()) << stored.status().ToString();
    ASSERT_EQ(stored->observations.size(), *replayed);
    const std::vector<Observation> prefix = stored->observations;
    for (const Observation& observation : prefix) {
      client.env->Replay(observation);
    }
    for (size_t iter = *replayed; iter < iterations; ++iter) {
      Result<Configuration> suggested = manager.Suggest(spec.id);
      ASSERT_TRUE(suggested.ok()) << suggested.status().ToString();
      ASSERT_TRUE(
          manager.Observe(spec.id, client.env->Evaluate(*suggested)).ok());
    }
  }
  ExpectBitwiseEqual(fresh, client.env->history(), name + " client");

  // The store now holds the new trajectory, iteration-complete.
  auto reopened = ObservationStore::Open(path);
  ASSERT_TRUE(reopened.ok());
  const Result<store::StoredSession> session =
      (*reopened)->FindSession(spec.id);
  ASSERT_TRUE(session.ok()) << session.status().ToString();
  ExpectBitwiseEqual(fresh, session->observations, name + " store");
}

// A re-created session whose stored history was recorded under another
// seed follows the standalone loop's divergence policy: the stale suffix
// is truncated durably and the session continues live.
TEST(ServeStoreTest, DivergentHistoryTruncatesAndContinuesLive) {
  const SessionSpec spec{"drift", OptimizerType::kSmac, 11,
                         WorkloadId::kSysbench, 21};
  OptimizerOptions seed_a;
  seed_a.seed = 11;
  OptimizerOptions seed_b;
  seed_b.seed = 13;
  size_t replayed = 0;
  ResumeUnderOtherOptions("diverge", spec, seed_a, seed_b, 5, 8, &replayed);
  EXPECT_LT(replayed, 5u);
}

// Same seed, smaller acquisition pool: the Latin Hypercube initial design
// still matches, so the re-created session keeps exactly that prefix and
// diverges at the first model-based suggestion.
TEST(ServeStoreTest, DivergenceAfterSharedPrefixKeepsThePrefix) {
  const SessionSpec spec{"fork", OptimizerType::kVanillaBo, 17,
                         WorkloadId::kTpcc, 27};
  OptimizerOptions before;
  before.seed = 17;
  OptimizerOptions after = before;
  after.acquisition_candidates = 120;
  size_t replayed = 0;
  ResumeUnderOtherOptions("fork", spec, before, after, 13, 15, &replayed);
  EXPECT_EQ(replayed, before.initial_design);
}

// ---------------------------------------------------------------------------
// Protocol framing.

TEST(ServeProtocolTest, FramesRoundTripThroughDribbledReader) {
  serve::CreateSessionRequest create;
  create.session_id = "sess-1";
  create.space_name = "small";
  create.optimizer_type = static_cast<uint8_t>(OptimizerType::kSmac);
  create.seed = 77;
  create.reference_score = 123.456;
  create.initial_design = 8;
  create.acquisition_candidates = 120;
  serve::ObserveRequest observe;
  observe.session_id = "sess-1";
  observe.config = {1.0, -2.5, 3e17};
  observe.score = 9.25;
  observe.objective = -9.25;
  observe.failed = 1;
  observe.internal_metrics = {0.5, 0.25};

  const std::string wire = serve::EncodeCreateSession(1, create) +
                           serve::EncodeSuggest(2, {"sess-1"}) +
                           serve::EncodeObserve(3, observe) +
                           serve::EncodeCloseSession(4, {"sess-1"});

  // Feed the reader one byte at a time: frames must assemble across
  // arbitrarily fragmented reads.
  serve::FrameReader reader;
  std::vector<serve::Frame> frames;
  for (char byte : wire) {
    reader.Append(std::string_view(&byte, 1));
    serve::Frame frame;
    Result<bool> got = reader.Next(&frame);
    ASSERT_TRUE(got.ok());
    if (*got) frames.push_back(frame);
  }
  ASSERT_EQ(frames.size(), 4u);
  EXPECT_EQ(reader.pending_bytes(), 0u);

  Result<serve::CreateSessionRequest> create2 =
      serve::DecodeCreateSession(frames[0]);
  ASSERT_TRUE(create2.ok());
  EXPECT_EQ(frames[0].request_id, 1u);
  EXPECT_EQ(create2->session_id, "sess-1");
  EXPECT_EQ(create2->space_name, "small");
  EXPECT_EQ(create2->optimizer_type,
            static_cast<uint8_t>(OptimizerType::kSmac));
  EXPECT_EQ(create2->seed, 77u);
  EXPECT_EQ(create2->reference_score, 123.456);
  EXPECT_EQ(create2->initial_design, 8u);
  EXPECT_EQ(create2->acquisition_candidates, 120u);

  Result<serve::SuggestRequest> suggest2 = serve::DecodeSuggest(frames[1]);
  ASSERT_TRUE(suggest2.ok());
  EXPECT_EQ(suggest2->session_id, "sess-1");

  Result<serve::ObserveRequest> observe2 = serve::DecodeObserve(frames[2]);
  ASSERT_TRUE(observe2.ok());
  EXPECT_EQ(observe2->config, observe.config);  // bitwise doubles
  EXPECT_EQ(observe2->score, observe.score);
  EXPECT_EQ(observe2->failed, 1);
  EXPECT_EQ(observe2->internal_metrics, observe.internal_metrics);

  Result<serve::CloseSessionRequest> close2 =
      serve::DecodeCloseSession(frames[3]);
  ASSERT_TRUE(close2.ok());
  EXPECT_EQ(close2->session_id, "sess-1");
}

TEST(ServeProtocolTest, MalformedFramesAreRejected) {
  // Oversized length prefix.
  std::string oversized;
  const uint32_t huge = serve::kMaxPayloadBytes + 1;
  for (size_t i = 0; i < 4; ++i) {
    oversized.push_back(static_cast<char>((huge >> (8 * i)) & 0xFF));
  }
  serve::Frame frame;
  EXPECT_FALSE(serve::DecodeFrame(oversized, &frame).ok());

  // Payload shorter than type tag + request id.
  std::string runt;
  for (size_t i = 0; i < 4; ++i) {
    runt.push_back(static_cast<char>(i == 0 ? 4 : 0));
  }
  runt += std::string(4, '\0');
  EXPECT_FALSE(serve::DecodeFrame(runt, &frame).ok());

  // Trailing garbage after a valid body is an error, not ignored.
  serve::Frame padded;
  padded.type = serve::MessageType::kSuggest;
  padded.request_id = 9;
  store::WalEncoder enc;
  enc.PutString("sess");
  padded.body = enc.bytes() + "extra";
  EXPECT_FALSE(serve::DecodeSuggest(padded).ok());

  // Type confusion is an error too.
  serve::Frame suggest;
  suggest.type = serve::MessageType::kSuggest;
  suggest.request_id = 1;
  store::WalEncoder enc2;
  enc2.PutString("sess");
  suggest.body = enc2.bytes();
  EXPECT_FALSE(serve::DecodeObserve(suggest).ok());
  EXPECT_TRUE(serve::DecodeSuggest(suggest).ok());
}

TEST(ServeProtocolTest, StatusHeaderRoundTrips) {
  const Status failed = Status::FailedPrecondition("closed");
  const Status decoded =
      serve::StatusFromHeader(serve::HeaderFromStatus(failed));
  EXPECT_EQ(decoded.code(), StatusCode::kFailedPrecondition);
  EXPECT_EQ(decoded.message(), "closed");
  EXPECT_TRUE(
      serve::StatusFromHeader(serve::HeaderFromStatus(Status::OK())).ok());
}

// ---------------------------------------------------------------------------
// Frame server over the loopback transport: the full wire path drives a
// session to the same trajectory as the standalone loop.

TEST(ServeFrameServerTest, LoopbackSessionMatchesStandalone) {
  const SessionSpec spec{"wire", OptimizerType::kTpe, 71, WorkloadId::kTatp,
                         81};
  const size_t iterations = 8;
  const std::vector<Observation> standalone =
      StandaloneHistory(spec, iterations);

  SessionManager manager;
  ClientSession client = MakeClient(spec);
  manager.RegisterSpace("small", client.env->space());
  BatchScheduler scheduler(&manager, {});
  FrameServer server(&manager, &scheduler);
  LoopbackTransport transport;
  serve::FrameReader client_reader;
  uint64_t next_request = 1;

  auto exchange = [&](const std::string& bytes) {
    transport.SendToServer(bytes);
    EXPECT_TRUE(server.ServeBuffered(&transport).ok());
    client_reader.Append(transport.DrainClientInbox());
    std::vector<serve::Frame> replies;
    serve::Frame frame;
    while (true) {
      Result<bool> got = client_reader.Next(&frame);
      EXPECT_TRUE(got.ok());
      if (!got.ok() || !*got) break;
      replies.push_back(frame);
    }
    return replies;
  };

  serve::CreateSessionRequest create;
  create.session_id = spec.id;
  create.space_name = "small";
  create.optimizer_type = static_cast<uint8_t>(spec.optimizer);
  create.seed = spec.optimizer_seed;
  create.reference_score = client.env->default_score();
  auto replies =
      exchange(serve::EncodeCreateSession(next_request++, create));
  ASSERT_EQ(replies.size(), 1u);
  Result<serve::CreateSessionResponse> created =
      serve::DecodeCreateSessionResponse(replies[0]);
  ASSERT_TRUE(created.ok());
  EXPECT_TRUE(serve::StatusFromHeader(created->header).ok());

  for (size_t iter = 0; iter < iterations; ++iter) {
    replies = exchange(serve::EncodeSuggest(next_request++, {spec.id}));
    ASSERT_EQ(replies.size(), 1u);
    Result<serve::SuggestResponse> suggested =
        serve::DecodeSuggestResponse(replies[0]);
    ASSERT_TRUE(suggested.ok());
    ASSERT_TRUE(serve::StatusFromHeader(suggested->header).ok());
    const Observation outcome =
        client.env->Evaluate(Configuration(suggested->config));
    serve::ObserveRequest observe;
    observe.session_id = spec.id;
    observe.config = outcome.config.values();
    observe.score = outcome.score;
    observe.objective = outcome.objective;
    observe.failed = outcome.failed ? 1 : 0;
    observe.internal_metrics = outcome.internal_metrics;
    replies = exchange(serve::EncodeObserve(next_request++, observe));
    ASSERT_EQ(replies.size(), 1u);
    Result<serve::ObserveResponse> observed =
        serve::DecodeObserveResponse(replies[0]);
    ASSERT_TRUE(observed.ok());
    EXPECT_TRUE(serve::StatusFromHeader(observed->header).ok());
  }
  ExpectBitwiseEqual(standalone, client.env->history(), "loopback");

  // Close, then a suggest for the closed session comes back as a
  // FailedPrecondition response frame — the server never aborts.
  replies = exchange(serve::EncodeCloseSession(next_request++, {spec.id}));
  ASSERT_EQ(replies.size(), 1u);
  Result<serve::CloseSessionResponse> closed =
      serve::DecodeCloseSessionResponse(replies[0]);
  ASSERT_TRUE(closed.ok());
  EXPECT_TRUE(serve::StatusFromHeader(closed->header).ok());
  replies = exchange(serve::EncodeSuggest(next_request++, {spec.id}));
  ASSERT_EQ(replies.size(), 1u);
  Result<serve::SuggestResponse> rejected =
      serve::DecodeSuggestResponse(replies[0]);
  ASSERT_TRUE(rejected.ok());
  EXPECT_EQ(serve::StatusFromHeader(rejected->header).code(),
            StatusCode::kFailedPrecondition);
}

// Creation parameters a client can put on the wire that would abort the
// server — an optimizer type past the enum, an empty or oversized
// acquisition candidate pool, an initial design past the limit (a u32 of
// 4e9 would reach LatinHypercubeSample on a pool worker), a non-finite
// reference score, a space name past kMaxSpaceNameBytes — come back as
// InvalidArgument, for frames and for in-process callers alike. So do a
// suggest, an observe and a close naming a 1 MiB session id. No such
// reply echoes the oversized string: each is under 1 KiB. A control
// session suggesting in the same batch keeps the standalone trajectory,
// well past the initial design.
TEST(ServeFrameServerTest, InvalidCreateParametersAreRejected) {
  const SessionSpec spec{"control", OptimizerType::kVanillaBo, 91,
                         WorkloadId::kSysbench, 92};
  const size_t iterations = 13;
  const std::vector<Observation> standalone =
      StandaloneHistory(spec, iterations);

  SessionManager manager;
  ClientSession client = MakeClient(spec);
  manager.RegisterSpace("small", client.env->space());
  BatchScheduler scheduler(&manager, {});
  FrameServer server(&manager, &scheduler);
  LoopbackTransport transport;
  serve::FrameReader client_reader;
  uint64_t next_request = 1;

  auto exchange = [&](const std::string& bytes) {
    transport.SendToServer(bytes);
    EXPECT_TRUE(server.ServeBuffered(&transport).ok());
    client_reader.Append(transport.DrainClientInbox());
    std::vector<serve::Frame> replies;
    serve::Frame frame;
    while (true) {
      Result<bool> got = client_reader.Next(&frame);
      EXPECT_TRUE(got.ok());
      if (!got.ok() || !*got) break;
      replies.push_back(frame);
    }
    return replies;
  };
  auto create_request = [&](const std::string& id) {
    serve::CreateSessionRequest create;
    create.session_id = id;
    create.space_name = "small";
    create.optimizer_type = static_cast<uint8_t>(spec.optimizer);
    create.seed = spec.optimizer_seed;
    create.reference_score = client.env->default_score();
    return create;
  };
  auto created_status = [](const serve::Frame& frame) {
    Result<serve::CreateSessionResponse> created =
        serve::DecodeCreateSessionResponse(frame);
    EXPECT_TRUE(created.ok());
    return created.ok() ? serve::StatusFromHeader(created->header)
                        : created.status();
  };

  auto replies =
      exchange(serve::EncodeCreateSession(next_request++,
                                          create_request(spec.id)));
  ASSERT_EQ(replies.size(), 1u);
  EXPECT_TRUE(created_status(replies[0]).ok());

  serve::CreateSessionRequest bad_type = create_request("bad-type");
  bad_type.optimizer_type = 8;
  serve::CreateSessionRequest worst_type = create_request("worst-type");
  worst_type.optimizer_type = 255;
  serve::CreateSessionRequest no_pool = create_request("no-pool");
  no_pool.acquisition_candidates = 0;
  serve::CreateSessionRequest huge_design = create_request("huge-design");
  huge_design.initial_design = 4000000000u;
  serve::CreateSessionRequest over_design = create_request("over-design");
  over_design.initial_design = serve::kMaxInitialDesign + 1;
  serve::CreateSessionRequest huge_pool = create_request("huge-pool");
  huge_pool.acquisition_candidates = UINT32_MAX;
  serve::CreateSessionRequest over_pool = create_request("over-pool");
  over_pool.acquisition_candidates = serve::kMaxAcquisitionCandidates + 1;
  serve::CreateSessionRequest nan_reference = create_request("nan-ref");
  nan_reference.reference_score = std::nan("");
  serve::CreateSessionRequest inf_reference = create_request("inf-ref");
  inf_reference.reference_score = -HUGE_VAL;
  const serve::CreateSessionRequest empty_id = create_request("");
  const serve::CreateSessionRequest long_id =
      create_request(std::string(serve::kMaxSessionIdBytes + 1, 'x'));
  const std::string huge(size_t{1} << 20, 'x');
  serve::CreateSessionRequest long_space = create_request("long-space");
  long_space.space_name = std::string(serve::kMaxSpaceNameBytes + 1, 's');
  serve::CreateSessionRequest huge_space = create_request("huge-space");
  huge_space.space_name = huge;
  const std::vector<serve::CreateSessionRequest> bad_creates = {
      bad_type,      worst_type, no_pool,    huge_design,
      over_design,   huge_pool,  over_pool,  nan_reference,
      inf_reference, empty_id,   long_id,    long_space,
      huge_space};
  constexpr size_t kMaxReplyBytes = 1024;

  for (size_t iter = 0; iter < iterations; ++iter) {
    // At iteration 5 every bad create, and a suggest for a session one of
    // them failed to open, share the control's suggest batch.
    std::string batch;
    std::vector<uint64_t> bad_ids;
    uint64_t orphan_id = 0;
    uint64_t huge_suggest_id = 0;
    uint64_t huge_observe_id = 0;
    uint64_t huge_close_id = 0;
    if (iter == 5) {
      for (const serve::CreateSessionRequest& bad : bad_creates) {
        bad_ids.push_back(next_request);
        batch += serve::EncodeCreateSession(next_request++, bad);
      }
      orphan_id = next_request;
      batch += serve::EncodeSuggest(next_request++, {"no-pool"});
      huge_suggest_id = next_request;
      batch += serve::EncodeSuggest(next_request++, {huge});
      huge_observe_id = next_request;
      serve::ObserveRequest huge_observe;
      huge_observe.session_id = huge;
      batch += serve::EncodeObserve(next_request++, huge_observe);
      huge_close_id = next_request;
      batch += serve::EncodeCloseSession(next_request++, {huge});
    }
    const uint64_t suggest_id = next_request;
    batch += serve::EncodeSuggest(next_request++, {spec.id});
    replies = exchange(batch);
    ASSERT_EQ(replies.size(), bad_ids.size() + (iter == 5 ? 5 : 1));
    std::map<uint64_t, serve::Frame> by_id;
    for (const serve::Frame& reply : replies) by_id[reply.request_id] = reply;
    for (const uint64_t id : bad_ids) {
      ASSERT_EQ(by_id.count(id), 1u);
      EXPECT_EQ(created_status(by_id[id]).code(),
                StatusCode::kInvalidArgument)
          << "request " << id;
      EXPECT_LT(serve::EncodeFrame(by_id[id]).size(), kMaxReplyBytes)
          << "request " << id;
    }
    if (iter == 5) {
      ASSERT_EQ(by_id.count(huge_suggest_id), 1u);
      ASSERT_EQ(by_id.count(huge_observe_id), 1u);
      ASSERT_EQ(by_id.count(huge_close_id), 1u);
      Result<serve::SuggestResponse> huge_suggested =
          serve::DecodeSuggestResponse(by_id[huge_suggest_id]);
      Result<serve::ObserveResponse> huge_observed =
          serve::DecodeObserveResponse(by_id[huge_observe_id]);
      Result<serve::CloseSessionResponse> huge_closed =
          serve::DecodeCloseSessionResponse(by_id[huge_close_id]);
      ASSERT_TRUE(huge_suggested.ok());
      ASSERT_TRUE(huge_observed.ok());
      ASSERT_TRUE(huge_closed.ok());
      EXPECT_EQ(serve::StatusFromHeader(huge_suggested->header).code(),
                StatusCode::kInvalidArgument);
      EXPECT_EQ(serve::StatusFromHeader(huge_observed->header).code(),
                StatusCode::kInvalidArgument);
      EXPECT_EQ(serve::StatusFromHeader(huge_closed->header).code(),
                StatusCode::kInvalidArgument);
      for (const uint64_t id : {huge_suggest_id, huge_observe_id,
                                huge_close_id}) {
        EXPECT_LT(serve::EncodeFrame(by_id[id]).size(), kMaxReplyBytes)
            << "request " << id;
      }

      ASSERT_EQ(by_id.count(orphan_id), 1u);
      Result<serve::SuggestResponse> unknown =
          serve::DecodeSuggestResponse(by_id[orphan_id]);
      ASSERT_TRUE(unknown.ok());
      EXPECT_EQ(serve::StatusFromHeader(unknown->header).code(),
                StatusCode::kNotFound);
    }
    ASSERT_EQ(by_id.count(suggest_id), 1u);
    Result<serve::SuggestResponse> suggested =
        serve::DecodeSuggestResponse(by_id[suggest_id]);
    ASSERT_TRUE(suggested.ok());
    ASSERT_TRUE(serve::StatusFromHeader(suggested->header).ok());
    const Observation outcome =
        client.env->Evaluate(Configuration(suggested->config));
    serve::ObserveRequest observe;
    observe.session_id = spec.id;
    observe.config = outcome.config.values();
    observe.score = outcome.score;
    observe.objective = outcome.objective;
    observe.failed = outcome.failed ? 1 : 0;
    observe.internal_metrics = outcome.internal_metrics;
    replies = exchange(serve::EncodeObserve(next_request++, observe));
    ASSERT_EQ(replies.size(), 1u);
    Result<serve::ObserveResponse> observed =
        serve::DecodeObserveResponse(replies[0]);
    ASSERT_TRUE(observed.ok());
    EXPECT_TRUE(serve::StatusFromHeader(observed->header).ok());
  }
  ExpectBitwiseEqual(standalone, client.env->history(), "control");

  // In-process callers get the same validation.
  ServedSessionOptions options = ToServedOptions(spec, client);
  options.acquisition_candidates = 0;
  EXPECT_EQ(manager.CreateSession("direct", options).code(),
            StatusCode::kInvalidArgument);
  options = ToServedOptions(spec, client);
  options.optimizer_type = static_cast<OptimizerType>(8);
  EXPECT_EQ(manager.CreateSession("direct", options).code(),
            StatusCode::kInvalidArgument);
  options = ToServedOptions(spec, client);
  options.initial_design = size_t{1} << 40;
  EXPECT_EQ(manager.CreateSession("direct", options).code(),
            StatusCode::kInvalidArgument);
  options = ToServedOptions(spec, client);
  options.acquisition_candidates = serve::kMaxAcquisitionCandidates + 1;
  EXPECT_EQ(manager.CreateSession("direct", options).code(),
            StatusCode::kInvalidArgument);
  options = ToServedOptions(spec, client);
  options.reference_score = HUGE_VAL;
  EXPECT_EQ(manager.CreateSession("direct", options).code(),
            StatusCode::kInvalidArgument);
  options = ToServedOptions(spec, client);
  options.space_name = long_space.space_name;
  EXPECT_EQ(manager.CreateSession("direct", options).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(manager.Suggest(huge).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(manager.Observe(huge, Observation{}).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(manager.CloseSession(huge).code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(manager.num_open(), 1u);
  // The limits themselves are accepted.
  const std::string longest_space(serve::kMaxSpaceNameBytes, 's');
  manager.RegisterSpace(longest_space, client.env->space());
  options = ToServedOptions(spec, client);
  options.space_name = longest_space;
  options.initial_design = serve::kMaxInitialDesign;
  options.acquisition_candidates = serve::kMaxAcquisitionCandidates;
  EXPECT_TRUE(manager.CreateSession("at-limits", options).ok());
  EXPECT_EQ(manager.num_open(), 2u);
}

// Observe frames carrying a NaN or infinite score, objective,
// configuration value or internal metric come back as InvalidArgument
// error frames before anything reaches the store or the optimizer: the
// session then accepts the valid observe (the store's exactly-next
// iteration check would refuse it after a stored bad one), and both it
// and a control session driven alongside stay bitwise equal to the
// standalone loop, well past SMAC's initial design.
TEST(ServeFrameServerTest, NonFiniteObservationsAreRejected) {
  const SessionSpec specs[2] = {
      {"probed", OptimizerType::kSmac, 93, WorkloadId::kSysbench, 94},
      {"control", OptimizerType::kVanillaBo, 95, WorkloadId::kTpcc, 96}};
  const size_t iterations = 13;
  const double kNan = std::numeric_limits<double>::quiet_NaN();
  const double kInf = std::numeric_limits<double>::infinity();

  const std::string path = ServeStorePath("non_finite");
  auto opened = ObservationStore::Open(path);
  ASSERT_TRUE(opened.ok());
  SessionManagerOptions manager_options;
  manager_options.store = opened.value().get();
  SessionManager manager(manager_options);
  ClientSession clients[2] = {MakeClient(specs[0]), MakeClient(specs[1])};
  manager.RegisterSpace("small", clients[0].env->space());
  BatchScheduler scheduler(&manager, {});
  FrameServer server(&manager, &scheduler);
  LoopbackTransport transport;
  serve::FrameReader client_reader;
  uint64_t next_request = 1;

  auto exchange = [&](const std::string& bytes) {
    transport.SendToServer(bytes);
    EXPECT_TRUE(server.ServeBuffered(&transport).ok());
    client_reader.Append(transport.DrainClientInbox());
    std::vector<serve::Frame> replies;
    serve::Frame frame;
    while (true) {
      Result<bool> got = client_reader.Next(&frame);
      EXPECT_TRUE(got.ok());
      if (!got.ok() || !*got) break;
      replies.push_back(frame);
    }
    return replies;
  };
  auto observed_status = [](const serve::Frame& frame) {
    Result<serve::ObserveResponse> observed =
        serve::DecodeObserveResponse(frame);
    EXPECT_TRUE(observed.ok());
    return observed.ok() ? serve::StatusFromHeader(observed->header)
                         : observed.status();
  };

  for (size_t s = 0; s < 2; ++s) {
    serve::CreateSessionRequest create;
    create.session_id = specs[s].id;
    create.space_name = "small";
    create.optimizer_type = static_cast<uint8_t>(specs[s].optimizer);
    create.seed = specs[s].optimizer_seed;
    create.reference_score = clients[s].env->default_score();
    const auto replies =
        exchange(serve::EncodeCreateSession(next_request++, create));
    ASSERT_EQ(replies.size(), 1u);
    Result<serve::CreateSessionResponse> created =
        serve::DecodeCreateSessionResponse(replies[0]);
    ASSERT_TRUE(created.ok());
    ASSERT_TRUE(serve::StatusFromHeader(created->header).ok());
  }

  for (size_t iter = 0; iter < iterations; ++iter) {
    serve::ObserveRequest observes[2];
    for (size_t s = 0; s < 2; ++s) {
      const auto replies =
          exchange(serve::EncodeSuggest(next_request++, {specs[s].id}));
      ASSERT_EQ(replies.size(), 1u);
      Result<serve::SuggestResponse> suggested =
          serve::DecodeSuggestResponse(replies[0]);
      ASSERT_TRUE(suggested.ok());
      ASSERT_TRUE(serve::StatusFromHeader(suggested->header).ok());
      const Observation outcome =
          clients[s].env->Evaluate(Configuration(suggested->config));
      observes[s].session_id = specs[s].id;
      observes[s].config = outcome.config.values();
      observes[s].score = outcome.score;
      observes[s].objective = outcome.objective;
      observes[s].failed = outcome.failed ? 1 : 0;
      observes[s].internal_metrics = outcome.internal_metrics;
    }
    if (iter == 4 || iter == 11) {
      std::vector<serve::ObserveRequest> bad(8, observes[0]);
      bad[0].score = kNan;
      bad[1].score = kInf;
      bad[2].score = -kInf;
      bad[3].objective = kNan;
      bad[4].config[1] = kNan;
      bad[5].internal_metrics.assign(
          std::max<size_t>(1, bad[5].internal_metrics.size()), kInf);
      // Finite but outside the knob's domain.
      bad[6].config[0] = 1e300;
      bad[7].config[1] = -1e300;
      std::string batch;
      for (const serve::ObserveRequest& request : bad) {
        batch += serve::EncodeObserve(next_request++, request);
      }
      const auto replies = exchange(batch);
      ASSERT_EQ(replies.size(), bad.size());
      for (const serve::Frame& reply : replies) {
        EXPECT_EQ(observed_status(reply).code(),
                  StatusCode::kInvalidArgument);
      }
    }
    std::string batch = serve::EncodeObserve(next_request++, observes[0]);
    batch += serve::EncodeObserve(next_request++, observes[1]);
    const auto replies = exchange(batch);
    ASSERT_EQ(replies.size(), 2u);
    for (const serve::Frame& reply : replies) {
      EXPECT_TRUE(observed_status(reply).ok());
    }
  }
  for (size_t s = 0; s < 2; ++s) {
    ExpectBitwiseEqual(StandaloneHistory(specs[s], iterations),
                       clients[s].env->history(), specs[s].id);
    const Result<store::StoredSession> stored =
        opened.value()->FindSession(specs[s].id);
    ASSERT_TRUE(stored.ok()) << stored.status().ToString();
    EXPECT_EQ(stored->observations.size(), iterations);
  }
}

// Session churn through the wire: 200 short sessions are created, driven
// and closed alongside one long-lived control session. The scheduler
// drops each session's queue once it drains, so afterwards it holds none,
// and the control session still matches the standalone loop bitwise.
TEST(ServeFrameServerTest, ChurnedSessionsLeaveNoSchedulerQueues) {
  const SessionSpec spec{"control", OptimizerType::kVanillaBo, 41,
                         WorkloadId::kSysbench, 42};
  constexpr size_t kRounds = 10;
  constexpr size_t kChurnPerRound = 20;
  const std::vector<Observation> standalone = StandaloneHistory(spec, kRounds);

  SessionManager manager;
  ClientSession client = MakeClient(spec);
  ClientSession churn_client =
      MakeClient({"churn", OptimizerType::kRandomSearch, 1,
                  WorkloadId::kTpcc, 43});
  manager.RegisterSpace("small", client.env->space());
  BatchScheduler scheduler(&manager, {});
  FrameServer server(&manager, &scheduler);
  LoopbackTransport transport;
  serve::FrameReader client_reader;
  uint64_t next_request = 1;

  auto exchange = [&](const std::string& bytes) {
    transport.SendToServer(bytes);
    EXPECT_TRUE(server.ServeBuffered(&transport).ok());
    client_reader.Append(transport.DrainClientInbox());
    std::vector<serve::Frame> replies;
    serve::Frame frame;
    while (true) {
      Result<bool> got = client_reader.Next(&frame);
      EXPECT_TRUE(got.ok());
      if (!got.ok() || !*got) break;
      replies.push_back(frame);
    }
    return replies;
  };
  auto create_request = [&](const std::string& id, OptimizerType type,
                            uint64_t seed) {
    serve::CreateSessionRequest create;
    create.session_id = id;
    create.space_name = "small";
    create.optimizer_type = static_cast<uint8_t>(type);
    create.seed = seed;
    create.reference_score = client.env->default_score();
    return create;
  };
  auto observe_request = [](const std::string& id,
                            const Observation& outcome) {
    serve::ObserveRequest observe;
    observe.session_id = id;
    observe.config = outcome.config.values();
    observe.score = outcome.score;
    observe.objective = outcome.objective;
    observe.failed = outcome.failed ? 1 : 0;
    observe.internal_metrics = outcome.internal_metrics;
    return observe;
  };

  auto replies = exchange(serve::EncodeCreateSession(
      next_request++,
      create_request(spec.id, spec.optimizer, spec.optimizer_seed)));
  ASSERT_EQ(replies.size(), 1u);
  size_t churned = 0;
  for (size_t round = 0; round < kRounds; ++round) {
    std::vector<std::string> ids = {spec.id};
    std::string batch;
    for (size_t k = 0; k < kChurnPerRound; ++k) {
      ids.push_back("churn-" + std::to_string(round) + "-" +
                    std::to_string(k));
      batch += serve::EncodeCreateSession(
          next_request++,
          create_request(ids.back(), OptimizerType::kRandomSearch, 100 + k));
    }
    replies = exchange(batch);
    ASSERT_EQ(replies.size(), kChurnPerRound);
    for (const serve::Frame& reply : replies) {
      Result<serve::CreateSessionResponse> created =
          serve::DecodeCreateSessionResponse(reply);
      ASSERT_TRUE(created.ok());
      EXPECT_TRUE(serve::StatusFromHeader(created->header).ok());
    }

    // One suggest and one observe per session, each batch one wave.
    batch.clear();
    for (const std::string& id : ids) {
      batch += serve::EncodeSuggest(next_request++, {id});
    }
    replies = exchange(batch);
    ASSERT_EQ(replies.size(), ids.size());
    batch.clear();
    for (size_t i = 0; i < ids.size(); ++i) {
      Result<serve::SuggestResponse> suggested =
          serve::DecodeSuggestResponse(replies[i]);
      ASSERT_TRUE(suggested.ok());
      ASSERT_TRUE(serve::StatusFromHeader(suggested->header).ok());
      ClientSession& evaluator = i == 0 ? client : churn_client;
      const Observation outcome =
          evaluator.env->Evaluate(Configuration(suggested->config));
      batch += serve::EncodeObserve(next_request++,
                                    observe_request(ids[i], outcome));
    }
    replies = exchange(batch);
    ASSERT_EQ(replies.size(), ids.size());
    for (const serve::Frame& reply : replies) {
      Result<serve::ObserveResponse> observed =
          serve::DecodeObserveResponse(reply);
      ASSERT_TRUE(observed.ok());
      EXPECT_TRUE(serve::StatusFromHeader(observed->header).ok());
    }

    batch.clear();
    for (size_t i = 1; i < ids.size(); ++i) {
      batch += serve::EncodeCloseSession(next_request++, {ids[i]});
    }
    replies = exchange(batch);
    ASSERT_EQ(replies.size(), kChurnPerRound);
    for (const serve::Frame& reply : replies) {
      Result<serve::CloseSessionResponse> closed =
          serve::DecodeCloseSessionResponse(reply);
      ASSERT_TRUE(closed.ok());
      EXPECT_TRUE(serve::StatusFromHeader(closed->header).ok());
    }
    churned += kChurnPerRound;
  }
  EXPECT_EQ(churned, 200u);
  EXPECT_EQ(scheduler.pending(), 0u);
  EXPECT_EQ(scheduler.queued_sessions(), 0u);
  EXPECT_EQ(manager.num_open(), 1u);
  ExpectBitwiseEqual(standalone, client.env->history(), "control");
}

// Sends `bytes` to `server` in one ServeBuffered call and decodes every
// reply it wrote.
std::vector<serve::Frame> Exchange(FrameServer* server,
                                   LoopbackTransport* transport,
                                   serve::FrameReader* reader,
                                   const std::string& bytes) {
  transport->SendToServer(bytes);
  EXPECT_TRUE(server->ServeBuffered(transport).ok());
  reader->Append(transport->DrainClientInbox());
  std::vector<serve::Frame> replies;
  serve::Frame frame;
  while (true) {
    Result<bool> got = reader->Next(&frame);
    EXPECT_TRUE(got.ok());
    if (!got.ok() || !*got) break;
    replies.push_back(frame);
  }
  return replies;
}

uint64_t Fnv1aBytes(const std::string& bytes) {
  uint64_t hash = 14695981039346656037ULL;
  for (const char c : bytes) {
    hash ^= static_cast<unsigned char>(c);
    hash *= 1099511628211ULL;
  }
  return hash;
}

serve::ObserveRequest ToObserveRequest(const std::string& id,
                                       const Observation& outcome) {
  serve::ObserveRequest observe;
  observe.session_id = id;
  observe.config = outcome.config.values();
  observe.score = outcome.score;
  observe.objective = outcome.objective;
  observe.failed = outcome.failed ? 1 : 0;
  observe.internal_metrics = outcome.internal_metrics;
  return observe;
}

// One buffer carries, across two ids, a create, suggest, observe and
// close, then a suggest after the close, a re-create of the closed id, a
// duplicate create, a malformed frame and a response-typed frame. Every
// session sees its own frames in the order they were sent, so each reply
// (status code, message and body) is what running the frames one at a
// time gives, at every pool size and batch width. The whole reply stream
// is pinned by its hash.
TEST(ServeFrameServerTest, OneBufferKeepsEachSessionsFrameOrder) {
  const ConfigurationSpace space = SmallSpace();
  Observation applied;
  applied.config = space.Default();
  applied.score = 42.0;
  applied.objective = -42.0;
  auto create_request = [](const std::string& id, uint64_t seed) {
    serve::CreateSessionRequest create;
    create.session_id = id;
    create.space_name = "small";
    create.optimizer_type = static_cast<uint8_t>(OptimizerType::kVanillaBo);
    create.seed = seed;
    create.reference_score = 100.0;
    return create;
  };
  serve::Frame malformed;
  malformed.type = serve::MessageType::kSuggest;
  malformed.body = "\x01";
  serve::Frame response_typed;
  response_typed.type = serve::MessageType::kSuggestResponse;

  std::string buffer;
  uint64_t request = 0;
  buffer += serve::EncodeCreateSession(++request, create_request("a", 3));
  buffer += serve::EncodeCreateSession(++request, create_request("b", 4));
  buffer += serve::EncodeSuggest(++request, {"a"});
  buffer += serve::EncodeSuggest(++request, {"b"});
  buffer += serve::EncodeObserve(++request, ToObserveRequest("a", applied));
  buffer += serve::EncodeCloseSession(++request, {"a"});
  buffer += serve::EncodeSuggest(++request, {"a"});
  buffer += serve::EncodeCreateSession(++request, create_request("a", 3));
  buffer += serve::EncodeCreateSession(++request, create_request("b", 4));
  malformed.request_id = ++request;
  buffer += serve::EncodeFrame(malformed);
  buffer += serve::EncodeObserve(++request, ToObserveRequest("b", applied));
  buffer += serve::EncodeObserve(++request, ToObserveRequest("a", applied));
  response_typed.request_id = ++request;
  buffer += serve::EncodeFrame(response_typed);
  buffer += serve::EncodeSuggest(++request, {"b"});
  buffer += serve::EncodeCloseSession(++request, {"b"});
  buffer += serve::EncodeCloseSession(++request, {"b"});

  const std::vector<StatusCode> expected_codes = {
      StatusCode::kOk,                  // create a
      StatusCode::kOk,                  // create b
      StatusCode::kOk,                  // suggest a
      StatusCode::kOk,                  // suggest b
      StatusCode::kOk,                  // observe a
      StatusCode::kOk,                  // close a
      StatusCode::kFailedPrecondition,  // suggest a after its close
      StatusCode::kFailedPrecondition,  // re-create closed a
      StatusCode::kFailedPrecondition,  // duplicate create b
      StatusCode::kInvalidArgument,     // malformed suggest body
      StatusCode::kOk,                  // observe b
      StatusCode::kFailedPrecondition,  // observe a after its close
      StatusCode::kInvalidArgument,     // response-typed frame
      StatusCode::kOk,                  // suggest b
      StatusCode::kOk,                  // close b
      StatusCode::kFailedPrecondition,  // close b again
  };
  ASSERT_EQ(expected_codes.size(), request);

  for (size_t pool : {1u, 2u, 8u}) {
    PoolSizeGuard guard(pool);
    for (size_t width : {1u, 8u, 64u}) {
      const std::string label =
          "pool=" + std::to_string(pool) + " width=" + std::to_string(width);
      SessionManager manager;
      manager.RegisterSpace("small", space);
      SchedulerOptions scheduler_options;
      scheduler_options.batch_width = width;
      BatchScheduler scheduler(&manager, scheduler_options);
      FrameServer server(&manager, &scheduler);
      LoopbackTransport transport;
      serve::FrameReader reader;
      const std::vector<serve::Frame> replies =
          Exchange(&server, &transport, &reader, buffer);
      ASSERT_EQ(replies.size(), expected_codes.size()) << label;
      std::string stream;
      for (size_t i = 0; i < replies.size(); ++i) {
        EXPECT_EQ(replies[i].request_id, i + 1) << label;
        Status status = Status::OK();
        switch (replies[i].type) {
          case serve::MessageType::kCreateSessionResponse: {
            Result<serve::CreateSessionResponse> created =
                serve::DecodeCreateSessionResponse(replies[i]);
            ASSERT_TRUE(created.ok()) << label;
            EXPECT_EQ(created->replayed, 0u) << label;
            status = serve::StatusFromHeader(created->header);
            break;
          }
          case serve::MessageType::kSuggestResponse: {
            Result<serve::SuggestResponse> suggested =
                serve::DecodeSuggestResponse(replies[i]);
            ASSERT_TRUE(suggested.ok()) << label;
            status = serve::StatusFromHeader(suggested->header);
            break;
          }
          case serve::MessageType::kObserveResponse: {
            Result<serve::ObserveResponse> observed =
                serve::DecodeObserveResponse(replies[i]);
            ASSERT_TRUE(observed.ok()) << label;
            status = serve::StatusFromHeader(observed->header);
            break;
          }
          default: {
            Result<serve::CloseSessionResponse> closed =
                serve::DecodeCloseSessionResponse(replies[i]);
            ASSERT_TRUE(closed.ok()) << label;
            status = serve::StatusFromHeader(closed->header);
            break;
          }
        }
        EXPECT_EQ(status.code(), expected_codes[i])
            << label << " request " << (i + 1) << ": " << status.ToString();
        stream += serve::EncodeFrame(replies[i]);
      }
      EXPECT_EQ(Fnv1aBytes(stream), 10141599331486848436ULL) << label;
      EXPECT_EQ(manager.num_open(), 0u) << label;
      EXPECT_EQ(scheduler.queued_sessions(), 0u) << label;
    }
  }
}

// A restart re-opens many stored sessions with one buffer of creates. The
// creates share waves, so their replays run on every lane. At pools 1/2/8
// and widths 1/8/64 each create reports the stored history's length as
// `replayed`, each trajectory continues bitwise equal to the standalone
// loop, and a buffer that closes several sessions, two of them behind a
// last suggest, seals them in the frame order of the closes.
TEST(ServeFrameServerTest, RestartBufferResumesStoredSessionsOnEveryLane) {
  std::vector<SessionSpec> specs = MixedSpecs();
  specs.push_back(
      {"s-bo-2", OptimizerType::kVanillaBo, 17, WorkloadId::kJob, 27});
  specs.push_back(
      {"s-tpe-2", OptimizerType::kTpe, 18, WorkloadId::kSysbench, 28});
  specs.push_back(
      {"s-rand-2", OptimizerType::kRandomSearch, 19, WorkloadId::kTatp, 29});
  const size_t iterations = 14;
  // Observations each session records before the restart: 3, 4, ..., 11.
  std::vector<size_t> recorded(specs.size());
  for (size_t s = 0; s < specs.size(); ++s) recorded[s] = 3 + s;
  std::vector<std::vector<Observation>> standalone;
  for (const SessionSpec& spec : specs) {
    standalone.push_back(StandaloneHistory(spec, iterations));
  }
  // Closed by the last buffer, in this frame order; the first two send a
  // suggest first.
  const std::vector<size_t> closed = {7, 2, 0, 5, 8, 3};

  auto create_request = [&](size_t s, const ClientSession& client) {
    serve::CreateSessionRequest create;
    create.session_id = specs[s].id;
    create.space_name = "small";
    create.optimizer_type = static_cast<uint8_t>(specs[s].optimizer);
    create.seed = specs[s].optimizer_seed;
    create.reference_score = client.env->default_score();
    return create;
  };
  struct Server {
    std::unique_ptr<ObservationStore> store;
    std::unique_ptr<SessionManager> manager;
    std::unique_ptr<BatchScheduler> scheduler;
    std::unique_ptr<FrameServer> frames;
    LoopbackTransport transport;
    serve::FrameReader reader;
  };
  // One round: every session in `active` suggests in one buffer, its
  // client evaluates, and every outcome is observed in a second buffer.
  auto run_round = [](Server* server, const std::vector<SessionSpec>& all,
                      std::vector<ClientSession>* clients,
                      const std::vector<size_t>& active, uint64_t* request) {
    std::string buffer;
    for (size_t s : active) {
      buffer += serve::EncodeSuggest(++*request, {all[s].id});
    }
    std::vector<serve::Frame> replies = Exchange(
        server->frames.get(), &server->transport, &server->reader, buffer);
    ASSERT_EQ(replies.size(), active.size());
    buffer.clear();
    for (size_t i = 0; i < active.size(); ++i) {
      Result<serve::SuggestResponse> suggested =
          serve::DecodeSuggestResponse(replies[i]);
      ASSERT_TRUE(suggested.ok());
      ASSERT_TRUE(serve::StatusFromHeader(suggested->header).ok())
          << all[active[i]].id << ": " << suggested->header.message;
      const Observation outcome = (*clients)[active[i]].env->Evaluate(
          Configuration(suggested->config));
      buffer += serve::EncodeObserve(++*request,
                                     ToObserveRequest(all[active[i]].id,
                                                      outcome));
    }
    replies = Exchange(server->frames.get(), &server->transport,
                       &server->reader, buffer);
    ASSERT_EQ(replies.size(), active.size());
    for (const serve::Frame& reply : replies) {
      Result<serve::ObserveResponse> observed =
          serve::DecodeObserveResponse(reply);
      ASSERT_TRUE(observed.ok());
      EXPECT_TRUE(serve::StatusFromHeader(observed->header).ok())
          << observed->header.message;
    }
  };

  // Sessions seal in the frame order of their closes, at every width and
  // pool size, so the exported task pool never depends on scheduling.
  std::vector<std::string> closed_order;
  for (size_t s : closed) closed_order.push_back(specs[s].id);

  for (size_t width : {1u, 8u, 64u}) {
    for (size_t pool : {1u, 2u, 8u}) {
      PoolSizeGuard guard(pool);
      const std::string label =
          "pool=" + std::to_string(pool) + " width=" + std::to_string(width);
      const std::string path = ServeStorePath(
          "restart_" + std::to_string(pool) + "_" + std::to_string(width));
      std::vector<ClientSession> clients;
      for (const SessionSpec& spec : specs) {
        clients.push_back(MakeClient(spec));
      }
      uint64_t request = 0;
      auto start = [&](Server* server) {
        auto opened = ObservationStore::Open(path);
        ASSERT_TRUE(opened.ok()) << opened.status().ToString();
        server->store = std::move(opened).value();
        SessionManagerOptions manager_options;
        manager_options.store = server->store.get();
        server->manager = std::make_unique<SessionManager>(manager_options);
        server->manager->RegisterSpace("small", clients.front().env->space());
        SchedulerOptions scheduler_options;
        scheduler_options.batch_width = width;
        server->scheduler = std::make_unique<BatchScheduler>(
            server->manager.get(), scheduler_options);
        server->frames = std::make_unique<FrameServer>(
            server->manager.get(), server->scheduler.get());
      };

      // First process: create every session and record its prefix.
      {
        Server server;
        start(&server);
        std::string buffer;
        for (size_t s = 0; s < specs.size(); ++s) {
          buffer += serve::EncodeCreateSession(
              ++request, create_request(s, clients[s]));
        }
        ASSERT_EQ(Exchange(server.frames.get(), &server.transport,
                           &server.reader, buffer)
                      .size(),
                  specs.size());
        for (size_t round = 0; round < recorded.back(); ++round) {
          std::vector<size_t> active;
          for (size_t s = 0; s < specs.size(); ++s) {
            if (round < recorded[s]) active.push_back(s);
          }
          run_round(&server, specs, &clients, active, &request);
        }
      }

      // Restarted process: one buffer re-creates every session, in
      // reverse id order.
      Server server;
      start(&server);
      std::string buffer;
      for (size_t s = specs.size(); s-- > 0;) {
        buffer += serve::EncodeCreateSession(++request,
                                             create_request(s, clients[s]));
      }
      std::vector<serve::Frame> replies = Exchange(
          server.frames.get(), &server.transport, &server.reader, buffer);
      ASSERT_EQ(replies.size(), specs.size()) << label;
      for (size_t i = 0; i < replies.size(); ++i) {
        const size_t s = specs.size() - 1 - i;
        Result<serve::CreateSessionResponse> created =
            serve::DecodeCreateSessionResponse(replies[i]);
        ASSERT_TRUE(created.ok()) << label;
        EXPECT_TRUE(serve::StatusFromHeader(created->header).ok())
            << label << " " << specs[s].id << ": "
            << created->header.message;
        EXPECT_EQ(created->replayed, recorded[s])
            << label << " " << specs[s].id;
      }
      EXPECT_EQ(server.manager->num_resident(), specs.size()) << label;

      for (size_t round = 0; round < iterations; ++round) {
        std::vector<size_t> active;
        for (size_t s = 0; s < specs.size(); ++s) {
          if (recorded[s] + round < iterations) active.push_back(s);
        }
        if (active.empty()) break;
        run_round(&server, specs, &clients, active, &request);
      }
      for (size_t s = 0; s < specs.size(); ++s) {
        ExpectBitwiseEqual(standalone[s], clients[s].env->history(),
                           specs[s].id + " " + label);
      }

      buffer.clear();
      for (size_t k = 0; k < closed.size(); ++k) {
        if (k < 2) {
          buffer += serve::EncodeSuggest(++request, {specs[closed[k]].id});
        }
        buffer += serve::EncodeCloseSession(++request, {specs[closed[k]].id});
      }
      replies = Exchange(server.frames.get(), &server.transport,
                         &server.reader, buffer);
      ASSERT_EQ(replies.size(), closed.size() + 2) << label;
      for (const serve::Frame& reply : replies) {
        if (reply.type != serve::MessageType::kCloseSessionResponse) continue;
        Result<serve::CloseSessionResponse> close =
            serve::DecodeCloseSessionResponse(reply);
        ASSERT_TRUE(close.ok()) << label;
        EXPECT_TRUE(serve::StatusFromHeader(close->header).ok())
            << label << ": " << close->header.message;
      }
      ObservationRepository tasks;
      ASSERT_TRUE(server.store->ExportTasks(&tasks).ok()) << label;
      std::vector<std::string> order;
      for (const SourceTask& task : tasks.tasks()) order.push_back(task.name);
      EXPECT_EQ(order, closed_order) << label;
    }
  }
}

// The manager mutex is never held across a session's lock: while worker
// threads drive sessions through Suggest and Observe (GP and forest fits
// included), this thread creates fresh ids, evicts every session,
// re-creates evicted ones and counts residents. Every call succeeds,
// every re-create replays its stored history, and every driven session
// stays bitwise equal to the standalone loop across the evictions. Run
// under TSan by the `threading` label.
TEST(ServeThreadingTest, LifecycleCallsRunWhileSessionsSuggest) {
  const std::vector<SessionSpec> busy = {
      {"busy-bo", OptimizerType::kVanillaBo, 61, WorkloadId::kSysbench, 71},
      {"busy-smac", OptimizerType::kSmac, 62, WorkloadId::kTpcc, 72},
      {"busy-tpe", OptimizerType::kTpe, 63, WorkloadId::kJob, 73},
  };
  const size_t iterations = 24;
  constexpr size_t kIdle = 4;
  constexpr size_t kIdleObservations = 5;
  constexpr size_t kRounds = 6;
  std::vector<std::vector<Observation>> standalone;
  for (const SessionSpec& spec : busy) {
    standalone.push_back(StandaloneHistory(spec, iterations));
  }

  const std::string path = ServeStorePath("threading_lifecycle");
  auto opened = ObservationStore::Open(path);
  ASSERT_TRUE(opened.ok());
  obs::EnableFakeClockForTest();
  SessionManagerOptions manager_options;
  manager_options.store = opened.value().get();
  SessionManager manager(manager_options);
  manager.RegisterSpace("small", SmallSpace());
  std::vector<ClientSession> clients;
  for (const SessionSpec& spec : busy) {
    clients.push_back(MakeClient(spec));
    ASSERT_TRUE(
        manager.CreateSession(spec.id, ToServedOptions(spec, clients.back()))
            .ok());
  }
  for (size_t k = 0; k < kIdle; ++k) {
    const std::string id = "idle-" + std::to_string(k);
    ASSERT_TRUE(manager.CreateSession(id, SmallOptions(k)).ok());
    for (size_t i = 0; i < kIdleObservations; ++i) {
      Result<Configuration> suggested = manager.Suggest(id);
      ASSERT_TRUE(suggested.ok());
      Observation observation;
      observation.config = *suggested;
      observation.score = static_cast<double>(i);
      ASSERT_TRUE(manager.Observe(id, observation).ok());
    }
  }

  std::vector<std::thread> workers;
  std::vector<Status> failures(busy.size(), Status::OK());
  std::atomic<size_t> running{0};
  for (size_t b = 0; b < busy.size(); ++b) {
    workers.emplace_back([&, b] {
      running.fetch_add(1);
      for (size_t iter = 0; iter < iterations; ++iter) {
        Result<Configuration> suggested = manager.Suggest(busy[b].id);
        if (!suggested.ok()) {
          failures[b] = suggested.status();
          return;
        }
        const Status observed = manager.Observe(
            busy[b].id, clients[b].env->Evaluate(*suggested));
        if (!observed.ok()) {
          failures[b] = observed;
          return;
        }
      }
    });
  }
  while (running.load() < busy.size()) std::this_thread::yield();
  for (size_t round = 0; round < kRounds; ++round) {
    size_t replayed = 1;
    EXPECT_TRUE(manager
                    .CreateSession("fresh-" + std::to_string(round),
                                   SmallOptions(round), &replayed)
                    .ok());
    EXPECT_EQ(replayed, 0u);
    // The fake clock advances on every read, so every session not inside
    // a request is idle past any positive threshold.
    EXPECT_GE(manager.EvictIdle(1e-9), kIdle);
    EXPECT_LE(manager.num_resident(), busy.size());
    for (size_t k = 0; k < kIdle; ++k) {
      const std::string id = "idle-" + std::to_string(k);
      const Status created = manager.CreateSession(id, SmallOptions(k),
                                                   &replayed);
      EXPECT_TRUE(created.ok()) << id << ": " << created.ToString();
      EXPECT_EQ(replayed, kIdleObservations) << id;
    }
    EXPECT_GE(manager.num_resident(), kIdle);
    EXPECT_EQ(manager.num_open(), busy.size() + kIdle + round + 1);
  }
  for (std::thread& worker : workers) worker.join();
  obs::DisableFakeClockForTest();
  for (size_t b = 0; b < busy.size(); ++b) {
    EXPECT_TRUE(failures[b].ok()) << busy[b].id << ": "
                                  << failures[b].ToString();
    ExpectBitwiseEqual(standalone[b], clients[b].env->history(), busy[b].id);
  }
}

// Eviction sweeps race the requests that touch the sessions they picked:
// while workers drive sessions through Suggest and Observe, this thread
// sweeps back to back for the whole run (the test above sweeps six
// times), so picks keep landing between a request's touch and its
// session lock. A sweep reads a picked session's last touch again once it
// holds the session's lock (taking the manager mutex inside it, the only
// nesting of the two), and keeps a session that a request touched after
// the sweep began. The interleavings are not forced: every call succeeds
// and every trajectory stays bitwise equal to the standalone loop in all
// of them, and TSan (the `threading` label) checks the accesses and the
// lock order.
TEST(ServeThreadingTest, TouchesRaceEvictionSweeps) {
  const std::vector<SessionSpec> raced = {
      {"raced-bo", OptimizerType::kVanillaBo, 81, WorkloadId::kSysbench, 91},
      {"raced-tpe", OptimizerType::kTpe, 82, WorkloadId::kJob, 92},
  };
  const size_t iterations = 16;
  std::vector<std::vector<Observation>> standalone;
  for (const SessionSpec& spec : raced) {
    standalone.push_back(StandaloneHistory(spec, iterations));
  }

  const std::string path = ServeStorePath("threading_touch_sweep");
  auto opened = ObservationStore::Open(path);
  ASSERT_TRUE(opened.ok());
  obs::EnableFakeClockForTest();
  SessionManagerOptions manager_options;
  manager_options.store = opened.value().get();
  SessionManager manager(manager_options);
  manager.RegisterSpace("small", SmallSpace());
  std::vector<ClientSession> clients;
  for (const SessionSpec& spec : raced) {
    clients.push_back(MakeClient(spec));
    ASSERT_TRUE(
        manager.CreateSession(spec.id, ToServedOptions(spec, clients.back()))
            .ok());
  }

  std::vector<std::thread> workers;
  std::vector<Status> failures(raced.size(), Status::OK());
  std::atomic<size_t> finished{0};
  for (size_t r = 0; r < raced.size(); ++r) {
    workers.emplace_back([&, r] {
      for (size_t iter = 0; iter < iterations && failures[r].ok(); ++iter) {
        Result<Configuration> suggested = manager.Suggest(raced[r].id);
        if (!suggested.ok()) {
          failures[r] = suggested.status();
          break;
        }
        failures[r] = manager.Observe(raced[r].id,
                                      clients[r].env->Evaluate(*suggested));
      }
      finished.fetch_add(1);
    });
  }
  // The fake clock advances on every read, so a session is idle past the
  // threshold unless a request touched it after the sweep read the clock.
  size_t sweeps = 0;
  while (finished.load() < raced.size()) {
    EXPECT_LE(manager.EvictIdle(1e-9), raced.size());
    ++sweeps;
  }
  for (std::thread& worker : workers) worker.join();
  obs::DisableFakeClockForTest();
  EXPECT_GT(sweeps, 0u);
  EXPECT_LE(manager.num_resident(), raced.size());
  for (size_t r = 0; r < raced.size(); ++r) {
    EXPECT_TRUE(failures[r].ok()) << raced[r].id << ": "
                                  << failures[r].ToString();
    ExpectBitwiseEqual(standalone[r], clients[r].env->history(),
                       raced[r].id);
  }
}

// Creates of one id race each other: exactly one succeeds, and every
// other one finds a complete session ("already exists"), never an entry
// still being built that it would take for an evicted one.
TEST(ServeThreadingTest, ConcurrentCreatesOfOneIdHaveOneWinner) {
  constexpr size_t kCreators = 4;
  constexpr size_t kRounds = 64;
  for (size_t round = 0; round < kRounds; ++round) {
    SessionManager manager;
    manager.RegisterSpace("small", SmallSpace());
    const std::string id = "contended-" + std::to_string(round);
    std::vector<Status> statuses(kCreators, Status::OK());
    std::vector<std::thread> creators;
    std::atomic<size_t> ready{0};
    for (size_t c = 0; c < kCreators; ++c) {
      creators.emplace_back([&, c] {
        // Line the creators up so their creates overlap.
        ready.fetch_add(1);
        while (ready.load() < kCreators) std::this_thread::yield();
        statuses[c] = manager.CreateSession(id, SmallOptions(c));
      });
    }
    for (std::thread& creator : creators) creator.join();
    size_t created = 0;
    for (const Status& status : statuses) {
      if (status.ok()) {
        ++created;
      } else {
        EXPECT_EQ(status.code(), StatusCode::kFailedPrecondition)
            << status.ToString();
        EXPECT_NE(status.message().find("already exists"), std::string::npos)
            << status.ToString();
      }
    }
    EXPECT_EQ(created, 1u) << id;
    EXPECT_EQ(manager.num_open(), 1u);
    EXPECT_EQ(manager.num_resident(), 1u);
  }
}

// ---------------------------------------------------------------------------
// Serving metrics.

TEST(ServeMetricsTest, ServeMetricsAreRecorded) {
  obs::ScopedMetricsForTest metrics;
  const std::vector<SessionSpec> specs = {
      {"m-1", OptimizerType::kRandomSearch, 1, WorkloadId::kSysbench, 2},
      {"m-2", OptimizerType::kRandomSearch, 3, WorkloadId::kSysbench, 4},
  };
  (void)ServedHistories(specs, 3, /*batch_width=*/8);
  auto& registry = obs::MetricsRegistry::Get();
  const obs::Gauge* active = registry.FindGauge("serve.sessions.active");
  ASSERT_NE(active, nullptr);
  EXPECT_EQ(active->value(), 2.0);  // never closed in ServedHistories
  const obs::Histogram* latency =
      registry.FindHistogram("serve.suggest.latency");
  ASSERT_NE(latency, nullptr);
  EXPECT_EQ(latency->count(), 2u * 3u);
  const obs::Histogram* width = registry.FindHistogram("serve.batch.width");
  ASSERT_NE(width, nullptr);
  EXPECT_GT(width->count(), 0u);
}

}  // namespace
}  // namespace dbtune
