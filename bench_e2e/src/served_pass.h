#ifndef DBTUNE_BENCH_E2E_SERVED_PASS_H_
#define DBTUNE_BENCH_E2E_SERVED_PASS_H_

// One pass of a workload through the real served path, seen from the
// clients: a single client thread plays every tuning client in rounds —
// each live session sends one frame, the thread calls
// FrameServer::ServeBuffered once, then decodes every response — and
// runs the simulated stress tests between rounds (closed loop).

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "dbms/environment.h"
#include "optimizer/optimizer.h"

namespace dbtune::e2e {

/// Shape of one workload pass.
struct WorkloadSpec {
  std::string name;
  /// Concurrent clients. Lockstep workloads run one session per slot.
  size_t slots = 0;
  /// Sessions per pass (slots × sessions per slot).
  size_t sessions = 0;
  /// (suggest, observe) pairs per session.
  size_t iterations = 0;
  /// Optimizer of session i is optimizers[i % size].
  std::vector<OptimizerType> optimizers;
  /// Slots start staggered and open/close their sessions inside the timed
  /// phase; otherwise every session is created during set-up and all
  /// sessions move in lockstep.
  bool staggered = false;
  /// Completed iterations after which the clients' thread evicts every idle
  /// session (lockstep only).
  std::vector<size_t> evict_after;
  /// Completed iterations after which the server restarts: the store is
  /// reopened and every session re-created (0 = restart only after the
  /// pass, with every session closed).
  size_t restart_after = 0;
};

/// The named workload at `scale` (1 = the committed size; smaller values
/// shrink sessions and iterations for smoke tests). Unknown names yield
/// an empty `name`.
WorkloadSpec MakeWorkload(const std::string& name, double scale);

/// Per-session identity, derived from the run seed and session index.
struct SessionSpec {
  std::string id;
  OptimizerType type = OptimizerType::kVanillaBo;
  uint64_t optimizer_seed = 1;
  uint64_t simulator_seed = 1;
};

std::vector<SessionSpec> MakeSessions(const WorkloadSpec& spec, uint64_t seed);

/// A tuning client: its simulated DBMS (SYSBENCH on instance B) and the
/// tuning environment over the fixed 20-knob space.
struct Client {
  std::unique_ptr<DbmsSimulator> simulator;
  std::unique_ptr<TuningEnvironment> env;
};

Client MakeClient(const SessionSpec& session);

/// Request kinds on the wire.
enum class Op : uint8_t { kCreate, kSuggest, kObserve, kClose };

/// One request of a traced pass and its payload.
struct FrameRecord {
  uint32_t session = 0;
  Op op = Op::kSuggest;
  uint64_t request_id = 0;
  double encode_s = 0.0;
  double decode_s = 0.0;
  /// kSuggest: the configuration the server returned.
  std::vector<double> config;
  /// kObserve: the outcome the client reported.
  Observation observation;
};

/// Why a round was sent.
enum class RoundKind : uint8_t {
  /// Set-up: every lockstep session's Create frame.
  kSetup,
  /// A timed-phase round.
  kServe,
  /// A timed-phase round right after an eviction sweep.
  kAfterEvict,
  /// The Create frames that re-open sessions after a server restart.
  kRestart,
};

/// One ServeBuffered call of a traced pass.
struct RoundRecord {
  RoundKind kind = RoundKind::kServe;
  std::vector<FrameRecord> frames;
  std::string request_bytes;
  std::string response_bytes;
  double serve_start = 0.0;
  double serve_end = 0.0;
};

/// A span recorded by the benchmark around one call it makes.
struct Span {
  const char* name = "";
  double start = 0.0;
  double end = 0.0;
  uint64_t id = 0;
  uint32_t lane = 0;
};

/// Everything a traced pass saw: the request sequence the layer replays
/// re-issue, and the client-side spans.
struct Recording {
  std::vector<RoundRecord> rounds;
  std::vector<Span> spans;
  std::vector<double> evaluate_s;
  double evict_s = 0.0;
  /// Store reopen and server construction inside restarts.
  double reopen_s = 0.0;
};

struct PassResult {
  double setup_s = 0.0;
  double timed_s = 0.0;
  /// The timed phase cut at every round's end: step i runs from the end
  /// of round i - 1 (or the start of the phase) to the end of round i,
  /// so it holds that round's client work, sweep or restart too. Passes
  /// of one workload and seed have the same steps in the same order.
  std::vector<double> step_s;
  /// Restart times: the mid-pass restart when the workload has one, else
  /// several restarts after the pass (every session closed).
  std::vector<double> restart_s;
  /// Client-observed latencies in request order (the same order in every
  /// pass of one workload and seed).
  std::vector<double> suggest_s;
  std::vector<double> observe_s;
  size_t iterations = 0;
  size_t attempted = 0;
  size_t failed = 0;
  uint64_t written_bytes = 0;
  std::vector<std::vector<Observation>> histories;
  std::vector<double> improvements;
  /// First failure, for the error report.
  std::string error;
};

/// Runs one pass with its store under `dir` (created and removed here).
/// With `recording` set, the pass records its request sequence and
/// client-side spans.
PassResult RunPass(const WorkloadSpec& spec,
                   const std::vector<SessionSpec>& sessions,
                   const std::string& dir, Recording* recording);

/// Runs only the set-up phase of a pass (then tears it down); returns its
/// duration in seconds.
double MeasureSetup(const WorkloadSpec& spec,
                    const std::vector<SessionSpec>& sessions,
                    const std::string& dir);

/// The ground truth: each session run by the standalone RunTuningSession
/// loop, sessions spread over the pool.
std::vector<std::vector<Observation>> StandaloneHistories(
    const WorkloadSpec& spec, const std::vector<SessionSpec>& sessions);

/// Bitwise equality of two sets of trajectories; on mismatch `where`
/// names the first differing session and iteration.
bool HistoriesEqual(const std::vector<std::vector<Observation>>& a,
                    const std::vector<std::vector<Observation>>& b,
                    std::string* where);

/// Name under which the benchmark registers its configuration space.
inline constexpr const char* kSpaceName = "mysql-medium20";

/// Threshold handed to SessionManager::EvictIdle: every session not
/// touched in the last nanosecond, i.e. all of them between rounds.
inline constexpr double kEvictIdleSeconds = 1e-9;

}  // namespace dbtune::e2e

#endif  // DBTUNE_BENCH_E2E_SERVED_PASS_H_
