#ifndef DBTUNE_SERVE_SESSION_MANAGER_H_
#define DBTUNE_SERVE_SESSION_MANAGER_H_

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "dbms/environment.h"
#include "knobs/configuration_space.h"
#include "optimizer/optimizer.h"
#include "util/mutex.h"
#include "util/status.h"
#include "util/thread_annotations.h"

namespace dbtune::store {
class ObservationStore;
}  // namespace dbtune::store

namespace dbtune::serve {

/// Creation parameters of one served tuning session: the optimizer's
/// options plus its type and space. The client measures its DBMS
/// default configuration itself and ships the score as
/// `reference_score` — the server never evaluates, it only suggests and
/// learns. Each session runs on the same step core as `RunTuningSession`,
/// so a served trajectory is bitwise identical to the standalone loop.
struct ServedSessionOptions : OptimizerOptions {
  /// Name of a configuration space registered with the manager.
  std::string space_name;
  OptimizerType optimizer_type = OptimizerType::kVanillaBo;
  /// Score of the client's default configuration (maximize direction).
  double reference_score = 0.0;
};

struct SessionManagerOptions {
  /// Borrowed durable store. When set, every observation is WAL-appended
  /// under the session id, evicted sessions resume bit-identically by
  /// replaying their stored history through the session core, and
  /// closing a session seals it as a transfer base task. The caller
  /// keeps ownership and must outlive the manager.
  store::ObservationStore* store = nullptr;
};

struct ServedSession;  // private per-session state (session_manager.cc)

/// Owns the per-session state of a long-lived multi-session tuning
/// service: create/suggest/observe/close keyed by session id, idle
/// eviction with store-backed resurrection, and `Status` (never abort)
/// on protocol misuse — double close, suggest after close, observe
/// without an outstanding suggestion.
///
/// Thread-safety: all methods are safe to call concurrently *for
/// distinct sessions* — the manager mutex guards only the session map
/// and the space registry, and each session carries its own lock —
/// which is exactly the shape the BatchScheduler exploits (one in-flight
/// request per session per wave). The manager mutex is never held while
/// a session's lock is taken or anything is copied (the reverse nesting,
/// a session lock held while the manager mutex is taken briefly, is the
/// only one), so a session busy in a Suggest (its GP fit included) delays
/// only requests for itself, and sweeps (`EvictIdle`, `num_resident`)
/// wait for it without blocking lookups of other sessions. Determinism:
/// per-session RNG lives inside each session's optimizer, so
/// interleaving requests across sessions cannot perturb any individual
/// trajectory.
class SessionManager {
 public:
  explicit SessionManager(SessionManagerOptions options = {});
  ~SessionManager();

  SessionManager(const SessionManager&) = delete;
  SessionManager& operator=(const SessionManager&) = delete;

  /// Registers a configuration space clients can open sessions over.
  /// Re-registering a name replaces the space (existing sessions keep
  /// the one they were created over).
  void RegisterSpace(const std::string& name,
                     const ConfigurationSpace& definition);

  /// Opens a session. A new id starts fresh; an id with history in the
  /// durable store (evicted here, or recorded by a previous process)
  /// resumes by replaying that history into a fresh optimizer —
  /// `*replayed` reports how many observations were consumed. A stored
  /// history that diverges from the re-suggested trajectory (recorded
  /// under another optimizer, seed, or code version) is truncated at the
  /// divergence and the session resumes from the matched prefix. Errors:
  /// NotFound (unknown space); InvalidArgument (empty id or one longer
  /// than kMaxSessionIdBytes, space name longer than kMaxSpaceNameBytes,
  /// unknown optimizer type, `initial_design` above kMaxInitialDesign,
  /// `acquisition_candidates` of 0 or above kMaxAcquisitionCandidates,
  /// non-finite `reference_score`; limits in serve/protocol.h);
  /// FailedPrecondition (id is live or closed, or evicted with no store to
  /// restore it); and store errors.
  [[nodiscard]] Status CreateSession(const std::string& id,
                                     const ServedSessionOptions& options,
                                     size_t* replayed = nullptr);

  /// Proposes the next configuration for `id`. At most one suggestion
  /// may be outstanding per session (the suggest/observe alternation of
  /// the tuning loop); a second Suggest before Observe is
  /// FailedPrecondition. An evicted session is resurrected first; when
  /// the store cannot restore every acknowledged observation, that is
  /// FailedPrecondition.
  [[nodiscard]] Result<Configuration> Suggest(const std::string& id);

  /// Reports the evaluated outcome of the outstanding suggestion.
  /// `observation.config` must be the clipped configuration actually
  /// applied. A configuration of the wrong arity or with a value outside
  /// its knob's domain (NaN and ±Inf included), or a NaN or infinite
  /// score, objective or internal metric, is InvalidArgument, and nothing
  /// is stored or learned.
  [[nodiscard]] Status Observe(const std::string& id,
                               const Observation& observation);

  /// Closes `id`: with a store attached the trajectory is sealed as a
  /// transfer base task named after the session. Double close and any
  /// later Suggest/Observe are FailedPrecondition.
  [[nodiscard]] Status CloseSession(const std::string& id);

  /// Drops the optimizer state of open sessions idle for at least
  /// `idle_seconds` on the obs clock (a non-positive value evicts
  /// nothing); returns how many were evicted. The session id stays
  /// known: the next touch resurrects it from the store, or fails with
  /// FailedPrecondition when no store is attached.
  size_t EvictIdle(double idle_seconds);

  /// Open (created, not yet closed) sessions, evicted ones included.
  size_t num_open() const;
  /// Open sessions currently holding live optimizer state.
  size_t num_resident() const;

 private:
  ServedSession* FindSessionLocked(const std::string& id)
      DBTUNE_REQUIRES(mu_);
  /// FindSessionLocked under the manager lock: InvalidArgument for an id
  /// longer than kMaxSessionIdBytes, NotFound for an unknown one.
  Result<ServedSession*> FindSession(const std::string& id);

  const SessionManagerOptions options_;

  mutable Mutex mu_;
  /// Ordered so eviction sweeps and tests are deterministic. Nodes are
  /// never erased (closed/evicted sessions tombstone in place), so raw
  /// session pointers stay valid without holding `mu_`.
  std::map<std::string, std::unique_ptr<ServedSession>> sessions_
      DBTUNE_GUARDED_BY(mu_);
  std::map<std::string, std::shared_ptr<const ConfigurationSpace>> spaces_
      DBTUNE_GUARDED_BY(mu_);
  size_t open_sessions_ DBTUNE_GUARDED_BY(mu_) = 0;
};

}  // namespace dbtune::serve

#endif  // DBTUNE_SERVE_SESSION_MANAGER_H_
