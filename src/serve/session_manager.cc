#include "serve/session_manager.h"

#include <cmath>
#include <utility>

#include "core/session_core.h"
#include "obs/clock.h"
#include "obs/metrics.h"
#include "serve/protocol.h"
#include "store/observation_store.h"

namespace dbtune::serve {

/// Per-session state. Guarded by its own mutex so requests for distinct
/// sessions never serialize on the manager lock during optimizer work;
/// `last_touch_seconds` is the exception (guarded by the manager mutex,
/// written on lookup and read by the eviction sweep).
struct ServedSession {
  Mutex mu;
  /// Emptied at close, like `space`: a tombstone needs only `closed`.
  ServedSessionOptions options DBTUNE_GUARDED_BY(mu);
  /// The space registered when the session was created, shared with the
  /// registry and stable even if the registry entry is later replaced.
  std::shared_ptr<const ConfigurationSpace> space DBTUNE_GUARDED_BY(mu);
  /// Null while evicted; resurrection builds a fresh core and replays
  /// the durable history through it.
  std::unique_ptr<SessionCore> core DBTUNE_GUARDED_BY(mu);
  /// Observations acknowledged to the client (== durable history length).
  size_t observed DBTUNE_GUARDED_BY(mu) = 0;
  /// True between Suggest and the matching Observe.
  bool suggestion_outstanding DBTUNE_GUARDED_BY(mu) = false;
  bool closed DBTUNE_GUARDED_BY(mu) = false;
  /// Guarded by the manager mutex, not `mu` (see above).
  double last_touch_seconds = 0.0;
};

namespace {

obs::Gauge& ActiveGauge() {
  static obs::Gauge& gauge =
      obs::MetricsRegistry::Get().gauge("serve.sessions.active");
  return gauge;
}

// An invalid value would be appended to the WAL and sealed into the
// session's transfer task, and a NaN or infinite score turns every later
// standardized score of the session into NaN (they share the mean).
// `space.Validate` checks the configuration's arity and that each value
// is finite and inside its knob's domain.
[[nodiscard]] Status ValidateObservation(const ConfigurationSpace& space,
                                         const Observation& observation) {
  if (const Status config = space.Validate(observation.config); !config.ok()) {
    return Status::InvalidArgument("observation configuration: " +
                                   config.message());
  }
  if (!std::isfinite(observation.score)) {
    return Status::InvalidArgument("observation score is not finite");
  }
  if (!std::isfinite(observation.objective)) {
    return Status::InvalidArgument("observation objective is not finite");
  }
  for (double value : observation.internal_metrics) {
    if (!std::isfinite(value)) {
      return Status::InvalidArgument("observation internal metric is not "
                                     "finite");
    }
  }
  return Status::OK();
}

/// Builds the core of an open session that has none (fresh or evicted)
/// and replays the durable history through it, restoring the optimizer
/// state bitwise. A re-creation (`recreate`) with a store adopts the
/// prefix the store restores; an implicit resurrection must restore
/// every acknowledged observation.
[[nodiscard]] Status ResurrectLocked(store::ObservationStore* store,
                                     const std::string& id, ServedSession* s,
                                     bool recreate, size_t* replayed)
    DBTUNE_REQUIRES(s->mu) {
  if (s->closed) {
    return Status::FailedPrecondition("session '" + id + "' is closed");
  }
  if (s->core != nullptr) return Status::OK();
  auto core = std::make_unique<SessionCore>(
      CreateOptimizer(s->options.optimizer_type, *s->space, s->options),
      s->options.reference_score, store, id);
  DBTUNE_RETURN_IF_ERROR(core->Begin());
  DBTUNE_RETURN_IF_ERROR(core->Replay());
  if (core->observed() < s->observed) {
    if (!recreate || store == nullptr) {
      return Status::FailedPrecondition(
          "session '" + id + "' was evicted after " +
          std::to_string(s->observed) + " observations and only " +
          std::to_string(core->observed()) + " could be restored");
    }
    // The client's outstanding suggestion, if any, belonged to the
    // discarded suffix.
    s->suggestion_outstanding = false;
  } else if (s->suggestion_outstanding) {
    // A suggestion outstanding at eviction time: re-advance the optimizer
    // past it. Suggest is deterministic, so this re-derives exactly the
    // configuration the client already holds.
    Configuration outstanding;
    DBTUNE_RETURN_IF_ERROR(core->Suggest(&outstanding));
  }
  s->observed = core->observed();
  if (replayed != nullptr) *replayed = core->observed();
  s->core = std::move(core);
  return Status::OK();
}

}  // namespace

SessionManager::SessionManager(SessionManagerOptions manager_options)
    : options_(manager_options) {}

SessionManager::~SessionManager() = default;

void SessionManager::RegisterSpace(const std::string& name,
                                   const ConfigurationSpace& definition) {
  auto space = std::make_shared<const ConfigurationSpace>(definition);
  MutexLock lock(&mu_);
  spaces_.insert_or_assign(name, std::move(space));
}

ServedSession* SessionManager::FindSessionLocked(const std::string& id)
    DBTUNE_REQUIRES(mu_) {
  auto it = sessions_.find(id);
  if (it == sessions_.end()) return nullptr;
  it->second->last_touch_seconds = obs::MonotonicSeconds();
  return it->second.get();
}

Result<ServedSession*> SessionManager::FindSession(const std::string& id) {
  if (id.size() > kMaxSessionIdBytes) {
    return Status::InvalidArgument("session id longer than " +
                                   std::to_string(kMaxSessionIdBytes) +
                                   " bytes");
  }
  MutexLock lock(&mu_);
  ServedSession* session = FindSessionLocked(id);
  if (session == nullptr) {
    return Status::NotFound("unknown session '" + id + "'");
  }
  return session;
}

Status SessionManager::CreateSession(const std::string& id,
                                     const ServedSessionOptions& options,
                                     size_t* replayed) {
  if (replayed != nullptr) *replayed = 0;
  if (id.empty() || id.size() > kMaxSessionIdBytes) {
    return Status::InvalidArgument("session id must be 1 to " +
                                   std::to_string(kMaxSessionIdBytes) +
                                   " bytes");
  }
  const int type = static_cast<int>(options.optimizer_type);
  if (type < 0 || type > static_cast<int>(OptimizerType::kRandomSearch)) {
    return Status::InvalidArgument("unknown optimizer type " +
                                   std::to_string(type));
  }
  if (options.initial_design > kMaxInitialDesign) {
    return Status::InvalidArgument("initial_design above " +
                                   std::to_string(kMaxInitialDesign));
  }
  if (options.acquisition_candidates == 0 ||
      options.acquisition_candidates > kMaxAcquisitionCandidates) {
    return Status::InvalidArgument("acquisition_candidates not in [1, " +
                                   std::to_string(kMaxAcquisitionCandidates) +
                                   "]");
  }
  if (!std::isfinite(options.reference_score)) {
    return Status::InvalidArgument("reference_score is not finite");
  }
  if (options.space_name.size() > kMaxSpaceNameBytes) {
    return Status::InvalidArgument("space name longer than " +
                                   std::to_string(kMaxSpaceNameBytes) +
                                   " bytes");
  }
  // Nothing is copied and no session mutex is taken under `mu_`: the
  // space is shared, and the entry of a fresh id is built outside it.
  std::shared_ptr<const ConfigurationSpace> space;
  ServedSession* session = nullptr;
  {
    MutexLock lock(&mu_);
    auto space_it = spaces_.find(options.space_name);
    if (space_it == spaces_.end()) {
      return Status::NotFound("unknown configuration space '" +
                              options.space_name + "'");
    }
    space = space_it->second;
    session = FindSessionLocked(id);
  }
  if (session == nullptr) {
    // The new entry's lock is held from before it is published until its
    // core is built, so a concurrent create of the same id, or a request
    // for it, finds it complete: "already exists", or the core this call
    // resurrected.
    auto created = std::make_unique<ServedSession>();
    ServedSession* const entry = created.get();
    MutexLock session_lock(&entry->mu);
    entry->options = options;
    entry->space = space;
    {
      MutexLock lock(&mu_);
      auto [it, inserted] = sessions_.try_emplace(id);
      if (inserted) {
        it->second = std::move(created);
        ++open_sessions_;
        if (obs::MetricsEnabled()) {
          ActiveGauge().Set(static_cast<double>(open_sessions_));
        }
      }
      it->second->last_touch_seconds = obs::MonotonicSeconds();
      session = it->second.get();
    }
    if (session == entry) {
      return ResurrectLocked(options_.store, id, entry, /*recreate=*/true,
                             replayed);
    }
    // Another caller created the id since the lookup: answer as a create
    // of an existing id, below.
  }
  MutexLock session_lock(&session->mu);
  if (session->closed) {
    return Status::FailedPrecondition("session '" + id + "' is closed");
  }
  if (session->core != nullptr) {
    return Status::FailedPrecondition("session '" + id + "' already exists");
  }
  // Evicted: adopt the (re)creation parameters and resurrect below.
  // Divergent parameters truncate the stored history at the first
  // mismatch; `replayed` reports the prefix that survived.
  session->options = options;
  session->space = std::move(space);
  return ResurrectLocked(options_.store, id, session, /*recreate=*/true,
                         replayed);
}

Result<Configuration> SessionManager::Suggest(const std::string& id) {
  static obs::Histogram& latency_hist =
      obs::MetricsRegistry::Get().histogram("serve.suggest.latency");
  obs::ScopedLatency latency(&latency_hist);
  DBTUNE_ASSIGN_OR_RETURN(ServedSession* const session, FindSession(id));
  MutexLock session_lock(&session->mu);
  DBTUNE_RETURN_IF_ERROR(ResurrectLocked(options_.store, id, session,
                                         /*recreate=*/false, nullptr));
  if (session->suggestion_outstanding) {
    return Status::FailedPrecondition(
        "session '" + id + "' has an unobserved suggestion outstanding");
  }
  Configuration config;
  DBTUNE_RETURN_IF_ERROR(session->core->Suggest(&config));
  session->suggestion_outstanding = true;
  return config;
}

Status SessionManager::Observe(const std::string& id,
                               const Observation& observation) {
  DBTUNE_ASSIGN_OR_RETURN(ServedSession* const session, FindSession(id));
  MutexLock session_lock(&session->mu);
  DBTUNE_RETURN_IF_ERROR(ResurrectLocked(options_.store, id, session,
                                         /*recreate=*/false, nullptr));
  if (!session->suggestion_outstanding) {
    return Status::FailedPrecondition(
        "session '" + id + "' has no outstanding suggestion to observe");
  }
  DBTUNE_RETURN_IF_ERROR(ValidateObservation(*session->space, observation));
  DBTUNE_RETURN_IF_ERROR(session->core->Observe(observation));
  ++session->observed;
  session->suggestion_outstanding = false;
  return Status::OK();
}

Status SessionManager::CloseSession(const std::string& id) {
  DBTUNE_ASSIGN_OR_RETURN(ServedSession* const session, FindSession(id));
  {
    MutexLock session_lock(&session->mu);
    if (session->closed) {
      return Status::FailedPrecondition("session '" + id +
                                        "' is already closed");
    }
    // Seal non-empty trajectories as a transfer base task named after
    // the session; empty sessions just close (no useless empty task).
    if (options_.store != nullptr && session->observed > 0) {
      DBTUNE_RETURN_IF_ERROR(
          options_.store->FinishSession(id, *session->space, id));
    }
    session->core.reset();
    session->closed = true;
    session->space.reset();
    session->options = ServedSessionOptions();
  }
  MutexLock lock(&mu_);
  --open_sessions_;
  if (obs::MetricsEnabled()) {
    ActiveGauge().Set(static_cast<double>(open_sessions_));
  }
  return Status::OK();
}

size_t SessionManager::EvictIdle(double idle_seconds) {
  if (idle_seconds <= 0.0) return 0;
  const double now = obs::MonotonicSeconds();
  // Collect under `mu_`, lock each session after releasing it: a session
  // holds its mutex for its whole Suggest, and nodes are never erased.
  std::vector<ServedSession*> idle;
  {
    MutexLock lock(&mu_);
    for (auto& entry : sessions_) {
      if (now - entry.second->last_touch_seconds >= idle_seconds) {
        idle.push_back(entry.second.get());
      }
    }
  }
  size_t evicted = 0;
  for (ServedSession* session : idle) {
    MutexLock session_lock(&session->mu);
    if (session->closed || session->core == nullptr) continue;
    {
      // A request that looked the session up since the pick has touched
      // it and runs (or ran) on its core: keep it. With the session lock
      // held, no later lookup can reach the core before the reset.
      MutexLock lock(&mu_);
      if (now - session->last_touch_seconds < idle_seconds) continue;
    }
    session->core.reset();
    ++evicted;
  }
  return evicted;
}

size_t SessionManager::num_open() const {
  MutexLock lock(&mu_);
  return open_sessions_;
}

size_t SessionManager::num_resident() const {
  std::vector<ServedSession*> sessions;
  {
    MutexLock lock(&mu_);
    sessions.reserve(sessions_.size());
    for (const auto& entry : sessions_) sessions.push_back(entry.second.get());
  }
  size_t resident = 0;
  for (ServedSession* session : sessions) {
    MutexLock session_lock(&session->mu);
    if (!session->closed && session->core != nullptr) ++resident;
  }
  return resident;
}

}  // namespace dbtune::serve
