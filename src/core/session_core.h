#ifndef DBTUNE_CORE_SESSION_CORE_H_
#define DBTUNE_CORE_SESSION_CORE_H_

#include <cstddef>
#include <deque>
#include <memory>
#include <optional>
#include <string>

#include "dbms/environment.h"
#include "optimizer/optimizer.h"
#include "store/observation_store.h"
#include "util/status.h"

namespace dbtune {

struct SessionControls;

/// The durable store of a standalone run and its session id.
struct SessionStore {
  store::ObservationStore* store = nullptr;  // null: no durability
  std::unique_ptr<store::ObservationStore> owned;  // set when opened here
  std::string session_id;
};

/// Resolves `controls` to a store: the borrowed `controls.store`, else
/// the store at `controls.store_path` opened here (checkpointing every
/// `DBTUNE_STORE_SNAPSHOT_EVERY` appends when that is set), else none.
/// An open failure warns and runs without durability. The session id is
/// `session_label`, else "default".
SessionStore OpenSessionStore(const SessionControls& controls);

/// The step core of one tuning session — the paper's Figure 2 loop minus
/// the evaluation — driven by `RunTuningSession` and by every served
/// session. It owns the optimizer's reference score, the store binding
/// (append before learn), replay of the recorded history, and the one
/// divergence policy: a recorded configuration that differs from the
/// re-suggested one durably truncates the stored suffix, and the session
/// continues live. Per iteration the caller runs `Suggest`, evaluates
/// the suggestion unless `recorded()` holds its outcome, then `Observe`s.
/// Store errors leave the core's state unchanged and are returned; each
/// caller picks its policy.
class SessionCore {
 public:
  /// Borrows `optimizer`, which must outlive the core.
  SessionCore(Optimizer* optimizer, double reference_score,
              store::ObservationStore* store, std::string session_id);
  /// Owns `optimizer`.
  SessionCore(std::unique_ptr<Optimizer> optimizer, double reference_score,
              store::ObservationStore* store, std::string session_id);

  SessionCore(const SessionCore&) = delete;
  SessionCore& operator=(const SessionCore&) = delete;

  /// Declares the session in the store and loads its recorded
  /// observations for replay. No-op without a store.
  [[nodiscard]] Status Begin();

  /// Proposes the configuration to evaluate next. Repeated calls before
  /// `Observe` return the same pending suggestion. On a divergence from
  /// the recorded history the remaining records are dropped and the
  /// store is truncated; a failed truncation is returned, and `*config`
  /// is set either way.
  [[nodiscard]] Status Suggest(Configuration* config);

  /// The recorded outcome of the pending suggestion while replaying, or
  /// null when it must be evaluated live.
  const Observation* recorded() const;

  /// Learns the outcome of the pending suggestion. A live outcome is
  /// appended to the store first; if the append fails, nothing is
  /// learned and the error is returned.
  [[nodiscard]] Status Observe(const Observation& observation);

  /// Runs `Suggest`/`Observe` over every loaded record: the resume path
  /// of a caller without an environment. After a divergence the
  /// diverging suggestion stays pending for the next `Suggest`.
  [[nodiscard]] Status Replay();

  /// Stops writing to the store; the session goes on without it.
  void DetachStore() { store_ = nullptr; }

  /// Observations learned, replayed ones included.
  size_t observed() const { return observed_; }

 private:
  std::unique_ptr<Optimizer> owned_;
  Optimizer* const optimizer_;
  store::ObservationStore* store_;
  const std::string session_id_;

  /// Recorded observations still to re-apply, the next one first.
  std::deque<Observation> records_;
  /// The suggestion awaiting its outcome.
  std::optional<Configuration> pending_;
  size_t observed_ = 0;
};

}  // namespace dbtune

#endif  // DBTUNE_CORE_SESSION_CORE_H_
