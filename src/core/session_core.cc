#include "core/session_core.h"

#include <iterator>
#include <utility>

#include "core/tuning_session.h"
#include "util/env_config.h"
#include "util/logging.h"

namespace dbtune {

SessionStore OpenSessionStore(const SessionControls& controls) {
  SessionStore bound;
  bound.session_id =
      controls.session_label.empty() ? "default" : controls.session_label;
  if (controls.store != nullptr) {
    bound.store = controls.store;
    return bound;
  }
  if (controls.store_path.empty()) return bound;
  store::StoreOptions options;
  options.snapshot_every = ProcessEnvConfig().store_snapshot_every.value_or(
      options.snapshot_every);
  auto opened = store::ObservationStore::Open(controls.store_path, options);
  if (!opened.ok()) {
    DBTUNE_LOG(kWarning) << "observation store disabled: "
                         << opened.status().ToString();
    return bound;
  }
  bound.owned = std::move(opened).value();
  bound.store = bound.owned.get();
  return bound;
}

SessionCore::SessionCore(Optimizer* optimizer, double reference_score,
                         store::ObservationStore* store,
                         std::string session_id)
    : optimizer_(optimizer), store_(store), session_id_(std::move(session_id)) {
  DBTUNE_CHECK(optimizer_ != nullptr);
  optimizer_->SetReferenceScore(reference_score);
}

SessionCore::SessionCore(std::unique_ptr<Optimizer> optimizer,
                         double reference_score,
                         store::ObservationStore* store,
                         std::string session_id)
    : SessionCore(optimizer.get(), reference_score, store,
                  std::move(session_id)) {
  owned_ = std::move(optimizer);
}

Status SessionCore::Begin() {
  if (store_ == nullptr) return Status::OK();
  DBTUNE_RETURN_IF_ERROR(
      store_->BeginSession(session_id_, optimizer_->space().dimension()));
  DBTUNE_ASSIGN_OR_RETURN(store::StoredSession stored,
                          store_->FindSession(session_id_));
  records_.assign(std::make_move_iterator(stored.observations.begin()),
                  std::make_move_iterator(stored.observations.end()));
  return Status::OK();
}

Status SessionCore::Suggest(Configuration* config) {
  Status status = Status::OK();
  if (!pending_.has_value()) {
    pending_ = optimizer_->Suggest();
    if (!records_.empty() &&
        !(optimizer_->space().Clip(*pending_) == records_.front().config)) {
      DBTUNE_LOG(kWarning)
          << "store replay diverged for session '" << session_id_
          << "' at iteration " << (observed_ + 1)
          << "; truncating stored history and continuing live";
      records_.clear();
      if (store_ != nullptr) {
        status = store_->TruncateSession(session_id_, observed_);
      }
    }
  }
  *config = *pending_;
  return status;
}

const Observation* SessionCore::recorded() const {
  return pending_.has_value() && !records_.empty() ? &records_.front()
                                                   : nullptr;
}

Status SessionCore::Observe(const Observation& observation) {
  if (!pending_.has_value()) {
    return Status::FailedPrecondition("no pending suggestion to observe");
  }
  const bool replaying = recorded() != nullptr;
  // Durable append before the optimizer learns: a crash between the two
  // re-learns the observation from the store on resume.
  if (!replaying && store_ != nullptr) {
    DBTUNE_RETURN_IF_ERROR(
        store_->AppendObservation(session_id_, observed_ + 1, observation));
  }
  optimizer_->ObserveWithMetrics(observation.config, observation.score,
                                 observation.internal_metrics);
  pending_.reset();
  ++observed_;
  if (replaying) records_.pop_front();  // `observation` may alias it
  return Status::OK();
}

Status SessionCore::Replay() {
  while (!records_.empty()) {
    Configuration config;
    DBTUNE_RETURN_IF_ERROR(Suggest(&config));
    const Observation* record = recorded();
    if (record == nullptr) break;
    DBTUNE_RETURN_IF_ERROR(Observe(*record));
  }
  return Status::OK();
}

}  // namespace dbtune
