#include "dbms/environment.h"

#include <numeric>

#include "util/logging.h"

namespace dbtune {

namespace {
std::vector<size_t> AllIndices(size_t n) {
  std::vector<size_t> idx(n);
  std::iota(idx.begin(), idx.end(), size_t{0});
  return idx;
}
}  // namespace

TuningEnvironment::TuningEnvironment(Evaluator* evaluator)
    : TuningEnvironment(evaluator,
                        AllIndices(evaluator->space().dimension())) {}

TuningEnvironment::TuningEnvironment(Evaluator* evaluator,
                                     std::vector<size_t> knob_indices)
    : evaluator_(evaluator),
      knob_indices_(std::move(knob_indices)),
      subspace_(evaluator->space().Project(knob_indices_)),
      base_config_(evaluator->EffectiveDefault()) {
  // Measure the default before tuning begins.
  const EvaluationResult def = evaluator_->MeasureDefault();
  DBTUNE_CHECK_MSG(!def.failed, "default configuration must not crash");
  default_objective_ = def.objective;
  default_score_ = ScoreFromObjective(def.objective);
  worst_score_ = default_score_;
  best_score_ = default_score_;
  best_objective_ = default_objective_;
  std::vector<double> sub(knob_indices_.size());
  for (size_t i = 0; i < knob_indices_.size(); ++i) {
    sub[i] = base_config_[knob_indices_[i]];
  }
  default_config_ = Configuration(std::move(sub));
  best_config_ = default_config_;
}

double TuningEnvironment::ScoreFromObjective(double objective) const {
  return DirectedScore(objective, evaluator_->objective());
}

Configuration TuningEnvironment::ToFullConfiguration(
    const Configuration& sub_config) const {
  DBTUNE_CHECK(sub_config.size() == knob_indices_.size());
  Configuration full = base_config_;
  for (size_t i = 0; i < knob_indices_.size(); ++i) {
    full[knob_indices_[i]] = sub_config[i];
  }
  return full;
}

Observation TuningEnvironment::Evaluate(const Configuration& sub_config) {
  Observation obs;
  obs.config = subspace_.Clip(sub_config);
  EvaluationResult result =
      evaluator_->Evaluate(ToFullConfiguration(obs.config));
  obs.failed = result.failed;
  obs.objective = result.objective;
  obs.internal_metrics = std::move(result.internal_metrics);
  return Record(std::move(obs));
}

Observation TuningEnvironment::Replay(const Observation& recorded) {
  DBTUNE_CHECK(recorded.config.size() == knob_indices_.size());
  evaluator_->ReplaySkip(recorded.failed);
  return Record(recorded);
}

Observation TuningEnvironment::Record(Observation obs) {
  if (obs.failed) {
    // The paper assigns failed configurations the worst performance ever
    // seen to avoid scaling problems.
    obs.score = worst_score_;
    obs.objective = 0.0;
  } else {
    obs.score = ScoreFromObjective(obs.objective);
    worst_score_ = std::min(worst_score_, obs.score);
    if (obs.score > best_score_) {
      best_score_ = obs.score;
      best_objective_ = obs.objective;
      best_iteration_ = history_.size() + 1;
      best_config_ = obs.config;
    }
  }
  history_.push_back(std::move(obs));
  return history_.back();
}

double TuningEnvironment::ImprovementPercent() const {
  return RelativeGain(best_objective_, default_objective_,
                      evaluator_->objective()) *
         100.0;
}

}  // namespace dbtune
