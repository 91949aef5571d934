#ifndef DBTUNE_OPTIMIZER_OPTIMIZER_H_
#define DBTUNE_OPTIMIZER_OPTIMIZER_H_

#include <memory>
#include <string>
#include <vector>

#include "knobs/configuration_space.h"
#include "surrogate/regressor.h"
#include "util/random.h"
#include "util/status.h"

namespace dbtune {

namespace obs {
class Histogram;
}  // namespace obs

/// Options shared by all configuration optimizers.
struct OptimizerOptions {
  uint64_t seed = 1;
  /// LHS warm-start size for the model-based optimizers (the paper
  /// initializes every BO-based session with 10 LHS configurations).
  size_t initial_design = 10;
  /// Candidate pool size when maximizing the acquisition function.
  size_t acquisition_candidates = 300;
};

/// The seven optimizer families compared in Section 6 (plus random
/// search as a sanity baseline).
enum class OptimizerType {
  kVanillaBo = 0,
  kMixedKernelBo,
  kSmac,
  kTpe,
  kTurbo,
  kDdpg,
  kGa,
  kRandomSearch,
};

/// Display name ("Vanilla BO", "SMAC", ...).
const char* OptimizerTypeName(OptimizerType type);

/// What the optimizer believed about its latest suggestion, for the
/// session diagnostics layer: the surrogate's predictive distribution at
/// the suggested point (raw score units) and the acquisition landscape
/// over the candidate pool. Model-free optimizers and warm-start /
/// random-fallback iterations leave everything false/zero. Filling this
/// never consumes randomness or reads the clock.
struct SuggestInfo {
  bool has_prediction = false;
  /// Predictive mean at the suggested point, raw score units.
  double predicted_mean = 0.0;
  /// Predictive variance at the suggested point, raw score units squared.
  double predicted_variance = 0.0;
  bool has_acquisition = false;
  /// Acquisition value of the chosen candidate.
  double acquisition_best = 0.0;
  /// Population stddev of acquisition values over the candidate pool.
  double acquisition_spread = 0.0;
  /// Size of the scored candidate pool.
  size_t acquisition_pool = 0;
};

/// One pass over an acquisition function's values on a candidate pool, in
/// candidate order: the running best plus the sum and sum of squares the
/// pool's spread comes from.
class AcquisitionSweep {
 public:
  /// `floor` is the value a candidate must strictly beat to win.
  explicit AcquisitionSweep(double floor) : best_(floor) {}

  /// Adds the next candidate's value; true when it strictly beats every
  /// earlier one (and the floor), so ties keep the lowest index.
  bool Add(double value) {
    sum_ += value;
    sumsq_ += value * value;
    ++count_;
    if (value > best_) {
      best_ = value;
      return true;
    }
    return false;
  }

  double best() const { return best_; }
  size_t count() const { return count_; }
  /// Population stddev of the added values.
  double spread() const;

 private:
  double best_;
  double sum_ = 0.0;
  double sumsq_ = 0.0;
  size_t count_ = 0;
};

/// Iterative suggest/observe configuration optimizer (the paper's
/// configuration-optimization module).
///
/// Protocol: call `Suggest()`, evaluate the configuration on the DBMS,
/// then report the outcome via `ObserveWithMetrics` (or `Observe` when no
/// internal metrics are available — DDPG then sees a zero state). Scores
/// are in maximize direction.
class Optimizer {
 public:
  /// `suggest_key` names the family's suggest metric and span ("gp_bo",
  /// "smac", ...); null for a wrapper whose inner optimizer records them.
  Optimizer(const ConfigurationSpace& space, OptimizerOptions options,
            const char* suggest_key);
  virtual ~Optimizer() = default;

  Optimizer(const Optimizer&) = delete;
  Optimizer& operator=(const Optimizer&) = delete;

  /// Proposes the next configuration to evaluate: resets
  /// `last_suggest_info()` and runs `DoSuggest` inside the
  /// `optimizer.suggest.<key>` latency histogram and the `<key>.suggest`
  /// trace span. Never returns a non-finite value: such a suggestion is
  /// replaced by a uniform sample (counted in
  /// `optimizer.suggest.nonfinite`).
  Configuration Suggest();

  /// Reports the score of an evaluated configuration plus the DBMS
  /// internal metrics measured with it (empty when there are none). The
  /// base class records it into the shared history; an override calls
  /// the base first.
  virtual void ObserveWithMetrics(const Configuration& config, double score,
                                  const std::vector<double>& metrics);

  /// `ObserveWithMetrics` without internal metrics.
  void Observe(const Configuration& config, double score) {
    ObserveWithMetrics(config, score, {});
  }

  /// Score of the default configuration, when known before tuning starts.
  /// No-op for most optimizers; DDPG anchors its reward on it.
  virtual void SetReferenceScore(double score) { (void)score; }

  virtual std::string name() const = 0;

  const ConfigurationSpace& space() const { return space_; }
  size_t num_observations() const { return scores_.size(); }
  /// Best observed score; requires at least one observation.
  double best_score() const;
  /// Configuration achieving `best_score()`.
  const Configuration& best_config() const;

  /// Diagnostics of the most recent `Suggest()` call. Default (all
  /// false/zero) until a model-based suggestion has been made.
  const SuggestInfo& last_suggest_info() const { return suggest_info_; }

 protected:
  /// One suggestion step of the concrete optimizer.
  virtual Configuration DoSuggest() = 0;

  /// True while LHS warm-start configurations remain to be suggested.
  bool InitPending() const {
    return options_.initial_design > 0 &&
           (!init_generated_ || init_cursor_ < init_queue_.size());
  }
  /// Next LHS warm-start configuration (lazily generates the design).
  Configuration NextInit();

  /// Every candidate snapped to the feasible configuration it decodes to
  /// (a surrogate must judge the point that will actually be evaluated),
  /// in parallel; each slot is written by one task, so the pool is
  /// identical at any thread count.
  std::vector<std::vector<double>> SnapCandidates(
      const std::vector<std::vector<double>>& candidates) const;

  /// Sets the `SuggestInfo` prediction from the surrogate's z-space
  /// posterior at the suggested point, de-standardized with the moments
  /// of `scores_` (the standardization the surrogate was fitted in).
  void RecordPrediction(double mean_z, double var_z);

  /// Sets the `SuggestInfo` acquisition: `best` is the chosen candidate's
  /// value, `sweep` the pass over the scored pool.
  void RecordAcquisition(double best, const AcquisitionSweep& sweep);

  ConfigurationSpace space_;
  OptimizerOptions options_;
  Rng rng_;

  /// Written only by `RecordPrediction` / `RecordAcquisition` (and copied
  /// whole by `ProjectedOptimizer`); `Suggest()` clears it first.
  SuggestInfo suggest_info_;

  /// Unit-encoded evaluated configurations, observation order.
  FeatureMatrix unit_history_;
  std::vector<Configuration> configs_;
  std::vector<double> scores_;

 private:
  /// `config` when every value is finite, else a uniform sample of the
  /// space (the only branch that draws from `rng_`).
  Configuration FiniteOrUniform(Configuration config);

  const char* const suggest_key_;
  /// Resolved on the first instrumented `Suggest()`.
  obs::Histogram* suggest_hist_ = nullptr;

  std::vector<Configuration> init_queue_;
  size_t init_cursor_ = 0;
  bool init_generated_ = false;
};

/// Expected improvement of predictive (mean, variance) over `best`, for
/// maximization.
double ExpectedImprovement(double mean, double variance, double best);

/// Expected improvement over `best` of each candidate's predictive
/// (mean, variance), swept in order from a floor of -1; `*winner` is the
/// first candidate with the largest value. The pool must be non-empty.
AcquisitionSweep SweepExpectedImprovement(const std::vector<double>& means,
                                          const std::vector<double>& variances,
                                          double best, size_t* winner);

/// Candidate pool for acquisition maximization: uniform random points plus
/// local perturbations of the best observed configurations. Used by the
/// transfer-framework optimizers; `scores` aligns with `unit_history`.
std::vector<std::vector<double>> BuildAcquisitionCandidates(
    const ConfigurationSpace& space, Rng& rng,
    const FeatureMatrix& unit_history, const std::vector<double>& scores,
    size_t total);

/// Instantiates an optimizer of the given type over `space`.
std::unique_ptr<Optimizer> CreateOptimizer(OptimizerType type,
                                           const ConfigurationSpace& space,
                                           OptimizerOptions options = {});

/// All optimizer types compared in Figure 7 / Table 7 (no random search).
std::vector<OptimizerType> PaperOptimizers();

}  // namespace dbtune

#endif  // DBTUNE_OPTIMIZER_OPTIMIZER_H_
