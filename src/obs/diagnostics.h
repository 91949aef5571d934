#ifndef DBTUNE_OBS_DIAGNOSTICS_H_
#define DBTUNE_OBS_DIAGNOSTICS_H_

#include <cstdint>
#include <string>

#include "obs/metrics.h"

namespace dbtune::obs {

/// Per-session tuner-quality diagnostics (the online analogue of the
/// paper's evaluation axes): surrogate calibration from one-step-ahead
/// predictions, convergence accounting against the incumbent, and
/// model/infra health read from the metrics registry. Off by default;
/// the session loop records one input per iteration and the collector
/// never reads the clock or consumes randomness, so diagnostics-on
/// trajectories stay bitwise identical to diagnostics-off ones.

/// Version of the additive `diag_*` fields appended to the session JSONL
/// when diagnostics are on (see SessionLogger). Bump on any layout change.
inline constexpr int kDiagnosticsSchemaVersion = 2;

/// What the optimizer knew before the observation: the surrogate's
/// predictive distribution at the suggested point (raw score units) and
/// the acquisition landscape over the candidate pool. All-false when the
/// iteration was a warm-start or random-fallback suggestion.
struct DiagnosticsPrediction {
  bool has_prediction = false;
  double mean = 0.0;
  double variance = 0.0;
  bool has_acquisition = false;
  double acquisition_best = 0.0;
  double acquisition_spread = 0.0;
};

/// One iteration's diagnostics: the per-iteration values plus the
/// running (session-scoped) aggregates they feed.
struct IterationDiagnostics {
  size_t iteration = 0;  // 1-based

  // --- Surrogate calibration (one-step-ahead, raw score units).
  bool has_prediction = false;
  /// (score - predicted mean) / predicted stddev.
  double standardized_residual = 0.0;
  /// Negative log predictive density of the observed score.
  double nlpd = 0.0;
  /// Running share of predicted iterations with |residual| <= 1 (nominal
  /// 68.3% for a calibrated Gaussian surrogate) and <= 1.96 (nominal 95%).
  double coverage68 = 0.0;
  double coverage95 = 0.0;
  /// Running mean NLPD over predicted iterations.
  double mean_nlpd = 0.0;

  // --- Convergence vs. the incumbent.
  /// best-so-far - score (0 when this iteration set a new incumbent).
  double simple_regret = 0.0;
  /// Sum of simple regrets since session start.
  double cumulative_regret = 0.0;
  size_t iterations_since_improvement = 0;
  /// EWMA of the per-iteration incumbent improvement.
  double improvement_ewma = 0.0;

  // --- Acquisition landscape (echoed from the prediction input).
  bool has_acquisition = false;
  double acquisition_best = 0.0;
  double acquisition_spread = 0.0;

  // --- Model/infra health: deltas, since the collector was built, of the
  // process-wide registry counters `gp.fit`, `gp.fit.incremental` and
  // `gp.hyperopt.runs`. They count the fits of every session running in
  // the process, not this session's alone (the benches run their seeds
  // in a `ParallelFor`), and stay zero when metrics recording is off.
  uint64_t gp_fits = 0;
  uint64_t incremental_fits = 0;
  uint64_t hyperopt_runs = 0;
  /// incremental_fits / gp_fits over the same process-wide deltas.
  double incremental_fit_rate = 0.0;
};

/// The per-session collector. `Record` is called once per iteration with
/// the pre-observation prediction and the observed score; it returns the
/// iteration's diagnostics and, when metrics recording is on, publishes
/// them to the registry under the session label.
class TuningDiagnostics {
 public:
  /// `session_label` labels the per-session registry metrics, e.g.
  /// `tuning.regret.simple{session="<label>"}`. Empty → "default".
  explicit TuningDiagnostics(std::string session_label = "");

  TuningDiagnostics(const TuningDiagnostics&) = delete;
  TuningDiagnostics& operator=(const TuningDiagnostics&) = delete;

  IterationDiagnostics Record(const DiagnosticsPrediction& prediction,
                              double score);

  /// Diagnostics of the most recent iteration (default when none yet).
  const IterationDiagnostics& last() const { return last_; }
  size_t iterations() const { return iterations_; }
  /// Number of iterations that carried a usable prediction.
  size_t predicted_iterations() const { return predicted_; }
  double coverage68() const { return last_.coverage68; }
  double coverage95() const { return last_.coverage95; }
  double mean_nlpd() const { return last_.mean_nlpd; }

 private:
  void ReadInfraCounters(IterationDiagnostics* out);
  void Publish(const IterationDiagnostics& d);

  std::string session_label_;
  IterationDiagnostics last_;

  size_t iterations_ = 0;
  size_t predicted_ = 0;
  size_t covered68_ = 0;
  size_t covered95_ = 0;
  double nlpd_sum_ = 0.0;

  bool has_best_ = false;
  double best_so_far_ = 0.0;
  double cumulative_regret_ = 0.0;
  size_t since_improvement_ = 0;
  double improvement_ewma_ = 0.0;

  // Baselines of the process-wide fit counters at collector
  // construction; health stats are deltas from them.
  uint64_t base_gp_fits_ = 0;
  uint64_t base_incremental_ = 0;
  uint64_t base_hyperopt_ = 0;

  // Per-session labeled handles, resolved lazily on first publish.
  bool handles_resolved_ = false;
  Gauge* regret_simple_ = nullptr;
  Gauge* regret_cumulative_ = nullptr;
  Gauge* stall_ = nullptr;
  Gauge* improvement_ewma_gauge_ = nullptr;
  Gauge* coverage68_gauge_ = nullptr;
  Gauge* coverage95_gauge_ = nullptr;
  Gauge* nlpd_gauge_ = nullptr;
  Gauge* acq_best_ = nullptr;
  Gauge* acq_spread_ = nullptr;
  Gauge* incremental_rate_ = nullptr;
  Counter* iterations_counter_ = nullptr;
};

}  // namespace dbtune::obs

#endif  // DBTUNE_OBS_DIAGNOSTICS_H_
