#include "obs/diagnostics.h"

#include <cmath>

#include "obs/metrics_export.h"

namespace dbtune::obs {

namespace {

constexpr double kTwoPi = 6.283185307179586;
// Smoothing factor of the improvement EWMA.
constexpr double kEwmaAlpha = 0.2;

uint64_t HistogramCount(const char* name) {
  const Histogram* hist = MetricsRegistry::Get().FindHistogram(name);
  return hist == nullptr ? 0 : hist->count();
}

uint64_t CounterValue(const char* name) {
  const Counter* counter = MetricsRegistry::Get().FindCounter(name);
  return counter == nullptr ? 0 : counter->value();
}

}  // namespace

TuningDiagnostics::TuningDiagnostics(std::string session_label)
    : session_label_(session_label.empty() ? "default"
                                           : std::move(session_label)) {
  base_gp_fits_ = HistogramCount("gp.fit");
  base_incremental_ = HistogramCount("gp.fit.incremental");
  base_hyperopt_ = CounterValue("gp.hyperopt.runs");
}

void TuningDiagnostics::ReadInfraCounters(IterationDiagnostics* out) {
  out->gp_fits = HistogramCount("gp.fit") - base_gp_fits_;
  out->incremental_fits =
      HistogramCount("gp.fit.incremental") - base_incremental_;
  out->hyperopt_runs = CounterValue("gp.hyperopt.runs") - base_hyperopt_;
  out->incremental_fit_rate =
      out->gp_fits == 0 ? 0.0
                        : static_cast<double>(out->incremental_fits) /
                              static_cast<double>(out->gp_fits);
}

IterationDiagnostics TuningDiagnostics::Record(
    const DiagnosticsPrediction& prediction, double score) {
  IterationDiagnostics d;
  d.iteration = ++iterations_;

  // --- Calibration: one-step-ahead residual against the pre-observation
  // predictive distribution. A non-positive variance cannot score a
  // density, so such iterations are excluded from the coverage base.
  if (prediction.has_prediction && prediction.variance > 0.0) {
    const double sd = std::sqrt(prediction.variance);
    d.has_prediction = true;
    d.standardized_residual = (score - prediction.mean) / sd;
    d.nlpd = 0.5 * std::log(kTwoPi * prediction.variance) +
             0.5 * d.standardized_residual * d.standardized_residual;
    ++predicted_;
    if (std::abs(d.standardized_residual) <= 1.0) ++covered68_;
    if (std::abs(d.standardized_residual) <= 1.96) ++covered95_;
    nlpd_sum_ += d.nlpd;
  }
  if (predicted_ > 0) {
    const double n = static_cast<double>(predicted_);
    d.coverage68 = static_cast<double>(covered68_) / n;
    d.coverage95 = static_cast<double>(covered95_) / n;
    d.mean_nlpd = nlpd_sum_ / n;
  }

  // --- Convergence vs. the incumbent.
  if (!has_best_) {
    has_best_ = true;
    best_so_far_ = score;
    since_improvement_ = 0;
  } else {
    const double improvement = score > best_so_far_ ? score - best_so_far_
                                                    : 0.0;
    since_improvement_ = improvement > 0.0 ? 0 : since_improvement_ + 1;
    improvement_ewma_ = kEwmaAlpha * improvement +
                        (1.0 - kEwmaAlpha) * improvement_ewma_;
    if (score > best_so_far_) best_so_far_ = score;
  }
  d.simple_regret = best_so_far_ - score;
  cumulative_regret_ += d.simple_regret;
  d.cumulative_regret = cumulative_regret_;
  d.iterations_since_improvement = since_improvement_;
  d.improvement_ewma = improvement_ewma_;

  d.has_acquisition = prediction.has_acquisition;
  d.acquisition_best = prediction.acquisition_best;
  d.acquisition_spread = prediction.acquisition_spread;

  ReadInfraCounters(&d);
  if (MetricsEnabled()) Publish(d);
  last_ = d;
  return d;
}

void TuningDiagnostics::Publish(const IterationDiagnostics& d) {
  if (!handles_resolved_) {
    MetricsRegistry& registry = MetricsRegistry::Get();
    const auto labeled = [&](const char* base) {
      return LabeledMetricName(base, "session", session_label_);
    };
    regret_simple_ = &registry.gauge(labeled("tuning.regret.simple"));
    regret_cumulative_ = &registry.gauge(labeled("tuning.regret.cumulative"));
    stall_ = &registry.gauge(labeled("tuning.stall.iterations"));
    improvement_ewma_gauge_ =
        &registry.gauge(labeled("tuning.improvement.ewma"));
    coverage68_gauge_ =
        &registry.gauge(labeled("tuning.calibration.coverage68"));
    coverage95_gauge_ =
        &registry.gauge(labeled("tuning.calibration.coverage95"));
    nlpd_gauge_ = &registry.gauge(labeled("tuning.calibration.mean_nlpd"));
    acq_best_ = &registry.gauge(labeled("tuning.acquisition.best"));
    acq_spread_ = &registry.gauge(labeled("tuning.acquisition.spread"));
    incremental_rate_ =
        &registry.gauge(labeled("tuning.fit.incremental_rate"));
    iterations_counter_ = &registry.counter(labeled("tuning.iterations"));
    handles_resolved_ = true;
  }
  iterations_counter_->Increment();
  regret_simple_->Set(d.simple_regret);
  regret_cumulative_->Set(d.cumulative_regret);
  stall_->Set(static_cast<double>(d.iterations_since_improvement));
  improvement_ewma_gauge_->Set(d.improvement_ewma);
  coverage68_gauge_->Set(d.coverage68);
  coverage95_gauge_->Set(d.coverage95);
  nlpd_gauge_->Set(d.mean_nlpd);
  if (d.has_acquisition) {
    acq_best_->Set(d.acquisition_best);
    acq_spread_->Set(d.acquisition_spread);
  }
  incremental_rate_->Set(d.incremental_fit_rate);
}

}  // namespace dbtune::obs
