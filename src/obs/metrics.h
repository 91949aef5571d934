#ifndef DBTUNE_OBS_METRICS_H_
#define DBTUNE_OBS_METRICS_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "obs/clock.h"
#include "util/mutex.h"
#include "util/thread_annotations.h"

namespace dbtune::obs {

/// Process-wide metrics: counters, gauges, and latency histograms with
/// percentile estimates. Disabled by default; enable with
/// `DBTUNE_METRICS=1` (EnvConfig) or `SetMetricsEnabled(true)`.
///
/// Cost discipline: when disabled, instrumented call sites pay one
/// relaxed atomic load (`MetricsEnabled()`) and never read the clock.
/// When enabled, recording is a relaxed atomic add — no locks on the hot
/// path. The registry mutex is only taken to *look up* a handle, and
/// call sites cache handles in function-local statics.
///
/// Handles returned by the registry are stable for the process lifetime:
/// `Reset()` zeroes values but never invalidates or removes a metric, so
/// cached pointers stay valid.

namespace internal_metrics {
extern std::atomic<bool> g_enabled;
}  // namespace internal_metrics

/// True when metric recording is on (fast path: one relaxed load).
inline bool MetricsEnabled() {
  return internal_metrics::g_enabled.load(std::memory_order_relaxed);
}

/// Turns metric recording on or off process-wide.
void SetMetricsEnabled(bool enabled);

/// Monotonically increasing event count.
class Counter {
 public:
  void Increment(uint64_t delta = 1) {
    value_.fetch_add(delta, std::memory_order_relaxed);
  }
  uint64_t value() const { return value_.load(std::memory_order_relaxed); }
  void Reset() { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<uint64_t> value_{0};
};

/// Last-written instantaneous value (queue depth, incumbent score, ...).
class Gauge {
 public:
  void Set(double value) { value_.store(value, std::memory_order_relaxed); }
  /// Adds `delta`; used for accumulated quantities like busy seconds.
  void Add(double delta);
  /// Raises the value to `candidate` when larger (lock-free CAS); used
  /// for running peaks like the pool's maximum queue depth.
  void Max(double candidate);
  double value() const { return value_.load(std::memory_order_relaxed); }
  void Reset() { value_.store(0.0, std::memory_order_relaxed); }

 private:
  std::atomic<double> value_{0.0};
};

/// Lock-free latency histogram over log-spaced buckets (4 sub-buckets
/// per octave of nanoseconds, HdrHistogram-style), supporting count, sum,
/// and percentile estimates with <= ~12.5% relative bucket error.
class Histogram {
 public:
  static constexpr size_t kSubBits = 2;
  static constexpr size_t kSub = 1u << kSubBits;          // 4
  static constexpr size_t kBuckets = (64 - kSubBits + 1) * kSub;

  void Record(double seconds);
  void RecordNanos(uint64_t nanos);

  uint64_t count() const { return count_.load(std::memory_order_relaxed); }
  double sum_seconds() const;
  /// Approximate quantile (q in [0, 1]) in seconds; 0 when empty.
  double Percentile(double q) const;
  void Reset();

  /// Bucket index of a nanosecond value (exposed for tests).
  static size_t BucketIndex(uint64_t nanos);
  /// Inclusive lower bound (ns) of a bucket (exposed for tests).
  static uint64_t BucketLowerNanos(size_t index);

 private:
  std::atomic<uint64_t> buckets_[kBuckets] = {};
  std::atomic<uint64_t> count_{0};
  std::atomic<uint64_t> sum_nanos_{0};
};

/// Point-in-time copy of every registered metric, sorted by name. The
/// export layer (obs/metrics_export) renders snapshots rather than
/// walking the registry, so exports are internally consistent and the
/// registry mutex is held only for the copy.
struct MetricsSnapshot {
  struct CounterValue {
    std::string name;
    uint64_t value = 0;
  };
  struct GaugeValue {
    std::string name;
    double value = 0.0;
  };
  struct HistogramValue {
    std::string name;
    uint64_t count = 0;
    double sum_seconds = 0.0;
    double p50_seconds = 0.0;
    double p95_seconds = 0.0;
    double p99_seconds = 0.0;
  };
  std::vector<CounterValue> counters;
  std::vector<GaugeValue> gauges;
  std::vector<HistogramValue> histograms;
};

/// Name-addressed registry of all metrics in the process. Names are
/// stored in sorted maps so every export is deterministically ordered.
class MetricsRegistry {
 public:
  /// The process-wide registry (created on first use, never destroyed).
  static MetricsRegistry& Get();

  /// Returns the metric registered under `name`, creating it on first
  /// use. The returned reference is valid for the process lifetime.
  Counter& counter(const std::string& name);
  Gauge& gauge(const std::string& name);
  Histogram& histogram(const std::string& name);

  /// Lookup without registration; nullptr when absent.
  const Counter* FindCounter(const std::string& name) const;
  const Gauge* FindGauge(const std::string& name) const;
  const Histogram* FindHistogram(const std::string& name) const;

  /// Zeroes every metric's value. Registrations (and handles) survive.
  void Reset();

  /// Consistent point-in-time copy of every metric (sorted by name).
  MetricsSnapshot Snapshot() const;

 private:
  MetricsRegistry() = default;

  mutable Mutex mu_;
  std::map<std::string, std::unique_ptr<Counter>> counters_
      DBTUNE_GUARDED_BY(mu_);
  std::map<std::string, std::unique_ptr<Gauge>> gauges_
      DBTUNE_GUARDED_BY(mu_);
  std::map<std::string, std::unique_ptr<Histogram>> histograms_
      DBTUNE_GUARDED_BY(mu_);
};

/// Records the scope's wall time into `histogram` on destruction; does
/// nothing (and never reads the clock) when metrics are disabled at
/// construction time.
class ScopedLatency {
 public:
  explicit ScopedLatency(Histogram* histogram)
      : histogram_(MetricsEnabled() ? histogram : nullptr),
        start_nanos_(histogram_ != nullptr ? MonotonicNanos() : 0) {}
  ~ScopedLatency() {
    if (histogram_ != nullptr) {
      histogram_->RecordNanos(MonotonicNanos() - start_nanos_);
    }
  }

  ScopedLatency(const ScopedLatency&) = delete;
  ScopedLatency& operator=(const ScopedLatency&) = delete;

 private:
  Histogram* histogram_;
  uint64_t start_nanos_;
};

/// Test-only RAII guard around the metrics state: flips recording to
/// `enable` for the scope, then restores the previous flag and zeroes
/// every metric value on destruction (handles stay valid — `Reset()`
/// never unregisters). Replaces the save-flag / restore / manual-Reset
/// boilerplate that tests used to hand-roll and routinely forgot.
class ScopedMetricsForTest {
 public:
  explicit ScopedMetricsForTest(bool enable = true)
      : previous_(MetricsEnabled()) {
    SetMetricsEnabled(enable);
    MetricsRegistry::Get().Reset();
  }
  ~ScopedMetricsForTest() {
    SetMetricsEnabled(previous_);
    MetricsRegistry::Get().Reset();
  }

  ScopedMetricsForTest(const ScopedMetricsForTest&) = delete;
  ScopedMetricsForTest& operator=(const ScopedMetricsForTest&) = delete;

 private:
  bool previous_;
};

}  // namespace dbtune::obs

#endif  // DBTUNE_OBS_METRICS_H_
