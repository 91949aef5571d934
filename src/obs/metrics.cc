#include "obs/metrics.h"

#include <bit>
#include <vector>

#include "util/env_config.h"

namespace dbtune::obs {

namespace internal_metrics {

std::atomic<bool> g_enabled{ProcessEnvConfig().metrics};

}  // namespace internal_metrics

void SetMetricsEnabled(bool enabled) {
  internal_metrics::g_enabled.store(enabled, std::memory_order_relaxed);
}

void Gauge::Add(double delta) {
  // CAS loop instead of fetch_add: atomic<double>::fetch_add is C++20
  // but not yet universally lock-free; this is portable and contention
  // here is negligible.
  double current = value_.load(std::memory_order_relaxed);
  while (!value_.compare_exchange_weak(current, current + delta,
                                       std::memory_order_relaxed)) {
  }
}

void Gauge::Max(double candidate) {
  double current = value_.load(std::memory_order_relaxed);
  while (candidate > current &&
         !value_.compare_exchange_weak(current, candidate,
                                       std::memory_order_relaxed)) {
  }
}

size_t Histogram::BucketIndex(uint64_t nanos) {
  if (nanos < kSub) return static_cast<size_t>(nanos);
  const size_t octave = 63 - static_cast<size_t>(std::countl_zero(nanos));
  const uint64_t sub = (nanos >> (octave - kSubBits)) & (kSub - 1);
  return (octave - kSubBits + 1) * kSub + static_cast<size_t>(sub);
}

uint64_t Histogram::BucketLowerNanos(size_t index) {
  if (index < kSub) return index;
  const size_t octave = index / kSub + kSubBits - 1;
  if (octave >= 64) return UINT64_MAX;  // one-past-the-last upper bound
  const uint64_t sub = index % kSub;
  return (uint64_t{1} << octave) + (sub << (octave - kSubBits));
}

void Histogram::Record(double seconds) {
  if (seconds < 0.0) seconds = 0.0;
  RecordNanos(static_cast<uint64_t>(seconds * 1e9));
}

void Histogram::RecordNanos(uint64_t nanos) {
  buckets_[BucketIndex(nanos)].fetch_add(1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  sum_nanos_.fetch_add(nanos, std::memory_order_relaxed);
}

double Histogram::sum_seconds() const {
  return static_cast<double>(sum_nanos_.load(std::memory_order_relaxed)) *
         1e-9;
}

double Histogram::Percentile(double q) const {
  const uint64_t total = count();
  if (total == 0) return 0.0;
  if (q < 0.0) q = 0.0;
  if (q > 1.0) q = 1.0;
  const double target = q * static_cast<double>(total);
  double cumulative = 0.0;
  for (size_t i = 0; i < kBuckets; ++i) {
    const auto in_bucket = static_cast<double>(
        buckets_[i].load(std::memory_order_relaxed));
    if (in_bucket > 0.0 && cumulative + in_bucket >= target) {
      const double fraction =
          in_bucket > 0.0 ? (target - cumulative) / in_bucket : 0.0;
      const auto lower = static_cast<double>(BucketLowerNanos(i));
      const auto upper = static_cast<double>(BucketLowerNanos(i + 1));
      return (lower + fraction * (upper - lower)) * 1e-9;
    }
    cumulative += in_bucket;
  }
  return static_cast<double>(BucketLowerNanos(kBuckets - 1)) * 1e-9;
}

void Histogram::Reset() {
  for (auto& bucket : buckets_) bucket.store(0, std::memory_order_relaxed);
  count_.store(0, std::memory_order_relaxed);
  sum_nanos_.store(0, std::memory_order_relaxed);
}

MetricsRegistry& MetricsRegistry::Get() {
  // Intentionally leaked: pool workers and static destructors may record
  // after main() returns.
  static MetricsRegistry* registry =
      new MetricsRegistry();  // dbtune-lint: allow(naked-new)
  return *registry;
}

Counter& MetricsRegistry::counter(const std::string& name) {
  MutexLock lock(&mu_);
  std::unique_ptr<Counter>& slot = counters_[name];
  if (slot == nullptr) slot = std::make_unique<Counter>();
  return *slot;
}

Gauge& MetricsRegistry::gauge(const std::string& name) {
  MutexLock lock(&mu_);
  std::unique_ptr<Gauge>& slot = gauges_[name];
  if (slot == nullptr) slot = std::make_unique<Gauge>();
  return *slot;
}

Histogram& MetricsRegistry::histogram(const std::string& name) {
  MutexLock lock(&mu_);
  std::unique_ptr<Histogram>& slot = histograms_[name];
  if (slot == nullptr) slot = std::make_unique<Histogram>();
  return *slot;
}

const Counter* MetricsRegistry::FindCounter(const std::string& name) const {
  MutexLock lock(&mu_);
  const auto it = counters_.find(name);
  return it == counters_.end() ? nullptr : it->second.get();
}

const Gauge* MetricsRegistry::FindGauge(const std::string& name) const {
  MutexLock lock(&mu_);
  const auto it = gauges_.find(name);
  return it == gauges_.end() ? nullptr : it->second.get();
}

const Histogram* MetricsRegistry::FindHistogram(
    const std::string& name) const {
  MutexLock lock(&mu_);
  const auto it = histograms_.find(name);
  return it == histograms_.end() ? nullptr : it->second.get();
}

void MetricsRegistry::Reset() {
  MutexLock lock(&mu_);
  for (auto& [name, counter] : counters_) counter->Reset();
  for (auto& [name, gauge] : gauges_) gauge->Reset();
  for (auto& [name, histogram] : histograms_) histogram->Reset();
}

MetricsSnapshot MetricsRegistry::Snapshot() const {
  MetricsSnapshot snapshot;
  MutexLock lock(&mu_);
  snapshot.counters.reserve(counters_.size());
  for (const auto& [name, counter] : counters_) {
    snapshot.counters.push_back({name, counter->value()});
  }
  snapshot.gauges.reserve(gauges_.size());
  for (const auto& [name, gauge] : gauges_) {
    snapshot.gauges.push_back({name, gauge->value()});
  }
  snapshot.histograms.reserve(histograms_.size());
  for (const auto& [name, histogram] : histograms_) {
    MetricsSnapshot::HistogramValue value;
    value.name = name;
    value.count = histogram->count();
    value.sum_seconds = histogram->sum_seconds();
    value.p50_seconds = histogram->Percentile(0.50);
    value.p95_seconds = histogram->Percentile(0.95);
    value.p99_seconds = histogram->Percentile(0.99);
    snapshot.histograms.push_back(std::move(value));
  }
  return snapshot;
}

}  // namespace dbtune::obs
