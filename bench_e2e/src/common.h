#ifndef DBTUNE_BENCH_E2E_COMMON_H_
#define DBTUNE_BENCH_E2E_COMMON_H_

// Small helpers shared by the end-to-end benchmark: sample statistics,
// host facts, process counters, and the metric sink that prints every
// result line.

#include <cstdint>
#include <string>
#include <vector>

#include "obs/clock.h"

namespace dbtune::e2e {

/// Monotonic seconds from the library clock (the one every timing in
/// this benchmark uses).
inline double Now() { return obs::MonotonicSeconds(); }

/// Linear-interpolation quantile (q in [0, 1]) of `values`; 0 when
/// empty.
double Quantile(std::vector<double> values, double q);
double Median(const std::vector<double>& values);
double Sum(const std::vector<double>& values);

/// CPUs this process may run on (sched_getaffinity, like `nproc`).
size_t HostCpus();

/// Peak resident set size of the process so far in MiB (getrusage
/// ru_maxrss).
double PeakRssMb();

/// Bytes handed to write(2) by this process so far (/proc/self/io
/// `wchar`); 0 when the kernel does not expose it.
uint64_t WrittenBytes();

/// One named result with its unit and sample count.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  size_t samples = 0;
};

/// Collects metrics in print order.
class MetricSink {
 public:
  void Add(const std::string& name, double value, const std::string& unit,
           size_t samples);
  const std::vector<Metric>& metrics() const { return metrics_; }

 private:
  std::vector<Metric> metrics_;
};

}  // namespace dbtune::e2e

#endif  // DBTUNE_BENCH_E2E_COMMON_H_
