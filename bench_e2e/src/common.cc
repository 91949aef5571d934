#include "common.h"

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <cstdio>

namespace dbtune::e2e {

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

double Median(const std::vector<double>& values) {
  return Quantile(values, 0.5);
}

double Sum(const std::vector<double>& values) {
  double total = 0.0;
  for (double v : values) total += v;
  return total;
}

size_t HostCpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) != 0) return 1;
  const int count = CPU_COUNT(&set);
  return count > 0 ? static_cast<size_t>(count) : 1;
}

double PeakRssMb() {
  rusage usage{};
  if (getrusage(RUSAGE_SELF, &usage) != 0) return 0.0;
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

uint64_t WrittenBytes() {
  std::FILE* file = std::fopen("/proc/self/io", "r");
  if (file == nullptr) return 0;
  char line[128];
  uint64_t wchar = 0;
  while (std::fgets(line, sizeof(line), file) != nullptr) {
    unsigned long long value = 0;
    if (std::sscanf(line, "wchar: %llu", &value) == 1) {
      wchar = value;
      break;
    }
  }
  std::fclose(file);
  return wchar;
}

void MetricSink::Add(const std::string& name, double value,
                     const std::string& unit, size_t samples) {
  metrics_.push_back(Metric{name, value, unit, samples});
}

}  // namespace dbtune::e2e
