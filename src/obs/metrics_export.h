#ifndef DBTUNE_OBS_METRICS_EXPORT_H_
#define DBTUNE_OBS_METRICS_EXPORT_H_

#include <string>

#include "obs/metrics.h"
#include "util/status.h"

namespace dbtune::obs {

/// Fleet-ready metric exposition: renders a `MetricsSnapshot` in the
/// Prometheus text format (version 0.0.4) and writes atomic-rename
/// snapshot files on a deterministic-clock cadence. Everything outside
/// src/obs must export through this layer (the `metrics-export` lint
/// rule bans direct registry iteration elsewhere) so exports stay
/// internally consistent, escaped, and uniformly named.

/// Registry name carrying one label: `base{key="value"}`. The renderer
/// parses this form back into a Prometheus label pair; the session
/// diagnostics use it to fan per-session series out of shared names.
std::string LabeledMetricName(const std::string& base, const std::string& key,
                              const std::string& value);

/// Renders `snapshot` in Prometheus text exposition format: counters and
/// gauges as single samples, histograms as summaries (p50/p95/p99
/// quantile samples plus `_sum`/`_count`). Metric names are mangled to
/// the Prometheus charset (prefixed `dbtune_`, '.' → '_'), label values
/// are escaped, and families are emitted in sorted order with one
/// `# TYPE` line each — the output is a pure function of the snapshot.
std::string RenderPrometheus(const MetricsSnapshot& snapshot);

/// Renders the process registry (snapshot + RenderPrometheus).
std::string RenderPrometheusRegistry();

/// Writes the registry rendering to `path` via a temporary file and
/// atomic rename, so scrapers never observe a torn snapshot.
[[nodiscard]] Status WritePrometheusSnapshot(const std::string& path);

/// Cadenced snapshot exporter for the session loop. Disabled when the
/// path is empty; when disabled it never reads the clock, so enabling
/// an export path is the only thing that changes clock-read counts.
class MetricsExporter {
 public:
  /// Disabled exporter.
  MetricsExporter() = default;
  /// Exports to `path` at most every `interval_seconds` (plus the final
  /// unconditional `ExportNow`). Empty path → disabled.
  MetricsExporter(std::string path, double interval_seconds);

  MetricsExporter(const MetricsExporter&) = delete;
  MetricsExporter& operator=(const MetricsExporter&) = delete;

  bool enabled() const { return !path_.empty(); }
  const std::string& path() const { return path_; }

  /// Writes a snapshot when the interval has elapsed since the last
  /// write (the first call always writes). No-op when disabled; write
  /// failures are logged once and disable the exporter.
  void MaybeExport();

  /// Unconditional snapshot write (e.g. at session end).
  [[nodiscard]] Status ExportNow();

 private:
  std::string path_;
  double interval_seconds_ = 10.0;
  bool exported_once_ = false;
  double last_export_seconds_ = 0.0;
};

}  // namespace dbtune::obs

#endif  // DBTUNE_OBS_METRICS_EXPORT_H_
