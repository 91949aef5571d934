#include "obs/metrics_export.h"

#include <atomic>
#include <cctype>
#include <cstdio>
#include <cstring>

#include "obs/clock.h"
#include "util/logging.h"

namespace dbtune::obs {

namespace {

/// Mangles `raw` into the Prometheus metric-name charset
/// [a-zA-Z_:][a-zA-Z0-9_:]* under the library prefix.
std::string MangleName(const std::string& raw) {
  std::string out = "dbtune_";
  for (char c : raw) {
    const bool ok = std::isalnum(static_cast<unsigned char>(c)) != 0 ||
                    c == '_' || c == ':';
    out.push_back(ok ? c : '_');
  }
  return out;
}

/// Escapes a Prometheus label value: backslash, quote, newline.
std::string EscapeLabelValue(const std::string& raw) {
  std::string out;
  out.reserve(raw.size());
  for (char c : raw) {
    switch (c) {
      case '\\':
        out += "\\\\";
        break;
      case '"':
        out += "\\\"";
        break;
      case '\n':
        out += "\\n";
        break;
      default:
        out.push_back(c);
    }
  }
  return out;
}

/// Splits a registry name of the form `base{key="value"}` (the
/// LabeledMetricName convention). Anything that does not match exactly is
/// treated as an unlabeled name, so hostile names degrade to mangling
/// rather than malformed exposition.
struct ParsedName {
  std::string family;           // mangled base
  std::string label;            // `key="escaped"` or ""
};

ParsedName ParseName(const std::string& raw) {
  ParsedName parsed;
  const size_t open = raw.find('{');
  if (open == std::string::npos || raw.back() != '}') {
    parsed.family = MangleName(raw);
    return parsed;
  }
  const std::string inner = raw.substr(open + 1, raw.size() - open - 2);
  const size_t eq = inner.find("=\"");
  if (eq == std::string::npos || inner.size() < eq + 3 ||
      inner.back() != '"') {
    parsed.family = MangleName(raw);
    return parsed;
  }
  const std::string key = inner.substr(0, eq);
  const std::string value = inner.substr(eq + 2, inner.size() - eq - 3);
  bool key_ok = !key.empty();
  for (char c : key) {
    key_ok = key_ok && (std::isalnum(static_cast<unsigned char>(c)) != 0 ||
                        c == '_');
  }
  if (!key_ok) {
    parsed.family = MangleName(raw);
    return parsed;
  }
  parsed.family = MangleName(raw.substr(0, open));
  parsed.label = key + "=\"" + EscapeLabelValue(value) + "\"";
  return parsed;
}

void AppendTypeLine(std::string* out, std::string* last_family,
                    const std::string& family, const char* type) {
  if (family == *last_family) return;
  *out += "# TYPE " + family + " " + type + "\n";
  *last_family = family;
}

void AppendSample(std::string* out, const std::string& family,
                  const std::string& labels, double value) {
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), " %.9g\n", value);
  *out += family;
  if (!labels.empty()) *out += "{" + labels + "}";
  *out += buffer;
}

}  // namespace

std::string LabeledMetricName(const std::string& base, const std::string& key,
                              const std::string& value) {
  return base + "{" + key + "=\"" + value + "\"}";
}

std::string RenderPrometheus(const MetricsSnapshot& snapshot) {
  std::string out;
  std::string last_family;
  for (const auto& counter : snapshot.counters) {
    const ParsedName name = ParseName(counter.name);
    AppendTypeLine(&out, &last_family, name.family, "counter");
    AppendSample(&out, name.family, name.label,
                 static_cast<double>(counter.value));
  }
  last_family.clear();
  for (const auto& gauge : snapshot.gauges) {
    const ParsedName name = ParseName(gauge.name);
    AppendTypeLine(&out, &last_family, name.family, "gauge");
    AppendSample(&out, name.family, name.label, gauge.value);
  }
  last_family.clear();
  for (const auto& histogram : snapshot.histograms) {
    const ParsedName name = ParseName(histogram.name);
    AppendTypeLine(&out, &last_family, name.family, "summary");
    const std::string sep = name.label.empty() ? "" : ",";
    AppendSample(&out, name.family, name.label + sep + "quantile=\"0.5\"",
                 histogram.p50_seconds);
    AppendSample(&out, name.family, name.label + sep + "quantile=\"0.95\"",
                 histogram.p95_seconds);
    AppendSample(&out, name.family, name.label + sep + "quantile=\"0.99\"",
                 histogram.p99_seconds);
    AppendSample(&out, name.family + "_sum", name.label,
                 histogram.sum_seconds);
    AppendSample(&out, name.family + "_count", name.label,
                 static_cast<double>(histogram.count));
  }
  return out;
}

std::string RenderPrometheusRegistry() {
  return RenderPrometheus(MetricsRegistry::Get().Snapshot());
}

Status WritePrometheusSnapshot(const std::string& path) {
  if (path.empty()) return Status::InvalidArgument("empty export path");
  const std::string rendered = RenderPrometheusRegistry();
  // Concurrent snapshotters (the serve loop and the cadence exporter)
  // must not share a temp file: with a fixed ".tmp" name, one writer's
  // fopen("w") truncates another's in-flight bytes and the rename can
  // publish a torn file. A per-call serial gives every writer a private
  // temp; the atomic rename still publishes complete snapshots, with the
  // last writer to rename winning.
  static std::atomic<uint64_t> tmp_serial{0};
  const std::string tmp =
      path + ".tmp." +
      std::to_string(tmp_serial.fetch_add(1, std::memory_order_relaxed));
  std::FILE* file = std::fopen(tmp.c_str(), "w");
  if (file == nullptr) {
    return Status::Internal("cannot open metrics export file " + tmp);
  }
  const size_t written =
      std::fwrite(rendered.data(), 1, rendered.size(), file);
  const bool flushed = std::fclose(file) == 0;
  if (written != rendered.size() || !flushed) {
    std::remove(tmp.c_str());
    return Status::Internal("short write to metrics export file " + tmp);
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    return Status::Internal("cannot rename metrics export file to " + path);
  }
  return Status::OK();
}

MetricsExporter::MetricsExporter(std::string path, double interval_seconds)
    : path_(std::move(path)),
      interval_seconds_(interval_seconds > 0.0 ? interval_seconds : 0.0) {}

void MetricsExporter::MaybeExport() {
  if (path_.empty()) return;
  const double now = MonotonicSeconds();
  if (exported_once_ && now - last_export_seconds_ < interval_seconds_) {
    return;
  }
  last_export_seconds_ = now;
  exported_once_ = true;
  const Status written = WritePrometheusSnapshot(path_);
  if (!written.ok()) {
    DBTUNE_LOG(kWarning) << "metrics export disabled: "
                         << written.ToString();
    path_.clear();
  }
}

Status MetricsExporter::ExportNow() {
  if (path_.empty()) return Status::InvalidArgument("exporter disabled");
  return WritePrometheusSnapshot(path_);
}

}  // namespace dbtune::obs
