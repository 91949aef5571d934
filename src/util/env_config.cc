#include "util/env_config.h"

#include <charconv>
#include <cmath>
#include <cstdlib>

#include "util/logging.h"

namespace dbtune {

namespace {

// The value of `name`, or "" when it is unset.
std::string Path(const EnvLookup& lookup, const char* name) {
  const char* value = lookup(name);
  return value == nullptr ? "" : value;
}

bool Flag(const EnvLookup& lookup, const char* name) {
  const std::string value = Path(lookup, name);
  return !value.empty() && value != "0";
}

template <typename T>
std::optional<T> Number(const EnvLookup& lookup, const char* name,
                        std::vector<std::string>* warnings) {
  const std::string value = Path(lookup, name);
  if (value.empty()) return std::nullopt;
  const char* end = value.data() + value.size();
  T parsed{};
  const auto [stop, error] = std::from_chars(value.data(), end, parsed);
  if (error == std::errc() && stop == end && parsed >= T{} &&
      std::isfinite(static_cast<double>(parsed))) {
    return parsed;
  }
  warnings->push_back(std::string(name) + "=\"" + value +
                      "\" is not a non-negative number; using the default");
  return std::nullopt;
}

}  // namespace

EnvConfig ParseEnvConfig(const EnvLookup& lookup) {
  EnvConfig config;
  config.metrics = Flag(lookup, "DBTUNE_METRICS");
  config.trace = Flag(lookup, "DBTUNE_TRACE");
  if (config.trace && Path(lookup, "DBTUNE_TRACE") != "1") {
    config.trace_path = Path(lookup, "DBTUNE_TRACE");
  }
  config.fake_clock = Flag(lookup, "DBTUNE_OBS_FAKE_CLOCK");
  config.session_log_path = Path(lookup, "DBTUNE_SESSION_LOG");
  config.session_diagnostics = Flag(lookup, "DBTUNE_SESSION_DIAGNOSTICS");
  config.metrics_export_path = Path(lookup, "DBTUNE_METRICS_EXPORT");
  config.metrics_export_interval_s =
      Number<double>(lookup, "DBTUNE_METRICS_EXPORT_INTERVAL_S",
                     &config.warnings)
          .value_or(config.metrics_export_interval_s);
  config.store_path = Path(lookup, "DBTUNE_STORE");
  config.store_snapshot_every = Number<size_t>(
      lookup, "DBTUNE_STORE_SNAPSHOT_EVERY", &config.warnings);
  config.num_threads =
      Number<size_t>(lookup, "DBTUNE_NUM_THREADS", &config.warnings)
          .value_or(0);
  return config;
}

const EnvConfig& ProcessEnvConfig() {
  // Intentionally leaked: other translation units' static initializers
  // and destructors read it.
  static const EnvConfig* config = [] {
    auto* parsed = new EnvConfig(  // dbtune-lint: allow(naked-new)
        ParseEnvConfig([](const char* name) { return std::getenv(name); }));
    for (const std::string& warning : parsed->warnings) {
      DBTUNE_LOG(kWarning) << warning;
    }
    return parsed;
  }();
  return *config;
}

}  // namespace dbtune
