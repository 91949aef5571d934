#ifndef DBTUNE_UTIL_ENV_CONFIG_H_
#define DBTUNE_UTIL_ENV_CONFIG_H_

#include <cstddef>
#include <functional>
#include <optional>
#include <string>
#include <vector>

namespace dbtune {

/// Every library switch the environment can set (README "Environment
/// variables"), one rule per kind: a flag is off when unset, "" or "0";
/// a path is unused when unset or ""; a number must parse whole as a
/// non-negative value, else the default applies with one warning.
struct EnvConfig {
  bool metrics = false;               // DBTUNE_METRICS
  bool trace = false;                 // DBTUNE_TRACE set (flag or path)
  std::string trace_path;             // DBTUNE_TRACE unless "1"
  bool fake_clock = false;            // DBTUNE_OBS_FAKE_CLOCK
  std::string session_log_path;       // DBTUNE_SESSION_LOG
  bool session_diagnostics = false;   // DBTUNE_SESSION_DIAGNOSTICS
  std::string metrics_export_path;    // DBTUNE_METRICS_EXPORT
  double metrics_export_interval_s = 10.0;  // ..._EXPORT_INTERVAL_S
  std::string store_path;             // DBTUNE_STORE
  /// DBTUNE_STORE_SNAPSHOT_EVERY; empty keeps the StoreOptions default.
  std::optional<size_t> store_snapshot_every;
  size_t num_threads = 0;             // DBTUNE_NUM_THREADS; 0: hardware
  /// One message per variable whose invalid value was ignored.
  std::vector<std::string> warnings;
};

/// A variable's value, or null when it is unset.
using EnvLookup = std::function<const char*(const char* name)>;

/// Parses every switch through `lookup`, reading nothing else.
EnvConfig ParseEnvConfig(const EnvLookup& lookup);

/// The process environment, parsed and its warnings logged on first
/// use. The only place the library reads the environment.
const EnvConfig& ProcessEnvConfig();

}  // namespace dbtune

#endif  // DBTUNE_UTIL_ENV_CONFIG_H_
