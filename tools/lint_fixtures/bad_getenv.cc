// Fixture: environment reads outside util/env_config.cc (raw-getenv rule).

#include <cstdlib>
#include <string>

bool BadMetricsSwitch() { return std::getenv("DBTUNE_METRICS") != nullptr; }

std::string BadStorePath() {
  const char* path = getenv("DBTUNE_STORE");
  return path == nullptr ? "" : path;
}

const char* BadSecureRead() { return secure_getenv("DBTUNE_TRACE"); }

const char* AllowedRead() {
  return std::getenv("HOME");  // dbtune-lint: allow(raw-getenv)
}
