#include "util/logging.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>

namespace dbtune {

namespace {
constexpr LogLevel kMinLevel = LogLevel::kWarning;

const char* LevelName(LogLevel level) {
  switch (level) {
    case LogLevel::kDebug:
      return "DEBUG";
    case LogLevel::kInfo:
      return "INFO";
    case LogLevel::kWarning:
      return "WARN";
    case LogLevel::kError:
      return "ERROR";
  }
  return "?";
}
}  // namespace

namespace internal_logging {

void Emit(LogLevel level, const char* file, int line, const std::string& msg) {
  if (static_cast<int>(level) < static_cast<int>(kMinLevel)) return;
  // Preformat the whole line and hand it to stderr in one fwrite: stdio
  // locks the stream per call, so concurrent worker-thread log lines can
  // interleave between calls but never mid-line.
  char buffer[1024];
  const int n = std::snprintf(buffer, sizeof(buffer), "[%s %s:%d] %s\n",
                              LevelName(level), file, line, msg.c_str());
  if (n <= 0) return;
  const size_t len = std::min(static_cast<size_t>(n), sizeof(buffer) - 1);
  std::fwrite(buffer, 1, len, stderr);
}

void CheckFail(const char* file, int line, const char* expr,
               const std::string& msg) {
  std::fprintf(stderr, "[CHECK FAILED %s:%d] %s %s\n", file, line, expr,
               msg.c_str());
  std::abort();
}

}  // namespace internal_logging
}  // namespace dbtune
