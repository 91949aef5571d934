#ifndef DBTUNE_UTIL_LOGGING_H_
#define DBTUNE_UTIL_LOGGING_H_

#include <sstream>
#include <string>

namespace dbtune {

/// Severity levels for the lightweight logger.
enum class LogLevel { kDebug = 0, kInfo = 1, kWarning = 2, kError = 3 };

namespace internal_logging {

/// Emits one formatted log line to stderr. Lines below kWarning are
/// dropped, so library internals stay quiet in tests and benches. Each
/// line goes out in a single fwrite, so concurrent lines from pool
/// workers never interleave mid-line.
void Emit(LogLevel level, const char* file, int line, const std::string& msg);

/// Aborts the process after printing a CHECK failure message.
[[noreturn]] void CheckFail(const char* file, int line, const char* expr,
                            const std::string& msg);

/// Stream collector used by the logging macros.
class LogMessage {
 public:
  LogMessage(LogLevel level, const char* file, int line)
      : level_(level), file_(file), line_(line) {}
  ~LogMessage() { Emit(level_, file_, line_, stream_.str()); }
  std::ostringstream& stream() { return stream_; }

 private:
  LogLevel level_;
  const char* file_;
  int line_;
  std::ostringstream stream_;
};

}  // namespace internal_logging

/// Usage: DBTUNE_LOG(kInfo) << "fit took " << ms << "ms";
#define DBTUNE_LOG(severity)                                              \
  ::dbtune::internal_logging::LogMessage(::dbtune::LogLevel::severity,    \
                                         __FILE__, __LINE__)              \
      .stream()

/// Invariant check: aborts with a message when `cond` is false. Used for
/// programmer errors (API misuse inside the library), not for recoverable
/// conditions, which return Status.
#define DBTUNE_CHECK(cond)                                                  \
  do {                                                                      \
    if (!(cond)) {                                                          \
      ::dbtune::internal_logging::CheckFail(__FILE__, __LINE__, #cond, ""); \
    }                                                                       \
  } while (false)

#define DBTUNE_CHECK_MSG(cond, msg)                                         \
  do {                                                                      \
    if (!(cond)) {                                                          \
      ::dbtune::internal_logging::CheckFail(__FILE__, __LINE__, #cond,      \
                                            (msg));                         \
    }                                                                       \
  } while (false)

}  // namespace dbtune

#endif  // DBTUNE_UTIL_LOGGING_H_
