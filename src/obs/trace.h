#ifndef DBTUNE_OBS_TRACE_H_
#define DBTUNE_OBS_TRACE_H_

#include <atomic>
#include <cstdint>
#include <string>

#include "util/status.h"

namespace dbtune::obs {

/// Scoped trace spans exported as Chrome trace-event JSON (load the file
/// in chrome://tracing or https://ui.perfetto.dev). Disabled by default;
/// enable with `DBTUNE_TRACE` (EnvConfig) or `SetTraceEnabled(true)`.
///
/// When disabled, a span construction is one relaxed atomic load — the
/// clock is never read and nothing allocates.

namespace internal_trace {
extern std::atomic<bool> g_enabled;
}  // namespace internal_trace

/// True when span recording is on (fast path: one relaxed load).
inline bool TraceEnabled() {
  return internal_trace::g_enabled.load(std::memory_order_relaxed);
}

/// Turns span recording on or off process-wide.
void SetTraceEnabled(bool enabled);

/// Records one complete ("ph":"X") event covering its own lifetime.
/// Spans may nest freely; nesting is reconstructed by the viewer from
/// timestamps. Prefer the DBTUNE_TRACE_SPAN macro, which rejects
/// non-literal names at compile time.
class TraceSpan {
 public:
  explicit TraceSpan(const char* name);
  /// Dynamic-name overload for per-optimizer labels.
  explicit TraceSpan(std::string name);
  ~TraceSpan();

  TraceSpan(const TraceSpan&) = delete;
  TraceSpan& operator=(const TraceSpan&) = delete;

 private:
  std::string name_;
  uint64_t start_nanos_;
  bool active_;
};

/// Number of buffered events (for tests and overflow monitoring).
size_t TraceEventCount();

/// Drops every buffered event.
void ClearTrace();

/// Serializes the buffered events as a Chrome trace-event JSON document.
/// Timestamps are rebased to the earliest event and events are sorted by
/// (start, -duration, name, tid), so single-threaded traces serialize
/// deterministically.
std::string TraceToJson();

/// Writes `TraceToJson()` to `path`.
[[nodiscard]] Status WriteTrace(const std::string& path);

}  // namespace dbtune::obs

/// DBTUNE_TRACE_SPAN("name") — opens a span covering the rest of the
/// enclosing scope. The `"" name` concatenation makes a non-literal
/// argument a compile error, so span names are always static strings.
#define DBTUNE_OBS_CONCAT_INNER(a, b) a##b
#define DBTUNE_OBS_CONCAT(a, b) DBTUNE_OBS_CONCAT_INNER(a, b)
#define DBTUNE_TRACE_SPAN(name)                       \
  const ::dbtune::obs::TraceSpan DBTUNE_OBS_CONCAT(   \
      dbtune_trace_span_, __LINE__)("" name)

#endif  // DBTUNE_OBS_TRACE_H_
