#include "obs/trace.h"

#include <algorithm>
#include <cstdio>
#include <utility>
#include <vector>

#include "obs/clock.h"
#include "util/env_config.h"
#include "util/mutex.h"
#include "util/thread_annotations.h"

namespace dbtune::obs {

namespace internal_trace {

std::atomic<bool> g_enabled{ProcessEnvConfig().trace};

}  // namespace internal_trace

namespace {

struct TraceEvent {
  std::string name;
  uint64_t start_nanos = 0;
  uint64_t duration_nanos = 0;
  int tid = 0;
};

struct TraceBuffer {
  Mutex mu;
  std::vector<TraceEvent> events DBTUNE_GUARDED_BY(mu);
};

TraceBuffer& Buffer() {
  // Intentionally leaked: spans may close during static destruction.
  static TraceBuffer* buffer =
      new TraceBuffer();  // dbtune-lint: allow(naked-new)
  return *buffer;
}

// Small sequential ids instead of std::thread::id: stable within a
// thread, dense, and readable in the trace viewer.
int CurrentTid() {
  static std::atomic<int> next{0};
  thread_local const int tid = next.fetch_add(1, std::memory_order_relaxed);
  return tid;
}

}  // namespace

void SetTraceEnabled(bool enabled) {
  internal_trace::g_enabled.store(enabled, std::memory_order_relaxed);
}

TraceSpan::TraceSpan(const char* name)
    : TraceSpan(std::string(name)) {}

TraceSpan::TraceSpan(std::string name)
    : name_(std::move(name)),
      start_nanos_(0),
      active_(TraceEnabled()) {
  if (active_) start_nanos_ = MonotonicNanos();
}

TraceSpan::~TraceSpan() {
  if (!active_) return;
  const uint64_t end_nanos = MonotonicNanos();
  TraceEvent event;
  event.name = std::move(name_);
  event.start_nanos = start_nanos_;
  event.duration_nanos =
      end_nanos >= start_nanos_ ? end_nanos - start_nanos_ : 0;
  event.tid = CurrentTid();
  TraceBuffer& buffer = Buffer();
  MutexLock lock(&buffer.mu);
  buffer.events.push_back(std::move(event));
}

size_t TraceEventCount() {
  TraceBuffer& buffer = Buffer();
  MutexLock lock(&buffer.mu);
  return buffer.events.size();
}

void ClearTrace() {
  TraceBuffer& buffer = Buffer();
  MutexLock lock(&buffer.mu);
  buffer.events.clear();
}

std::string TraceToJson() {
  std::vector<TraceEvent> events;
  {
    TraceBuffer& buffer = Buffer();
    MutexLock lock(&buffer.mu);
    events = buffer.events;
  }
  // Parents before children at equal timestamps (longer spans first).
  std::sort(events.begin(), events.end(),
            [](const TraceEvent& a, const TraceEvent& b) {
              if (a.start_nanos != b.start_nanos) {
                return a.start_nanos < b.start_nanos;
              }
              if (a.duration_nanos != b.duration_nanos) {
                return a.duration_nanos > b.duration_nanos;
              }
              if (a.name != b.name) return a.name < b.name;
              return a.tid < b.tid;
            });
  uint64_t base = 0;
  if (!events.empty()) base = events.front().start_nanos;

  std::string out = "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  char buffer[256];
  for (size_t i = 0; i < events.size(); ++i) {
    const TraceEvent& event = events[i];
    const uint64_t ts = event.start_nanos - base;
    std::snprintf(
        buffer, sizeof(buffer),
        "%s\n{\"name\":\"%s\",\"cat\":\"dbtune\",\"ph\":\"X\","
        "\"ts\":%llu.%03llu,\"dur\":%llu.%03llu,\"pid\":1,\"tid\":%d}",
        i == 0 ? "" : ",", event.name.c_str(),
        static_cast<unsigned long long>(ts / 1000),
        static_cast<unsigned long long>(ts % 1000),
        static_cast<unsigned long long>(event.duration_nanos / 1000),
        static_cast<unsigned long long>(event.duration_nanos % 1000),
        event.tid);
    out += buffer;
  }
  out += "\n]}\n";
  return out;
}

Status WriteTrace(const std::string& path) {
  std::FILE* file = std::fopen(path.c_str(), "w");
  if (file == nullptr) {
    return Status::Internal("cannot open trace file " + path);
  }
  const std::string json = TraceToJson();
  const size_t written = std::fwrite(json.data(), 1, json.size(), file);
  const int close_result = std::fclose(file);
  if (written != json.size() || close_result != 0) {
    return Status::Internal("short write to trace file " + path);
  }
  return Status::OK();
}

}  // namespace dbtune::obs
