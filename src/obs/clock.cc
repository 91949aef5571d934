#include "obs/clock.h"

#include <atomic>
#include <chrono>

#include "util/env_config.h"

namespace dbtune::obs {

namespace {

// 1ms per call: large enough that derived "latencies" are visibly
// non-zero in goldens, small enough that a full session stays readable
// in a trace viewer.
constexpr uint64_t kFakeTickNanos = 1000000;

std::atomic<uint64_t> g_fake_tick{0};

std::atomic<bool> g_fake_clock{ProcessEnvConfig().fake_clock};

}  // namespace

uint64_t MonotonicNanos() {
  if (g_fake_clock.load(std::memory_order_relaxed)) {
    return g_fake_tick.fetch_add(kFakeTickNanos, std::memory_order_relaxed);
  }
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

double MonotonicSeconds() {
  return static_cast<double>(MonotonicNanos()) * 1e-9;
}

void EnableFakeClockForTest() {
  g_fake_tick.store(0, std::memory_order_relaxed);
  g_fake_clock.store(true, std::memory_order_relaxed);
}

void DisableFakeClockForTest() {
  g_fake_clock.store(false, std::memory_order_relaxed);
}

bool FakeClockActive() {
  return g_fake_clock.load(std::memory_order_relaxed);
}

}  // namespace dbtune::obs
