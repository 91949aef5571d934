#include "util/thread_pool.h"

#include <algorithm>
#include <atomic>
#include <exception>
#include <string>

#include "obs/clock.h"
#include "obs/metrics.h"
#include "util/env_config.h"
#include "util/logging.h"

namespace dbtune {

namespace {

// Set while a thread is executing pool work; nested ParallelFor calls on
// such a thread run inline instead of re-entering the queue (waiting on
// the queue from a worker can deadlock once every worker is waiting).
thread_local bool t_in_pool_worker = false;

}  // namespace

ThreadPool::ThreadPool(size_t size) : size_(std::max<size_t>(1, size)) {
  if (size_ == 1) return;  // sequential fallback: no threads at all
  workers_.reserve(size_);
  for (size_t i = 0; i < size_; ++i) {
    workers_.emplace_back([this, i] { WorkerLoop(i); });
  }
}

ThreadPool::~ThreadPool() {
  {
    MutexLock lock(&mu_);
    shutdown_ = true;
  }
  cv_.NotifyAll();
  for (std::thread& worker : workers_) worker.join();
}

void ThreadPool::Submit(std::function<void()> task) {
  DBTUNE_CHECK(task != nullptr);
  if (workers_.empty()) {
    task();
    return;
  }
  {
    MutexLock lock(&mu_);
    queue_.push_back(std::move(task));
    if (obs::MetricsEnabled()) {
      static obs::Gauge& depth =
          obs::MetricsRegistry::Get().gauge("pool.queue_depth");
      depth.Set(static_cast<double>(queue_.size()));
      static obs::Gauge& peak =
          obs::MetricsRegistry::Get().gauge("pool.queue_depth_peak");
      peak.Max(static_cast<double>(queue_.size()));
    }
  }
  cv_.NotifyOne();
}

bool ThreadPool::InWorkerThread() const { return t_in_pool_worker; }

void ThreadPool::WorkerLoop(size_t worker) {
  t_in_pool_worker = true;
  // Handles are resolved once per worker; recording is lock-free.
  obs::Gauge& worker_busy = obs::MetricsRegistry::Get().gauge(
      "pool.worker_busy_seconds." + std::to_string(worker));
  for (;;) {
    std::function<void()> task;
    {
      MutexLock lock(&mu_);
      while (!shutdown_ && queue_.empty()) cv_.Wait(&mu_);
      if (queue_.empty()) return;  // shutdown with a drained queue
      task = std::move(queue_.front());
      queue_.pop_front();
    }
    if (obs::MetricsEnabled()) {
      static obs::Counter& executed =
          obs::MetricsRegistry::Get().counter("pool.tasks_executed");
      const double start = obs::MonotonicSeconds();
      task();
      executed.Increment();
      worker_busy.Add(obs::MonotonicSeconds() - start);
    } else {
      task();
    }
  }
}

void ParallelFor(ThreadPool* pool, size_t begin, size_t end, size_t grain,
                 const std::function<void(size_t, size_t)>& fn) {
  if (begin >= end) return;
  grain = std::max<size_t>(1, grain);
  const size_t count = end - begin;
  const bool sequential = pool == nullptr || pool->size() == 1 ||
                          count <= grain || pool->InWorkerThread();
  if (sequential) {
    fn(begin, end);
    return;
  }

  // Shared completion state for this region. Chunk boundaries depend only
  // on (begin, end, grain), never on scheduling, so any per-index output
  // written by `fn` is identical for every pool size.
  struct Region {
    Mutex mu;
    CondVar done_cv;
    size_t pending DBTUNE_GUARDED_BY(mu) = 0;
    std::exception_ptr first_error DBTUNE_GUARDED_BY(mu);
  };
  auto region = std::make_shared<Region>();
  const size_t num_chunks = (count + grain - 1) / grain;
  {
    MutexLock lock(&region->mu);
    region->pending = num_chunks;
  }

  for (size_t chunk = 0; chunk < num_chunks; ++chunk) {
    const size_t chunk_begin = begin + chunk * grain;
    const size_t chunk_end = std::min(end, chunk_begin + grain);
    pool->Submit([region, chunk_begin, chunk_end, &fn] {
      std::exception_ptr error;
      try {
        fn(chunk_begin, chunk_end);
      } catch (...) {
        error = std::current_exception();
      }
      MutexLock lock(&region->mu);
      if (error && !region->first_error) region->first_error = error;
      if (--region->pending == 0) region->done_cv.NotifyAll();
    });
  }

  std::exception_ptr first_error;
  {
    MutexLock lock(&region->mu);
    while (region->pending != 0) region->done_cv.Wait(&region->mu);
    first_error = region->first_error;
  }
  if (first_error) std::rethrow_exception(first_error);
}

ExecutionContext::ExecutionContext() {
  const size_t configured = ProcessEnvConfig().num_threads;
  MutexLock lock(&mu_);
  configured_ = configured >= 1
                    ? std::min<size_t>(configured, 256)
                    : std::max(1u, std::thread::hardware_concurrency());
}

ExecutionContext& ExecutionContext::Get() {
  // Intentionally leaked so worker threads may outlive static destructors.
  static ExecutionContext* context =
      new ExecutionContext();  // dbtune-lint: allow(naked-new)
  return *context;
}

ThreadPool& ExecutionContext::pool() {
  MutexLock lock(&mu_);
  if (!pool_) pool_ = std::make_unique<ThreadPool>(configured_);
  return *pool_;
}

size_t ExecutionContext::num_threads() {
  MutexLock lock(&mu_);
  return configured_;
}

void ExecutionContext::SetNumThreads(size_t n) {
  MutexLock lock(&mu_);
  configured_ = std::max<size_t>(1, n);
  pool_.reset();  // rebuilt lazily at the new size
}

ThreadPool* GlobalPool() { return &ExecutionContext::Get().pool(); }

}  // namespace dbtune
