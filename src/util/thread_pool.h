#ifndef DBTUNE_UTIL_THREAD_POOL_H_
#define DBTUNE_UTIL_THREAD_POOL_H_

#include <cstddef>
#include <deque>
#include <functional>
#include <memory>
#include <thread>
#include <vector>

#include "util/mutex.h"
#include "util/thread_annotations.h"

namespace dbtune {

/// Fixed-size thread pool with a single shared task queue (no work
/// stealing; the library's parallel regions are coarse enough that a
/// plain queue is contention-free in practice).
///
/// A pool of size 1 spawns no threads at all: `Submit` runs the task
/// inline and `ParallelFor` degenerates to a sequential loop, so every
/// call site stays exercisable single-threaded (tests, TSan, valgrind).
class ThreadPool {
 public:
  /// Creates `size` logical execution lanes. `size == 1` (or 0, which is
  /// clamped to 1) means sequential inline execution with no threads.
  explicit ThreadPool(size_t size);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Logical parallelism (>= 1).
  size_t size() const { return size_; }

  /// Enqueues `task` for asynchronous execution (inline when size()==1).
  /// Tasks must not throw; exceptions from `ParallelFor` bodies are
  /// captured and rethrown by `ParallelFor` itself.
  void Submit(std::function<void()> task);

  /// True when the calling thread is one of this pool's workers. Used to
  /// run nested parallel regions inline instead of deadlocking the queue.
  bool InWorkerThread() const;

 private:
  void WorkerLoop(size_t worker);

  size_t size_;
  std::vector<std::thread> workers_;
  mutable Mutex mu_;
  CondVar cv_;
  std::deque<std::function<void()>> queue_ DBTUNE_GUARDED_BY(mu_);
  bool shutdown_ DBTUNE_GUARDED_BY(mu_) = false;
};

/// Splits [begin, end) into chunks of at most `grain` indices and runs
/// `fn(chunk_begin, chunk_end)` for each chunk on `pool`, blocking until
/// every chunk finished. Runs sequentially when `pool` is null, has size
/// 1, the range fits in one grain, or the caller is already a pool worker
/// (nested parallelism executes inline — the queue is never waited on
/// from inside itself).
///
/// The first exception thrown by any chunk is rethrown on the calling
/// thread after all chunks have drained.
///
/// Determinism contract: `fn` must only write state owned by its index
/// range; with that discipline results are bit-identical for every pool
/// size, because chunk boundaries never depend on thread scheduling.
void ParallelFor(ThreadPool* pool, size_t begin, size_t end, size_t grain,
                 const std::function<void(size_t, size_t)>& fn);

/// Process-wide execution context owning the shared thread pool.
///
/// Pool size resolution order: explicit `SetNumThreads`, the
/// `DBTUNE_NUM_THREADS` switch of `ProcessEnvConfig()` (capped at 256),
/// then `std::thread::hardware_concurrency()`.
class ExecutionContext {
 public:
  /// The process-wide context (created on first use).
  static ExecutionContext& Get();

  /// The shared pool (created lazily at the resolved size).
  ThreadPool& pool();

  /// Resolved parallelism without forcing pool creation.
  size_t num_threads();

  /// Rebuilds the pool at `n` lanes (clamped to >= 1). Intended for
  /// benchmarks and tests that sweep thread counts; do not call while
  /// parallel work is in flight.
  void SetNumThreads(size_t n);

 private:
  ExecutionContext();

  Mutex mu_;
  std::unique_ptr<ThreadPool> pool_ DBTUNE_GUARDED_BY(mu_);
  size_t configured_ DBTUNE_GUARDED_BY(mu_);
};

/// Shorthand for `ExecutionContext::Get().pool()`.
ThreadPool* GlobalPool();

}  // namespace dbtune

#endif  // DBTUNE_UTIL_THREAD_POOL_H_
