#ifndef DBTUNE_SERVE_BATCH_SCHEDULER_H_
#define DBTUNE_SERVE_BATCH_SCHEDULER_H_

#include <cstdint>
#include <deque>
#include <map>
#include <string>
#include <vector>

#include "dbms/environment.h"
#include "serve/session_manager.h"
#include "util/status.h"

namespace dbtune::serve {

struct SchedulerOptions {
  /// Maximum requests executed per wave (one per session). Width 1 runs
  /// one session at a time: the sequential baseline.
  size_t batch_width = 64;
};

/// Cross-session request batcher: the throughput engine of the serving
/// layer. Suggest and observe requests queue per session; each `Pump`
/// assembles one *wave* — at most one request per session, sessions in
/// id order, capped at `batch_width` — and executes it via ParallelFor
/// on the process-wide pool (sized by DBTUNE_NUM_THREADS) with one index
/// per session. Whole sessions are the unit of parallelism: a worker runs
/// its session's full Suggest (surrogate fit plus fused
/// PredictMeanVarBatch acquisition scoring, which nests inline on the
/// worker), so the pool is saturated by inter-session work instead of
/// fighting over intra-session scraps.
///
/// Determinism: wave assembly is session-id-ordered, every worker
/// writes only its own result slot, and results scatter back in slot
/// order — so each session sees exactly the same request sequence at
/// any batch width, pool size, or interleaving, and its trajectory is
/// bitwise identical to the standalone in-process loop.
///
/// Threading contract: enqueue/pump/take are called from one driver
/// thread (the server loop); concurrency happens *inside* Pump. The
/// scheduler path must stay non-blocking — no file I/O, no sleeps, no
/// bare waits (the `blocking-in-scheduler` analyzer check enforces
/// this); ParallelFor is the only sanctioned join.
class BatchScheduler {
 public:
  explicit BatchScheduler(SessionManager* manager,
                          SchedulerOptions options = {});

  BatchScheduler(const BatchScheduler&) = delete;
  BatchScheduler& operator=(const BatchScheduler&) = delete;

  /// Queues a suggest for `session_id`; returns the ticket to redeem
  /// with `TakeSuggest` after a pump.
  uint64_t EnqueueSuggest(std::string session_id);

  /// Queues an observe carrying the evaluated outcome.
  uint64_t EnqueueObserve(std::string session_id, Observation observation);

  /// Executes one wave. Returns the number of requests executed.
  size_t Pump();

  /// Pumps until no requests are pending; returns the total executed.
  size_t Drain();

  /// Requests enqueued but not yet executed.
  size_t pending() const { return pending_count_; }

  /// Sessions with at least one request queued (a drained session's
  /// queue is dropped, so this stays bounded under session churn).
  size_t queued_sessions() const { return queues_.size(); }

  /// Result of a completed suggest ticket (one-shot: the ticket is
  /// consumed). FailedPrecondition when the ticket is unknown or its
  /// request has not been pumped yet.
  [[nodiscard]] Result<Configuration> TakeSuggest(uint64_t ticket);

  /// Outcome of a completed observe ticket (one-shot, as above).
  [[nodiscard]] Status TakeObserve(uint64_t ticket);

 private:
  enum class RequestKind { kSuggest, kObserve };

  struct Request {
    uint64_t ticket = 0;
    RequestKind kind = RequestKind::kSuggest;
    Observation observation;  // kObserve only
  };

  /// Executed outcome, indexed by ticket until taken.
  struct Completed {
    RequestKind kind = RequestKind::kSuggest;
    Status status = Status::OK();
    Configuration config;  // kSuggest, when status is OK
  };

  /// Runs one request against the manager on a pool worker.
  Completed Execute(const std::string& session_id, const Request& request);

  SessionManager* const manager_;
  const SchedulerOptions options_;

  using QueueMap = std::map<std::string, std::deque<Request>>;

  /// Per-session FIFO queues, id-ordered for deterministic wave
  /// assembly. Never holds an empty queue.
  QueueMap queues_;
  std::map<uint64_t, Completed> completed_;
  uint64_t next_ticket_ = 1;
  size_t pending_count_ = 0;
};

}  // namespace dbtune::serve

#endif  // DBTUNE_SERVE_BATCH_SCHEDULER_H_
