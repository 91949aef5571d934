#ifndef DBTUNE_SERVE_BATCH_SCHEDULER_H_
#define DBTUNE_SERVE_BATCH_SCHEDULER_H_

#include <cstdint>
#include <deque>
#include <map>
#include <string>
#include <utility>
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
/// layer. Create, suggest, observe and close requests queue in one FIFO
/// per session; each `Pump` assembles one *wave* — at most one request
/// per session, capped at `batch_width` — and executes it in two steps.
/// The wave's closes come first and run on the calling thread, in the
/// order they were enqueued: a wave takes the closes at the front of the
/// scheduler-wide close FIFO whose sessions have no earlier request
/// queued. Then the other sessions fill the wave in id order, and one
/// ParallelFor on the process-wide pool (sized by DBTUNE_NUM_THREADS)
/// runs their creates, suggests and observes, one index per session.
/// Whole sessions are the unit of parallelism: a worker runs its
/// session's full Suggest (surrogate fit plus fused PredictMeanVarBatch
/// acquisition scoring, which nests inline on the worker), or a create's
/// replay of the stored history, so the pool is saturated by
/// inter-session work instead of fighting over intra-session scraps.
///
/// Determinism: wave assembly depends only on the queued requests, every
/// worker writes only its own result slot, and each session sees exactly
/// its own requests in the order they were enqueued, at any batch width,
/// pool size, or interleaving — so its trajectory is bitwise identical to
/// the standalone in-process loop. Closes seal sessions into the store
/// one at a time in enqueue order, so the store's seal order is the
/// request stream's at every batch width and pool size.
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

  /// Queues a create (SessionManager::CreateSession); returns the ticket
  /// to redeem with `TakeCreate` after a pump.
  uint64_t EnqueueCreate(std::string session_id, ServedSessionOptions options);

  /// Queues a suggest for `session_id`; returns the ticket to redeem
  /// with `TakeSuggest` after a pump.
  uint64_t EnqueueSuggest(std::string session_id);

  /// Queues an observe carrying the evaluated outcome.
  uint64_t EnqueueObserve(std::string session_id, Observation observation);

  /// Queues a close (SessionManager::CloseSession).
  uint64_t EnqueueClose(std::string session_id);

  /// Executes one wave. Returns the number of requests executed.
  size_t Pump();

  /// Pumps until no requests are pending; returns the total executed.
  size_t Drain();

  /// Requests enqueued but not yet executed.
  size_t pending() const { return pending_count_; }

  /// Sessions with at least one request queued (a drained session's
  /// queue is dropped, so this stays bounded under session churn).
  size_t queued_sessions() const { return queues_.size(); }

  /// Outcome of a completed create ticket: the number of stored
  /// observations the session replayed. One-shot: the ticket is
  /// consumed. FailedPrecondition when the ticket is unknown or its
  /// request has not been pumped yet; InvalidArgument when it is another
  /// kind's ticket.
  [[nodiscard]] Result<size_t> TakeCreate(uint64_t ticket);

  /// Result of a completed suggest ticket (one-shot, as above).
  [[nodiscard]] Result<Configuration> TakeSuggest(uint64_t ticket);

  /// Outcome of a completed observe ticket (one-shot, as above).
  [[nodiscard]] Status TakeObserve(uint64_t ticket);

  /// Outcome of a completed close ticket (one-shot, as above).
  [[nodiscard]] Status TakeClose(uint64_t ticket);

 private:
  enum class RequestKind { kCreate, kSuggest, kObserve, kClose };

  struct Request {
    uint64_t ticket = 0;
    RequestKind kind = RequestKind::kSuggest;
    ServedSessionOptions options;  // kCreate only
    Observation observation;       // kObserve only
  };

  /// Executed outcome, indexed by ticket until taken.
  struct Completed {
    RequestKind kind = RequestKind::kSuggest;
    Status status = Status::OK();
    Configuration config;  // kSuggest, when status is OK
    size_t replayed = 0;   // kCreate
  };

  uint64_t Enqueue(std::string session_id, Request request);

  /// Runs one request against the manager.
  Completed Execute(const std::string& session_id, const Request& request);

  /// Removes and returns the outcome of `ticket`, which must be of `kind`.
  [[nodiscard]] Result<Completed> Take(uint64_t ticket, RequestKind kind);

  SessionManager* const manager_;
  const SchedulerOptions options_;

  using QueueMap = std::map<std::string, std::deque<Request>>;

  /// Per-session FIFO queues, id-ordered for deterministic wave
  /// assembly. Never holds an empty queue.
  QueueMap queues_;
  /// Every queued close, in enqueue order, with its session's queue: a
  /// wave runs closes only from the front of this FIFO.
  std::deque<std::pair<uint64_t, QueueMap::iterator>> close_order_;
  std::map<uint64_t, Completed> completed_;
  uint64_t next_ticket_ = 1;
  size_t pending_count_ = 0;
};

}  // namespace dbtune::serve

#endif  // DBTUNE_SERVE_BATCH_SCHEDULER_H_
