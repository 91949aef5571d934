#include "serve/batch_scheduler.h"

#include <utility>

#include "obs/metrics.h"
#include "util/thread_pool.h"

namespace dbtune::serve {

namespace {

obs::Histogram& BatchWidthHistogram() {
  static obs::Histogram& hist =
      obs::MetricsRegistry::Get().histogram("serve.batch.width");
  return hist;
}

/// A zero batch width would make every pump a no-op and Drain spin-free
/// but useless; clamp to 1 (degenerate sequential batching).
SchedulerOptions Normalize(SchedulerOptions options) {
  if (options.batch_width == 0) options.batch_width = 1;
  return options;
}

}  // namespace

BatchScheduler::BatchScheduler(SessionManager* manager,
                               SchedulerOptions options)
    : manager_(manager), options_(Normalize(options)) {}

uint64_t BatchScheduler::Enqueue(std::string session_id, Request request) {
  request.ticket = next_ticket_++;
  const uint64_t ticket = request.ticket;
  const bool close = request.kind == RequestKind::kClose;
  auto queue = queues_.try_emplace(std::move(session_id)).first;
  queue->second.push_back(std::move(request));
  ++pending_count_;
  // The queue stays in the map while it holds this close, so the
  // iterator is valid for as long as the close is in `close_order_`.
  if (close) close_order_.emplace_back(ticket, queue);
  return ticket;
}

uint64_t BatchScheduler::EnqueueCreate(std::string session_id,
                                       ServedSessionOptions options) {
  Request request;
  request.kind = RequestKind::kCreate;
  request.options = std::move(options);
  return Enqueue(std::move(session_id), std::move(request));
}

uint64_t BatchScheduler::EnqueueSuggest(std::string session_id) {
  Request request;
  request.kind = RequestKind::kSuggest;
  return Enqueue(std::move(session_id), std::move(request));
}

uint64_t BatchScheduler::EnqueueObserve(std::string session_id,
                                        Observation observation) {
  Request request;
  request.kind = RequestKind::kObserve;
  request.observation = std::move(observation);
  return Enqueue(std::move(session_id), std::move(request));
}

uint64_t BatchScheduler::EnqueueClose(std::string session_id) {
  Request request;
  request.kind = RequestKind::kClose;
  return Enqueue(std::move(session_id), std::move(request));
}

BatchScheduler::Completed BatchScheduler::Execute(
    const std::string& session_id, const Request& request) {
  Completed done;
  done.kind = request.kind;
  switch (request.kind) {
    case RequestKind::kCreate:
      done.status = manager_->CreateSession(session_id, request.options,
                                            &done.replayed);
      break;
    case RequestKind::kSuggest: {
      Result<Configuration> suggested = manager_->Suggest(session_id);
      if (suggested.ok()) {
        done.config = std::move(suggested).value();
      } else {
        done.status = suggested.status();
      }
      break;
    }
    case RequestKind::kObserve:
      done.status = manager_->Observe(session_id, request.observation);
      break;
    case RequestKind::kClose:
      done.status = manager_->CloseSession(session_id);
      break;
  }
  return done;
}

size_t BatchScheduler::Pump() {
  // Wave assembly: at most one request per session, capped at
  // batch_width. Closes come first, in the order they were enqueued: the
  // longest run of the close FIFO whose closes are each next in their
  // session's queue. A close seals its session into the store, so the
  // seal order is the request stream's at every width. The earliest close
  // waits only for its own session's earlier requests, which the id-order
  // pass below always offers, so every wave makes progress. Then every
  // other session whose next request is not a close, in id order.
  // Every queue in the map is non-empty: a drained one is erased below.
  std::vector<QueueMap::iterator> wave_queues;
  wave_queues.reserve(options_.batch_width);
  for (const auto& [ticket, queue] : close_order_) {
    if (wave_queues.size() == options_.batch_width ||
        queue->second.front().ticket != ticket) {
      break;
    }
    wave_queues.push_back(queue);
  }
  const size_t closes = wave_queues.size();
  for (auto it = queues_.begin();
       it != queues_.end() && wave_queues.size() < options_.batch_width;
       ++it) {
    if (it->second.front().kind != RequestKind::kClose) {
      wave_queues.push_back(it);
    }
  }
  if (wave_queues.empty()) return 0;
  if (obs::MetricsEnabled()) {
    BatchWidthHistogram().Record(static_cast<double>(wave_queues.size()));
  }

  std::vector<Request> wave(wave_queues.size());
  for (size_t i = 0; i < wave_queues.size(); ++i) {
    wave[i] = std::move(wave_queues[i]->second.front());
    wave_queues[i]->second.pop_front();
  }
  close_order_.erase(close_order_.begin(), close_order_.begin() + closes);

  // The closes run on this thread, in FIFO order. No two slots share a
  // session, so running them ahead of the lanes reorders nothing within
  // a session.
  std::vector<Completed> results(wave.size());
  for (size_t i = 0; i < closes; ++i) {
    results[i] = Execute(wave_queues[i]->first, wave[i]);
  }
  // Whole-session fan-out: one index per session, each worker writing
  // only its own result slot (the ParallelFor determinism contract).
  ParallelFor(GlobalPool(), closes, wave.size(), 1,
              [&](size_t begin, size_t end) {
                for (size_t i = begin; i < end; ++i) {
                  results[i] = Execute(wave_queues[i]->first, wave[i]);
                }
              });

  for (size_t i = 0; i < wave.size(); ++i) {
    completed_.emplace(wave[i].ticket, std::move(results[i]));
  }
  // Only now may drained queues go: the workers above read their session
  // ids through `wave_queues`, which point into the map. Erasing them
  // bounds the map (and every Pump's walk) by the sessions with work
  // queued, not by every id ever seen.
  for (const QueueMap::iterator& it : wave_queues) {
    if (it->second.empty()) queues_.erase(it);
  }
  pending_count_ -= wave.size();
  return wave.size();
}

size_t BatchScheduler::Drain() {
  size_t total = 0;
  while (pending_count_ > 0) {
    const size_t executed = Pump();
    if (executed == 0) break;
    total += executed;
  }
  return total;
}

Result<BatchScheduler::Completed> BatchScheduler::Take(uint64_t ticket,
                                                       RequestKind kind) {
  static constexpr const char* kNames[] = {"create", "suggest", "observe",
                                           "close"};
  const char* name = kNames[static_cast<size_t>(kind)];
  auto it = completed_.find(ticket);
  if (it == completed_.end()) {
    return Status::FailedPrecondition(std::string(name) + " ticket " +
                                      std::to_string(ticket) +
                                      " is unknown or not yet pumped");
  }
  Completed done = std::move(it->second);
  completed_.erase(it);
  if (done.kind != kind) {
    return Status::InvalidArgument("ticket " + std::to_string(ticket) +
                                   " is not a " + name + " ticket");
  }
  return done;
}

Result<size_t> BatchScheduler::TakeCreate(uint64_t ticket) {
  DBTUNE_ASSIGN_OR_RETURN(Completed done, Take(ticket, RequestKind::kCreate));
  if (!done.status.ok()) return done.status;
  return done.replayed;
}

Result<Configuration> BatchScheduler::TakeSuggest(uint64_t ticket) {
  DBTUNE_ASSIGN_OR_RETURN(Completed done,
                          Take(ticket, RequestKind::kSuggest));
  if (!done.status.ok()) return done.status;
  return std::move(done.config);
}

Status BatchScheduler::TakeObserve(uint64_t ticket) {
  DBTUNE_ASSIGN_OR_RETURN(Completed done,
                          Take(ticket, RequestKind::kObserve));
  return done.status;
}

Status BatchScheduler::TakeClose(uint64_t ticket) {
  DBTUNE_ASSIGN_OR_RETURN(Completed done, Take(ticket, RequestKind::kClose));
  return done.status;
}

}  // namespace dbtune::serve
