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

uint64_t BatchScheduler::EnqueueSuggest(std::string session_id) {
  Request request;
  request.ticket = next_ticket_++;
  request.kind = RequestKind::kSuggest;
  const uint64_t ticket = request.ticket;
  queues_[std::move(session_id)].push_back(std::move(request));
  ++pending_count_;
  return ticket;
}

uint64_t BatchScheduler::EnqueueObserve(std::string session_id,
                                        Observation observation) {
  Request request;
  request.ticket = next_ticket_++;
  request.kind = RequestKind::kObserve;
  request.observation = std::move(observation);
  const uint64_t ticket = request.ticket;
  queues_[std::move(session_id)].push_back(std::move(request));
  ++pending_count_;
  return ticket;
}

BatchScheduler::Completed BatchScheduler::Execute(
    const std::string& session_id, const Request& request) {
  Completed done;
  done.kind = request.kind;
  if (request.kind == RequestKind::kSuggest) {
    Result<Configuration> suggested = manager_->Suggest(session_id);
    if (suggested.ok()) {
      done.config = std::move(suggested).value();
    } else {
      done.status = suggested.status();
    }
  } else {
    done.status = manager_->Observe(session_id, request.observation);
  }
  return done;
}

size_t BatchScheduler::Pump() {
  // Wave assembly: at most one request per session, sessions in id
  // order, capped at batch_width — deterministic regardless of enqueue
  // interleaving across sessions.
  // Every queue in the map is non-empty: a drained one is erased below.
  std::vector<QueueMap::iterator> wave_queues;
  wave_queues.reserve(options_.batch_width);
  for (auto it = queues_.begin();
       it != queues_.end() && wave_queues.size() < options_.batch_width;
       ++it) {
    wave_queues.push_back(it);
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

  // Whole-session fan-out: one index per session, each worker writing
  // only its own result slot (the ParallelFor determinism contract).
  std::vector<Completed> results(wave.size());
  ParallelFor(GlobalPool(), 0, wave.size(), 1, [&](size_t begin, size_t end) {
    for (size_t i = begin; i < end; ++i) {
      results[i] = Execute(wave_queues[i]->first, wave[i]);
    }
  });

  // Deterministic scatter: slot order == session-id order.
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

Result<Configuration> BatchScheduler::TakeSuggest(uint64_t ticket) {
  auto it = completed_.find(ticket);
  if (it == completed_.end()) {
    return Status::FailedPrecondition("suggest ticket " +
                                      std::to_string(ticket) +
                                      " is unknown or not yet pumped");
  }
  Completed done = std::move(it->second);
  completed_.erase(it);
  if (done.kind != RequestKind::kSuggest) {
    return Status::InvalidArgument("ticket " + std::to_string(ticket) +
                                   " is not a suggest ticket");
  }
  if (!done.status.ok()) return done.status;
  return std::move(done.config);
}

Status BatchScheduler::TakeObserve(uint64_t ticket) {
  auto it = completed_.find(ticket);
  if (it == completed_.end()) {
    return Status::FailedPrecondition("observe ticket " +
                                      std::to_string(ticket) +
                                      " is unknown or not yet pumped");
  }
  Completed done = std::move(it->second);
  completed_.erase(it);
  if (done.kind != RequestKind::kObserve) {
    return Status::InvalidArgument("ticket " + std::to_string(ticket) +
                                   " is not an observe ticket");
  }
  return done.status;
}

}  // namespace dbtune::serve
