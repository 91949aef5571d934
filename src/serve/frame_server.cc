#include "serve/frame_server.h"

#include <utility>
#include <vector>

namespace dbtune::serve {

namespace {

/// Converts a decoded ObserveRequest's payload into the library's
/// Observation value.
Observation ToObservation(const ObserveRequest& request) {
  Observation observation;
  observation.config = Configuration(request.config);
  observation.score = request.score;
  observation.objective = request.objective;
  observation.failed = request.failed != 0;
  observation.internal_metrics = request.internal_metrics;
  return observation;
}

/// Field-by-field copy of the wire request. The optimizer byte is range
/// checked before it becomes an OptimizerType; SessionManager::
/// CreateSession validates every other value.
Result<ServedSessionOptions> ToSessionOptions(
    const CreateSessionRequest& request) {
  if (request.optimizer_type >
      static_cast<uint8_t>(OptimizerType::kRandomSearch)) {
    return Status::InvalidArgument("unknown optimizer type " +
                                   std::to_string(request.optimizer_type));
  }
  ServedSessionOptions options;
  options.space_name = request.space_name;
  options.optimizer_type =
      static_cast<OptimizerType>(request.optimizer_type);
  options.seed = request.seed;
  options.reference_score = request.reference_score;
  options.initial_design = request.initial_design;
  options.acquisition_candidates = request.acquisition_candidates;
  return options;
}

std::string ErrorResponseFor(const Frame& frame, const Status& status) {
  switch (frame.type) {
    case MessageType::kCreateSession: {
      CreateSessionResponse response;
      response.header = HeaderFromStatus(status);
      return EncodeCreateSessionResponse(frame.request_id, response);
    }
    case MessageType::kSuggest: {
      SuggestResponse response;
      response.header = HeaderFromStatus(status);
      return EncodeSuggestResponse(frame.request_id, response);
    }
    case MessageType::kObserve: {
      ObserveResponse response;
      response.header = HeaderFromStatus(status);
      return EncodeObserveResponse(frame.request_id, response);
    }
    default: {
      CloseSessionResponse response;
      response.header = HeaderFromStatus(status);
      return EncodeCloseSessionResponse(frame.request_id, response);
    }
  }
}

}  // namespace

FrameServer::FrameServer(SessionManager* /*manager*/,
                         BatchScheduler* scheduler)
    : scheduler_(scheduler) {}

Result<uint64_t> FrameServer::Enqueue(const Frame& frame) {
  switch (frame.type) {
    case MessageType::kCreateSession: {
      DBTUNE_ASSIGN_OR_RETURN(CreateSessionRequest request,
                              DecodeCreateSession(frame));
      DBTUNE_ASSIGN_OR_RETURN(ServedSessionOptions options,
                              ToSessionOptions(request));
      return scheduler_->EnqueueCreate(std::move(request.session_id),
                                       std::move(options));
    }
    case MessageType::kSuggest: {
      DBTUNE_ASSIGN_OR_RETURN(SuggestRequest request, DecodeSuggest(frame));
      return scheduler_->EnqueueSuggest(std::move(request.session_id));
    }
    case MessageType::kObserve: {
      DBTUNE_ASSIGN_OR_RETURN(ObserveRequest request, DecodeObserve(frame));
      return scheduler_->EnqueueObserve(std::move(request.session_id),
                                        ToObservation(request));
    }
    case MessageType::kCloseSession: {
      DBTUNE_ASSIGN_OR_RETURN(CloseSessionRequest request,
                              DecodeCloseSession(frame));
      return scheduler_->EnqueueClose(std::move(request.session_id));
    }
    default:
      return Status::InvalidArgument(
          "unexpected message type " +
          std::to_string(static_cast<int>(frame.type)));
  }
}

std::string FrameServer::TakeResponse(const Frame& frame, uint64_t ticket) {
  switch (frame.type) {
    case MessageType::kCreateSession: {
      CreateSessionResponse response;
      Result<size_t> replayed = scheduler_->TakeCreate(ticket);
      if (replayed.ok()) response.replayed = *replayed;
      response.header = HeaderFromStatus(replayed.status());
      return EncodeCreateSessionResponse(frame.request_id, response);
    }
    case MessageType::kSuggest: {
      SuggestResponse response;
      Result<Configuration> suggested = scheduler_->TakeSuggest(ticket);
      if (suggested.ok()) response.config = suggested->values();
      response.header = HeaderFromStatus(suggested.status());
      return EncodeSuggestResponse(frame.request_id, response);
    }
    case MessageType::kObserve: {
      ObserveResponse response;
      response.header = HeaderFromStatus(scheduler_->TakeObserve(ticket));
      return EncodeObserveResponse(frame.request_id, response);
    }
    default: {
      CloseSessionResponse response;
      response.header = HeaderFromStatus(scheduler_->TakeClose(ticket));
      return EncodeCloseSessionResponse(frame.request_id, response);
    }
  }
}

Status FrameServer::ServeBuffered(LoopbackTransport* transport) {
  reader_.Append(transport->DrainServerInbox());
  std::vector<Frame> frames;
  Frame frame;
  while (true) {
    DBTUNE_ASSIGN_OR_RETURN(const bool got, reader_.Next(&frame));
    if (!got) break;
    frames.push_back(std::move(frame));
  }
  if (frames.empty()) return Status::OK();

  // Every request that names a session joins its FIFO in the scheduler,
  // and the buffer drains once: each session sees its own requests in the
  // order they were sent, while creates (and their replays), suggests and
  // observes of distinct sessions share waves. Only frames that touch no
  // session, decode errors and response-typed frames, are answered here.
  // Responses are delivered in request order.
  std::vector<std::string> responses(frames.size());
  // Tickets of enqueued requests, paired with their frame index.
  std::vector<std::pair<size_t, uint64_t>> tickets;
  tickets.reserve(frames.size());
  for (size_t i = 0; i < frames.size(); ++i) {
    Result<uint64_t> ticket = Enqueue(frames[i]);
    if (ticket.ok()) {
      tickets.emplace_back(i, *ticket);
    } else {
      responses[i] = ErrorResponseFor(frames[i], ticket.status());
    }
  }
  scheduler_->Drain();
  for (const auto& [index, ticket] : tickets) {
    responses[index] = TakeResponse(frames[index], ticket);
  }
  for (const std::string& response : responses) {
    transport->SendToClient(response);
  }
  return Status::OK();
}

}  // namespace dbtune::serve
