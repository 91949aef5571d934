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

/// Field-by-field copy of the wire request; SessionManager::CreateSession
/// validates the values.
ServedSessionOptions ToSessionOptions(const CreateSessionRequest& request) {
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

FrameServer::FrameServer(SessionManager* manager, BatchScheduler* scheduler)
    : manager_(manager), scheduler_(scheduler) {}

std::string FrameServer::HandleBarrier(const Frame& frame) {
  switch (frame.type) {
    case MessageType::kCreateSession: {
      Result<CreateSessionRequest> request = DecodeCreateSession(frame);
      if (!request.ok()) return ErrorResponseFor(frame, request.status());
      CreateSessionResponse response;
      size_t replayed = 0;
      response.header = HeaderFromStatus(manager_->CreateSession(
          request->session_id, ToSessionOptions(*request), &replayed));
      response.replayed = replayed;
      return EncodeCreateSessionResponse(frame.request_id, response);
    }
    case MessageType::kCloseSession: {
      Result<CloseSessionRequest> request = DecodeCloseSession(frame);
      if (!request.ok()) return ErrorResponseFor(frame, request.status());
      CloseSessionResponse response;
      response.header =
          HeaderFromStatus(manager_->CloseSession(request->session_id));
      return EncodeCloseSessionResponse(frame.request_id, response);
    }
    default:
      return ErrorResponseFor(
          frame, Status::InvalidArgument(
                     "unexpected message type " +
                     std::to_string(static_cast<int>(frame.type))));
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

  // Responses are delivered in request order; suggest/observe execute
  // through the scheduler, batched across sessions. Every other frame is
  // a barrier: the scheduler drains before it runs, so a close can never
  // race past the session's own pending requests.
  std::vector<std::string> responses(frames.size());
  // Tickets for batched requests, paired with their frame index.
  std::vector<std::pair<size_t, uint64_t>> tickets;
  auto flush = [&] {
    scheduler_->Drain();
    for (const auto& [index, ticket] : tickets) {
      const Frame& request_frame = frames[index];
      if (request_frame.type == MessageType::kSuggest) {
        SuggestResponse response;
        Result<Configuration> suggested = scheduler_->TakeSuggest(ticket);
        if (suggested.ok()) response.config = suggested->values();
        response.header = HeaderFromStatus(suggested.status());
        responses[index] =
            EncodeSuggestResponse(request_frame.request_id, response);
      } else {
        ObserveResponse response;
        response.header =
            HeaderFromStatus(scheduler_->TakeObserve(ticket));
        responses[index] =
            EncodeObserveResponse(request_frame.request_id, response);
      }
    }
    tickets.clear();
  };
  for (size_t i = 0; i < frames.size(); ++i) {
    const Frame& request_frame = frames[i];
    switch (request_frame.type) {
      case MessageType::kSuggest: {
        Result<SuggestRequest> request = DecodeSuggest(request_frame);
        if (!request.ok()) {
          responses[i] = ErrorResponseFor(request_frame, request.status());
          break;
        }
        tickets.emplace_back(
            i, scheduler_->EnqueueSuggest(request->session_id));
        break;
      }
      case MessageType::kObserve: {
        Result<ObserveRequest> request = DecodeObserve(request_frame);
        if (!request.ok()) {
          responses[i] = ErrorResponseFor(request_frame, request.status());
          break;
        }
        tickets.emplace_back(
            i, scheduler_->EnqueueObserve(request->session_id,
                                          ToObservation(*request)));
        break;
      }
      default:
        flush();
        responses[i] = HandleBarrier(request_frame);
        break;
    }
  }
  flush();
  for (const std::string& response : responses) {
    transport->SendToClient(response);
  }
  return Status::OK();
}

}  // namespace dbtune::serve
