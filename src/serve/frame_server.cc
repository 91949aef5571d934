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

std::string FrameServer::Respond(const Frame& frame,
                                 const Result<uint64_t>& ticket) {
  switch (frame.type) {
    case MessageType::kCreateSession: {
      CreateSessionResponse response;
      const Result<size_t> replayed =
          ticket.ok() ? scheduler_->TakeCreate(*ticket) : ticket.status();
      if (replayed.ok()) response.replayed = *replayed;
      response.header = HeaderFromStatus(replayed.status());
      return EncodeCreateSessionResponse(frame.request_id, response);
    }
    case MessageType::kSuggest: {
      SuggestResponse response;
      const Result<Configuration> suggested =
          ticket.ok() ? scheduler_->TakeSuggest(*ticket) : ticket.status();
      if (suggested.ok()) response.config = suggested->values();
      response.header = HeaderFromStatus(suggested.status());
      return EncodeSuggestResponse(frame.request_id, response);
    }
    case MessageType::kObserve: {
      ObserveResponse response;
      response.header = HeaderFromStatus(
          ticket.ok() ? scheduler_->TakeObserve(*ticket) : ticket.status());
      return EncodeObserveResponse(frame.request_id, response);
    }
    default: {
      CloseSessionResponse response;
      response.header = HeaderFromStatus(
          ticket.ok() ? scheduler_->TakeClose(*ticket) : ticket.status());
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
  // observes of distinct sessions share waves. A frame that touches no
  // session, a decode error or a response-typed frame, holds its error in
  // place of a ticket. Responses are delivered in request order.
  std::vector<Result<uint64_t>> tickets;
  tickets.reserve(frames.size());
  for (const Frame& request : frames) tickets.push_back(Enqueue(request));
  scheduler_->Drain();
  for (size_t i = 0; i < frames.size(); ++i) {
    transport->SendToClient(Respond(frames[i], tickets[i]));
  }
  return Status::OK();
}

}  // namespace dbtune::serve
