#include "serve/protocol.h"

#include "store/wal.h"

namespace dbtune::serve {

namespace {

using store::WalDecoder;
using store::WalEncoder;

/// Payload bytes ahead of the body: the u8 type tag and the u64 request id.
constexpr uint32_t kFrameHeaderBytes = 9;

std::string FinishFrame(MessageType type, uint64_t request_id,
                        const std::string& body) {
  return EncodeFrame(Frame{type, request_id, body});
}

void PutHeader(WalEncoder* enc, const ResponseHeader& header) {
  enc->PutU8(header.status_code);
  enc->PutString(header.message);
}

[[nodiscard]] Result<ResponseHeader> ReadHeader(WalDecoder* dec) {
  ResponseHeader header;
  DBTUNE_ASSIGN_OR_RETURN(header.status_code, dec->ReadU8());
  DBTUNE_ASSIGN_OR_RETURN(header.message, dec->ReadString());
  return header;
}

/// Every decoder ends with this: trailing bytes mean the peer encoded a
/// newer message shape than we understand.
[[nodiscard]] Status ExpectEnd(const WalDecoder& dec, const char* what) {
  if (!dec.AtEnd()) {
    return Status::InvalidArgument(std::string("trailing bytes after ") +
                                   what + " body");
  }
  return Status::OK();
}

[[nodiscard]] Status ExpectType(const Frame& frame, MessageType want,
                                const char* what) {
  if (frame.type != want) {
    return Status::InvalidArgument(std::string("frame is not a ") + what);
  }
  return Status::OK();
}

}  // namespace

std::string EncodeFrame(const Frame& frame) {
  WalEncoder enc;
  enc.PutU32(static_cast<uint32_t>(kFrameHeaderBytes + frame.body.size()));
  enc.PutU8(static_cast<uint8_t>(frame.type));
  enc.PutU64(frame.request_id);
  std::string out = enc.bytes();
  out += frame.body;
  return out;
}

Result<size_t> DecodeFrame(std::string_view buffer, Frame* out) {
  if (buffer.size() < 4) return static_cast<size_t>(0);
  WalDecoder dec(buffer);
  DBTUNE_ASSIGN_OR_RETURN(const uint32_t payload_len, dec.ReadU32());
  if (payload_len > kMaxPayloadBytes) {
    return Status::InvalidArgument("frame payload length " +
                                   std::to_string(payload_len) +
                                   " exceeds protocol maximum");
  }
  if (payload_len < kFrameHeaderBytes) {
    return Status::InvalidArgument(
        "frame payload too short for type tag and request id");
  }
  if (buffer.size() < 4 + static_cast<size_t>(payload_len)) {
    return static_cast<size_t>(0);
  }
  // An unknown tag stays in the frame: every consumer switches on the
  // type, and its default arm answers InvalidArgument.
  DBTUNE_ASSIGN_OR_RETURN(const uint8_t tag, dec.ReadU8());
  out->type = static_cast<MessageType>(tag);  // dbtune-lint: allow(unvalidated-enum-cast)
  DBTUNE_ASSIGN_OR_RETURN(out->request_id, dec.ReadU64());
  out->body.assign(buffer.substr(4 + kFrameHeaderBytes,
                                 payload_len - kFrameHeaderBytes));
  return 4 + static_cast<size_t>(payload_len);
}

std::string EncodeCreateSession(uint64_t request_id,
                                const CreateSessionRequest& request) {
  WalEncoder enc;
  enc.PutString(request.session_id);
  enc.PutString(request.space_name);
  enc.PutU8(request.optimizer_type);
  enc.PutU64(request.seed);
  enc.PutDouble(request.reference_score);
  enc.PutU32(request.initial_design);
  enc.PutU32(request.acquisition_candidates);
  return FinishFrame(MessageType::kCreateSession, request_id, enc.bytes());
}

std::string EncodeSuggest(uint64_t request_id, const SuggestRequest& request) {
  WalEncoder enc;
  enc.PutString(request.session_id);
  return FinishFrame(MessageType::kSuggest, request_id, enc.bytes());
}

std::string EncodeObserve(uint64_t request_id, const ObserveRequest& request) {
  WalEncoder enc;
  enc.PutString(request.session_id);
  enc.PutDoubles(request.config);
  enc.PutDouble(request.score);
  enc.PutDouble(request.objective);
  enc.PutU8(request.failed);
  enc.PutDoubles(request.internal_metrics);
  return FinishFrame(MessageType::kObserve, request_id, enc.bytes());
}

std::string EncodeCloseSession(uint64_t request_id,
                               const CloseSessionRequest& request) {
  WalEncoder enc;
  enc.PutString(request.session_id);
  return FinishFrame(MessageType::kCloseSession, request_id, enc.bytes());
}

std::string EncodeCreateSessionResponse(uint64_t request_id,
                                        const CreateSessionResponse& response) {
  WalEncoder enc;
  PutHeader(&enc, response.header);
  enc.PutU64(response.replayed);
  return FinishFrame(MessageType::kCreateSessionResponse, request_id,
                     enc.bytes());
}

std::string EncodeSuggestResponse(uint64_t request_id,
                                  const SuggestResponse& response) {
  WalEncoder enc;
  PutHeader(&enc, response.header);
  enc.PutDoubles(response.config);
  return FinishFrame(MessageType::kSuggestResponse, request_id, enc.bytes());
}

std::string EncodeObserveResponse(uint64_t request_id,
                                  const ObserveResponse& response) {
  WalEncoder enc;
  PutHeader(&enc, response.header);
  return FinishFrame(MessageType::kObserveResponse, request_id, enc.bytes());
}

std::string EncodeCloseSessionResponse(uint64_t request_id,
                                       const CloseSessionResponse& response) {
  WalEncoder enc;
  PutHeader(&enc, response.header);
  return FinishFrame(MessageType::kCloseSessionResponse, request_id,
                     enc.bytes());
}

Result<CreateSessionRequest> DecodeCreateSession(const Frame& frame) {
  DBTUNE_RETURN_IF_ERROR(
      ExpectType(frame, MessageType::kCreateSession, "CreateSession"));
  WalDecoder dec(frame.body);
  CreateSessionRequest request;
  DBTUNE_ASSIGN_OR_RETURN(request.session_id, dec.ReadString());
  DBTUNE_ASSIGN_OR_RETURN(request.space_name, dec.ReadString());
  DBTUNE_ASSIGN_OR_RETURN(request.optimizer_type, dec.ReadU8());
  DBTUNE_ASSIGN_OR_RETURN(request.seed, dec.ReadU64());
  DBTUNE_ASSIGN_OR_RETURN(request.reference_score, dec.ReadDouble());
  DBTUNE_ASSIGN_OR_RETURN(request.initial_design, dec.ReadU32());
  DBTUNE_ASSIGN_OR_RETURN(request.acquisition_candidates, dec.ReadU32());
  DBTUNE_RETURN_IF_ERROR(ExpectEnd(dec, "CreateSession"));
  return request;
}

Result<SuggestRequest> DecodeSuggest(const Frame& frame) {
  DBTUNE_RETURN_IF_ERROR(ExpectType(frame, MessageType::kSuggest, "Suggest"));
  WalDecoder dec(frame.body);
  SuggestRequest request;
  DBTUNE_ASSIGN_OR_RETURN(request.session_id, dec.ReadString());
  DBTUNE_RETURN_IF_ERROR(ExpectEnd(dec, "Suggest"));
  return request;
}

Result<ObserveRequest> DecodeObserve(const Frame& frame) {
  DBTUNE_RETURN_IF_ERROR(ExpectType(frame, MessageType::kObserve, "Observe"));
  WalDecoder dec(frame.body);
  ObserveRequest request;
  DBTUNE_ASSIGN_OR_RETURN(request.session_id, dec.ReadString());
  DBTUNE_ASSIGN_OR_RETURN(request.config, dec.ReadDoubles());
  DBTUNE_ASSIGN_OR_RETURN(request.score, dec.ReadDouble());
  DBTUNE_ASSIGN_OR_RETURN(request.objective, dec.ReadDouble());
  DBTUNE_ASSIGN_OR_RETURN(request.failed, dec.ReadU8());
  DBTUNE_ASSIGN_OR_RETURN(request.internal_metrics, dec.ReadDoubles());
  DBTUNE_RETURN_IF_ERROR(ExpectEnd(dec, "Observe"));
  return request;
}

Result<CloseSessionRequest> DecodeCloseSession(const Frame& frame) {
  DBTUNE_RETURN_IF_ERROR(
      ExpectType(frame, MessageType::kCloseSession, "CloseSession"));
  WalDecoder dec(frame.body);
  CloseSessionRequest request;
  DBTUNE_ASSIGN_OR_RETURN(request.session_id, dec.ReadString());
  DBTUNE_RETURN_IF_ERROR(ExpectEnd(dec, "CloseSession"));
  return request;
}

Result<CreateSessionResponse> DecodeCreateSessionResponse(const Frame& frame) {
  DBTUNE_RETURN_IF_ERROR(ExpectType(
      frame, MessageType::kCreateSessionResponse, "CreateSessionResponse"));
  WalDecoder dec(frame.body);
  CreateSessionResponse response;
  DBTUNE_ASSIGN_OR_RETURN(response.header, ReadHeader(&dec));
  DBTUNE_ASSIGN_OR_RETURN(response.replayed, dec.ReadU64());
  DBTUNE_RETURN_IF_ERROR(ExpectEnd(dec, "CreateSessionResponse"));
  return response;
}

Result<SuggestResponse> DecodeSuggestResponse(const Frame& frame) {
  DBTUNE_RETURN_IF_ERROR(
      ExpectType(frame, MessageType::kSuggestResponse, "SuggestResponse"));
  WalDecoder dec(frame.body);
  SuggestResponse response;
  DBTUNE_ASSIGN_OR_RETURN(response.header, ReadHeader(&dec));
  DBTUNE_ASSIGN_OR_RETURN(response.config, dec.ReadDoubles());
  DBTUNE_RETURN_IF_ERROR(ExpectEnd(dec, "SuggestResponse"));
  return response;
}

Result<ObserveResponse> DecodeObserveResponse(const Frame& frame) {
  DBTUNE_RETURN_IF_ERROR(
      ExpectType(frame, MessageType::kObserveResponse, "ObserveResponse"));
  WalDecoder dec(frame.body);
  ObserveResponse response;
  DBTUNE_ASSIGN_OR_RETURN(response.header, ReadHeader(&dec));
  DBTUNE_RETURN_IF_ERROR(ExpectEnd(dec, "ObserveResponse"));
  return response;
}

Result<CloseSessionResponse> DecodeCloseSessionResponse(const Frame& frame) {
  DBTUNE_RETURN_IF_ERROR(ExpectType(
      frame, MessageType::kCloseSessionResponse, "CloseSessionResponse"));
  WalDecoder dec(frame.body);
  CloseSessionResponse response;
  DBTUNE_ASSIGN_OR_RETURN(response.header, ReadHeader(&dec));
  DBTUNE_RETURN_IF_ERROR(ExpectEnd(dec, "CloseSessionResponse"));
  return response;
}

ResponseHeader HeaderFromStatus(const Status& status) {
  ResponseHeader header;
  header.status_code = static_cast<uint8_t>(status.code());
  header.message = status.ok() ? "" : status.message();
  return header;
}

Status StatusFromHeader(const ResponseHeader& header) {
  // The switch names every code; any other byte falls through to Internal.
  const auto code = static_cast<StatusCode>(header.status_code);  // dbtune-lint: allow(unvalidated-enum-cast)
  switch (code) {
    case StatusCode::kOk:
      return Status::OK();
    case StatusCode::kInvalidArgument:
      return Status::InvalidArgument(header.message);
    case StatusCode::kFailedPrecondition:
      return Status::FailedPrecondition(header.message);
    case StatusCode::kNotFound:
      return Status::NotFound(header.message);
    case StatusCode::kOutOfRange:
      return Status::OutOfRange(header.message);
    case StatusCode::kInternal:
      return Status::Internal(header.message);
    case StatusCode::kUnimplemented:
      return Status::Unimplemented(header.message);
  }
  return Status::Internal("unknown wire status code " +
                          std::to_string(header.status_code));
}

void FrameReader::Append(std::string_view bytes) {
  // Compact once the consumed prefix dominates, so long-lived readers
  // do not grow without bound.
  if (consumed_ > 0 && consumed_ * 2 > buffer_.size()) {
    buffer_.erase(0, consumed_);
    consumed_ = 0;
  }
  buffer_.append(bytes);
}

Result<bool> FrameReader::Next(Frame* out) {
  const std::string_view view =
      std::string_view(buffer_).substr(consumed_);
  DBTUNE_ASSIGN_OR_RETURN(const size_t used, DecodeFrame(view, out));
  if (used == 0) return false;
  consumed_ += used;
  return true;
}

}  // namespace dbtune::serve
