#ifndef DBTUNE_SERVE_PROTOCOL_H_
#define DBTUNE_SERVE_PROTOCOL_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "util/status.h"

namespace dbtune::serve {

/// Length-prefixed binary request codec for the tuning service (DESIGN.md
/// §"Serving layer"). A frame on the wire is
///
///   [u32 payload_len][payload]
///   payload = [u8 message_type][u64 request_id][body]
///
/// with all integers little-endian and doubles raw IEEE-754 bit patterns
/// (the store's WAL codec convention, so decoded configurations are
/// bitwise identical to what the optimizer suggested). The loopback
/// transport below carries frames between an in-process client and
/// server; a socket listener can adopt the same framing unchanged.

/// Wire message types. The numeric values are part of the protocol —
/// append, never renumber. Requests are odd, their responses even.
enum class MessageType : uint8_t {
  kCreateSession = 1,
  kCreateSessionResponse = 2,
  kSuggest = 3,
  kSuggestResponse = 4,
  kObserve = 5,
  kObserveResponse = 6,
  kCloseSession = 7,
  kCloseSessionResponse = 8,
};

/// One decoded frame: the type tag, the client's request id (echoed in
/// the response so batched replies can be matched up), and the
/// type-specific body bytes.
struct Frame {
  MessageType type = MessageType::kCreateSession;
  uint64_t request_id = 0;
  std::string body;
};

/// Encodes `frame` into its on-wire byte string.
std::string EncodeFrame(const Frame& frame);

/// Attempts to decode one frame from the head of `buffer`. Returns the
/// number of bytes consumed, or 0 when the buffer does not yet hold a
/// complete frame (read more bytes and retry). A syntactically complete
/// frame with a truncated payload is impossible by construction; an
/// oversized length prefix yields InvalidArgument so a corrupt peer
/// cannot make the reader wait forever.
[[nodiscard]] Result<size_t> DecodeFrame(std::string_view buffer, Frame* out);

/// Upper bound on a frame's payload, to bound buffering on corrupt input.
inline constexpr uint32_t kMaxPayloadBytes = 1u << 26;  // 64 MiB

/// Largest `initial_design` and `acquisition_candidates` a session may
/// request: the design is sampled in one allocation on a pool worker, so
/// an unbounded count could exhaust memory for every tenant.
inline constexpr uint32_t kMaxInitialDesign = 10000;
inline constexpr uint32_t kMaxAcquisitionCandidates = 65536;

/// Longest session id, in bytes: the id is kept in the session map,
/// in every WAL observation frame and in the sealed task name. An empty
/// id at create, or a longer one in any request, is answered with
/// InvalidArgument, whose message does not echo it.
inline constexpr size_t kMaxSessionIdBytes = 256;
/// Longest configuration-space name, in bytes; a longer one is answered
/// with InvalidArgument at create, whose message does not echo it.
inline constexpr size_t kMaxSpaceNameBytes = 256;

// Observe limits: `config` has the session space's arity and every value
// lies in its knob's [min, max] domain (so is finite); `score`,
// `objective` and each internal metric are finite. Anything else is
// answered with InvalidArgument, and nothing is stored or learned, so an
// out-of-domain value never reaches the WAL.
//
// Internal metrics: any count is accepted. DDPG alone reads them, as its
// state: it zero-pads or truncates them to kNumInternalMetrics and clamps
// each to a fixed magnitude bound (`kStateBound` in optimizer/ddpg.cc),
// so a finite but huge metric cannot overflow its networks. The other
// optimizers ignore metrics.

/// Opens a tuning session. `space_name` must have been registered with
/// the serving SessionManager; the client measures its DBMS default
/// configuration itself and ships the score here (the server never
/// evaluates — it only suggests and learns). An empty or over-long
/// `session_id`, an over-long `space_name`, an unknown `optimizer_type`,
/// a count of 0 candidates or past the limits above, or a non-finite
/// `reference_score` is answered with InvalidArgument.
struct CreateSessionRequest {
  std::string session_id;
  std::string space_name;
  uint8_t optimizer_type = 0;  // OptimizerType enum value
  uint64_t seed = 1;
  double reference_score = 0.0;
  uint32_t initial_design = 10;
  uint32_t acquisition_candidates = 300;
};

/// Response status shared by every reply: the Status code as a u8 (0 =
/// OK) plus the message for non-OK codes.
struct ResponseHeader {
  uint8_t status_code = 0;
  std::string message;
};

struct CreateSessionResponse {
  ResponseHeader header;
  /// Observations replayed from the durable store (session resumed).
  uint64_t replayed = 0;
};

struct SuggestRequest {
  std::string session_id;
};

struct SuggestResponse {
  ResponseHeader header;
  /// Suggested configuration, native-domain knob values. Every value is
  /// finite, whatever the session observed: an optimizer whose model
  /// produces a non-finite point suggests a uniform sample instead.
  std::vector<double> config;
};

/// Reports an evaluated configuration back. Mirrors dbtune::Observation;
/// `config` must be the clipped configuration actually applied (what the
/// standalone loop's environment records), within the observe limits
/// above.
struct ObserveRequest {
  std::string session_id;
  std::vector<double> config;
  double score = 0.0;
  double objective = 0.0;
  uint8_t failed = 0;
  std::vector<double> internal_metrics;
};

struct ObserveResponse {
  ResponseHeader header;
};

struct CloseSessionRequest {
  std::string session_id;
};

struct CloseSessionResponse {
  ResponseHeader header;
};

/// Body encoders. Each returns a frame ready for the wire.
std::string EncodeCreateSession(uint64_t request_id,
                                const CreateSessionRequest& request);
std::string EncodeSuggest(uint64_t request_id, const SuggestRequest& request);
std::string EncodeObserve(uint64_t request_id, const ObserveRequest& request);
std::string EncodeCloseSession(uint64_t request_id,
                               const CloseSessionRequest& request);

std::string EncodeCreateSessionResponse(uint64_t request_id,
                                        const CreateSessionResponse& response);
std::string EncodeSuggestResponse(uint64_t request_id,
                                  const SuggestResponse& response);
std::string EncodeObserveResponse(uint64_t request_id,
                                  const ObserveResponse& response);
std::string EncodeCloseSessionResponse(uint64_t request_id,
                                       const CloseSessionResponse& response);

/// Body decoders. The frame's type must match; trailing bytes after the
/// body are an error (catches skewed encoders early).
[[nodiscard]] Result<CreateSessionRequest> DecodeCreateSession(
    const Frame& frame);
[[nodiscard]] Result<SuggestRequest> DecodeSuggest(const Frame& frame);
[[nodiscard]] Result<ObserveRequest> DecodeObserve(const Frame& frame);
[[nodiscard]] Result<CloseSessionRequest> DecodeCloseSession(
    const Frame& frame);

[[nodiscard]] Result<CreateSessionResponse> DecodeCreateSessionResponse(
    const Frame& frame);
[[nodiscard]] Result<SuggestResponse> DecodeSuggestResponse(
    const Frame& frame);
[[nodiscard]] Result<ObserveResponse> DecodeObserveResponse(
    const Frame& frame);
[[nodiscard]] Result<CloseSessionResponse> DecodeCloseSessionResponse(
    const Frame& frame);

/// Maps a Status onto the wire header and back. Unknown wire codes decode
/// to Internal so a skewed peer degrades to a visible error.
ResponseHeader HeaderFromStatus(const Status& status);
Status StatusFromHeader(const ResponseHeader& header);

/// Incremental frame reader: append raw bytes as they arrive, pull
/// complete frames out. Malformed input (oversized length prefix, short
/// payload) surfaces as an error from Next and poisons the reader.
class FrameReader {
 public:
  /// Buffers `bytes` for decoding.
  void Append(std::string_view bytes);

  /// Decodes the next complete frame into `out`. Returns true on a
  /// frame, false when more bytes are needed.
  [[nodiscard]] Result<bool> Next(Frame* out);

  /// Bytes buffered but not yet decoded.
  size_t pending_bytes() const { return buffer_.size() - consumed_; }

 private:
  std::string buffer_;
  size_t consumed_ = 0;
};

/// In-process transport: a pair of byte streams (client→server and
/// server→client) with the same append/drain shape a socket event loop
/// would have. Single-threaded by design — the scheduler's determinism
/// comes from draining whole buffers at well-defined points, not from
/// concurrent queues.
class LoopbackTransport {
 public:
  /// Client side: sends request bytes to the server.
  void SendToServer(std::string_view bytes) { to_server_.append(bytes); }
  /// Server side: takes everything the client has sent so far.
  std::string DrainServerInbox() { return std::exchange(to_server_, {}); }

  /// Server side: sends response bytes to the client.
  void SendToClient(std::string_view bytes) { to_client_.append(bytes); }
  /// Client side: takes everything the server has sent so far.
  std::string DrainClientInbox() { return std::exchange(to_client_, {}); }

 private:
  std::string to_server_;
  std::string to_client_;
};

}  // namespace dbtune::serve

#endif  // DBTUNE_SERVE_PROTOCOL_H_
