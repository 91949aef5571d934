#ifndef DBTUNE_SERVE_FRAME_SERVER_H_
#define DBTUNE_SERVE_FRAME_SERVER_H_

#include <string>

#include "serve/batch_scheduler.h"
#include "serve/protocol.h"
#include "serve/session_manager.h"
#include "util/status.h"

namespace dbtune::serve {

/// Protocol front-end: decodes request frames, dispatches them to the
/// SessionManager (suggest/observe through the BatchScheduler, so
/// concurrent clients batch across sessions), and encodes response
/// frames. The transport below it is the in-process loopback for now; a
/// socket listener speaks the same `Frame` API.
class FrameServer {
 public:
  /// Both pointers are borrowed and must outlive the server; `scheduler`
  /// must dispatch to `manager`.
  FrameServer(SessionManager* manager, BatchScheduler* scheduler);

  FrameServer(const FrameServer&) = delete;
  FrameServer& operator=(const FrameServer&) = delete;

  /// Drains every complete request frame buffered in `transport`'s
  /// server inbox, executes them — suggests/observes batched across
  /// sessions through the scheduler, create/close as ordering barriers —
  /// and writes one response frame per request, in request order, to
  /// the client. Partial frames stay buffered for the next call; a
  /// malformed stream returns the decode error. A malformed body yields
  /// a response of its own family with the decode error in the header; a
  /// response-typed frame yields an InvalidArgument CloseSessionResponse.
  [[nodiscard]] Status ServeBuffered(LoopbackTransport* transport);

 private:
  /// Runs a create, close, or unexpected frame inline.
  std::string HandleBarrier(const Frame& frame);

  SessionManager* const manager_;
  BatchScheduler* const scheduler_;
  FrameReader reader_;
};

}  // namespace dbtune::serve

#endif  // DBTUNE_SERVE_FRAME_SERVER_H_
