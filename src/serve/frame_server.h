#ifndef DBTUNE_SERVE_FRAME_SERVER_H_
#define DBTUNE_SERVE_FRAME_SERVER_H_

#include <string>

#include "serve/batch_scheduler.h"
#include "serve/protocol.h"
#include "serve/session_manager.h"
#include "util/status.h"

namespace dbtune::serve {

/// Protocol front-end: decodes request frames, dispatches every request
/// that names a session (create, suggest, observe, close) through the
/// BatchScheduler, so concurrent clients batch across sessions, and
/// answers every frame through one reply path, `Respond`: a served frame
/// with its redeemed ticket, a refused frame with its error. The
/// transport below it is the in-process loopback for now; a socket
/// listener speaks the same `Frame` API.
class FrameServer {
 public:
  /// Both pointers are borrowed and must outlive the server; `scheduler`
  /// must dispatch to `manager`, which the server reaches only through
  /// it.
  FrameServer(SessionManager* manager, BatchScheduler* scheduler);

  FrameServer(const FrameServer&) = delete;
  FrameServer& operator=(const FrameServer&) = delete;

  /// Drains every complete request frame buffered in `transport`'s
  /// server inbox, enqueues each request in its session's scheduler
  /// FIFO, drains the scheduler once, and writes one response frame per
  /// request, in request order, to the client. Each session's requests
  /// execute in the order they were sent, and closes seal their sessions
  /// in the order they were sent; requests of distinct sessions share
  /// waves, so the creates of a restart replay their stored histories on
  /// every lane. Partial frames stay buffered for the next call; a
  /// malformed stream returns the decode error. A malformed body
  /// (an unknown optimizer type included) yields a response of its own
  /// family with the decode error in the header; a response-typed frame
  /// yields an InvalidArgument CloseSessionResponse. Neither touches a
  /// session.
  [[nodiscard]] Status ServeBuffered(LoopbackTransport* transport);

 private:
  /// Decodes a request frame and enqueues it; returns its ticket, or the
  /// error to answer with when the frame touches no session.
  [[nodiscard]] Result<uint64_t> Enqueue(const Frame& frame);

  /// Encodes the response to `frame`, of its request's family (a
  /// CloseSessionResponse for a frame of any other type). An enqueued
  /// frame redeems its ticket; a refused one answers `ticket`'s error.
  std::string Respond(const Frame& frame, const Result<uint64_t>& ticket);

  BatchScheduler* const scheduler_;
  FrameReader reader_;
};

}  // namespace dbtune::serve

#endif  // DBTUNE_SERVE_FRAME_SERVER_H_
