#include "served_pass.h"

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <string_view>

#include "common.h"
#include "core/tuning_session.h"
#include "serve/batch_scheduler.h"
#include "serve/frame_server.h"
#include "serve/protocol.h"
#include "serve/session_manager.h"
#include "store/observation_store.h"
#include "util/thread_pool.h"

namespace dbtune::e2e {

namespace {

size_t Scaled(size_t full, double scale, size_t floor_value) {
  const auto scaled = static_cast<size_t>(static_cast<double>(full) * scale);
  return std::max(floor_value, scaled);
}

/// Iteration counts as a share of the session length (the evict/restart
/// schedule keeps its shape at any scale).
size_t AtShare(size_t iterations, double share) {
  return std::max<size_t>(1, static_cast<size_t>(
                                 static_cast<double>(iterations) * share));
}

/// The tuned space: the first kKnobs knobs of MySqlKnobCatalog(), the
/// paper's medium space without a ranking step.
constexpr size_t kKnobs = 20;

std::vector<size_t> FirstKnobs() {
  std::vector<size_t> indices(kKnobs);
  for (size_t i = 0; i < kKnobs; ++i) indices[i] = i;
  return indices;
}

serve::ObserveRequest ToObserveRequest(const std::string& id,
                                       const Observation& observation) {
  serve::ObserveRequest request;
  request.session_id = id;
  request.config = observation.config.values();
  request.score = observation.score;
  request.objective = observation.objective;
  request.failed = observation.failed ? 1 : 0;
  request.internal_metrics = observation.internal_metrics;
  return request;
}

/// Restarts measured after a pass of a workload without a mid-pass one.
constexpr size_t kEndRestarts = 5;

/// Client-side state of one slot.
struct Slot {
  static constexpr size_t kNone = static_cast<size_t>(-1);
  size_t session = kNone;
  size_t delay = 0;
  Op next = Op::kCreate;
  size_t iteration = 0;
  Observation pending;
};

/// The server process: store, session manager, scheduler, frame server.
struct Server {
  std::unique_ptr<store::ObservationStore> store;
  std::unique_ptr<serve::SessionManager> manager;
  std::unique_ptr<serve::BatchScheduler> scheduler;
  std::unique_ptr<serve::FrameServer> frames;
  serve::LoopbackTransport transport;
};

/// One pass: clients, the server, and the round loop between them.
class Pass {
 public:
  Pass(const WorkloadSpec& spec, const std::vector<SessionSpec>& sessions,
       const std::string& dir, Recording* recording)
      : spec_(spec),
        sessions_(sessions),
        store_path_(dir + "/observations.wal"),
        recording_(recording) {
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);
  }

  /// Builds the clients, opens the store, constructs the server and, for
  /// lockstep workloads, creates every session.
  bool SetUp() {
    clients_.reserve(sessions_.size());
    for (const SessionSpec& session : sessions_) {
      clients_.push_back(MakeClient(session));
    }
    if (!StartServer()) return false;
    slots_.resize(spec_.slots);
    for (size_t s = 0; s < spec_.slots; ++s) {
      Slot& slot = slots_[s];
      slot.session = s;
      if (spec_.staggered) {
        // Spread slot start rounds over one session lifetime so create,
        // suggest, observe and close frames share every round.
        const size_t lifetime = 2 * spec_.iterations + 2;
        slot.delay = s * lifetime / spec_.slots;
      }
    }
    if (spec_.staggered) return true;
    std::vector<size_t> all(spec_.slots);
    for (size_t s = 0; s < all.size(); ++s) all[s] = s;
    RunRound(all, NewRound(RoundKind::kSetup));
    return !failed();
  }

  /// The closed-loop round loop until every session has closed.
  void RunRounds() {
    bool evict_next = false;
    bool restart_next = false;
    while (!failed()) {
      if (evict_next) {
        const double start = Now();
        server_.manager->EvictIdle(kEvictIdleSeconds);
        AddSpan("server.evict", start, Now(), 0);
        if (recording_ != nullptr) recording_->evict_s += Now() - start;
      }
      if (restart_next) {
        result_.restart_s.push_back(Restart(/*timed=*/true));
        restart_next = false;
        if (failed()) return;
      }
      std::vector<size_t> active;
      for (size_t s = 0; s < slots_.size(); ++s) {
        Slot& slot = slots_[s];
        if (slot.session == Slot::kNone) continue;
        if (slot.delay > 0) {
          --slot.delay;
          continue;
        }
        active.push_back(s);
      }
      if (active.empty()) {
        bool waiting = false;
        for (const Slot& slot : slots_) {
          waiting = waiting || slot.session != Slot::kNone;
        }
        if (!waiting) return;
        continue;
      }
      RoundRecord* round =
          NewRound(evict_next ? RoundKind::kAfterEvict : RoundKind::kServe);
      evict_next = false;
      const bool observe_round = RunRound(active, round);
      round_ends_.push_back(Now());
      if (observe_round && !spec_.staggered) {
        const size_t done = slots_.front().iteration;
        evict_next = std::find(spec_.evict_after.begin(),
                               spec_.evict_after.end(),
                               done) != spec_.evict_after.end();
        restart_next = spec_.restart_after != 0 && done == spec_.restart_after;
      }
    }
  }

  /// Drops the server and starts it again from the store; re-creates
  /// every open session. Returns the restart time. `timed` marks a
  /// restart inside the timed phase (recorded when tracing).
  double Restart(bool timed) {
    ShutDownServer();
    const double start = Now();
    if (!StartServer()) return 0.0;
    const double opened = Now();
    if (timed && recording_ != nullptr) {
      AddSpan("server.reopen", start, opened, 0);
      recording_->reopen_s += opened - start;
    }
    std::vector<size_t> open;
    for (size_t s = 0; s < slots_.size(); ++s) {
      Slot& slot = slots_[s];
      if (slot.session != Slot::kNone && slot.next != Op::kCreate) {
        slot.next = Op::kCreate;
        open.push_back(s);
      }
    }
    if (!open.empty()) RunRound(open, NewRound(RoundKind::kRestart));
    return Now() - start;
  }

  void ShutDownServer() {
    server_.frames.reset();
    server_.scheduler.reset();
    server_.manager.reset();
    server_.store.reset();
  }

  bool failed() const { return result_.failed > 0; }
  PassResult& result() { return result_; }
  const std::vector<Client>& clients() const { return clients_; }
  /// When each timed-phase round ended, in order.
  const std::vector<double>& round_ends() const { return round_ends_; }

 private:
  bool StartServer() {
    auto opened = store::ObservationStore::Open(store_path_);
    if (!opened.ok()) {
      Fail("store open: " + opened.status().ToString());
      return false;
    }
    server_.store = std::move(opened).value();
    serve::SessionManagerOptions manager_options;
    manager_options.store = server_.store.get();
    server_.manager =
        std::make_unique<serve::SessionManager>(manager_options);
    server_.manager->RegisterSpace(kSpaceName, clients_.front().env->space());
    server_.scheduler =
        std::make_unique<serve::BatchScheduler>(server_.manager.get());
    server_.frames = std::make_unique<serve::FrameServer>(
        server_.manager.get(), server_.scheduler.get());
    return true;
  }

  serve::CreateSessionRequest CreateRequest(size_t index) const {
    const SessionSpec& session = sessions_[index];
    serve::CreateSessionRequest request;
    request.session_id = session.id;
    request.space_name = kSpaceName;
    request.optimizer_type = static_cast<uint8_t>(session.type);
    request.seed = session.optimizer_seed;
    request.reference_score = clients_[index].env->default_score();
    return request;
  }

  bool Serve() {
    const Status served = server_.frames->ServeBuffered(&server_.transport);
    if (!served.ok()) {
      Fail("ServeBuffered: " + served.ToString());
      return false;
    }
    return true;
  }

  /// Decodes every buffered response frame, stamping when each finished.
  bool DecodeResponses(std::vector<serve::Frame>* frames,
                       std::vector<double>* decoded,
                       std::vector<double>* decode_s, RoundRecord* round) {
    const std::string bytes = server_.transport.DrainClientInbox();
    std::string_view rest(bytes);
    while (!rest.empty()) {
      const double start = Now();
      serve::Frame frame;
      Result<size_t> used = serve::DecodeFrame(rest, &frame);
      if (!used.ok() || *used == 0) {
        Fail("malformed response stream");
        return false;
      }
      rest.remove_prefix(*used);
      frames->push_back(std::move(frame));
      const double end = Now();
      decoded->push_back(end);
      decode_s->push_back(end - start);
    }
    if (round != nullptr) round->response_bytes = bytes;
    return true;
  }

  /// Opens the record of the next round when recording.
  RoundRecord* NewRound(RoundKind kind) {
    if (recording_ == nullptr) return nullptr;
    recording_->rounds.emplace_back();
    recording_->rounds.back().kind = kind;
    return &recording_->rounds.back();
  }

  std::string EncodeNext(size_t slot_index, uint64_t request_id) {
    Slot& slot = slots_[slot_index];
    const SessionSpec& session = sessions_[slot.session];
    switch (slot.next) {
      case Op::kCreate:
        return serve::EncodeCreateSession(request_id,
                                          CreateRequest(slot.session));
      case Op::kSuggest:
        return serve::EncodeSuggest(request_id, {session.id});
      case Op::kObserve:
        return serve::EncodeObserve(
            request_id, ToObserveRequest(session.id, slot.pending));
      case Op::kClose:
        return serve::EncodeCloseSession(request_id, {session.id});
    }
    return {};
  }

  /// One round: every active slot sends its next frame, the server
  /// serves them in one call, the clients decode and act on the replies.
  /// Returns true when the round was all observes.
  bool RunRound(const std::vector<size_t>& active, RoundRecord* round) {
    std::vector<double> sent(active.size());
    std::vector<uint64_t> ids(active.size());
    for (size_t i = 0; i < active.size(); ++i) {
      ids[i] = ++next_request_id_;
      const double start = Now();
      const std::string frame = EncodeNext(active[i], ids[i]);
      server_.transport.SendToServer(frame);
      sent[i] = Now();
      ++result_.attempted;
      if (round != nullptr) {
        FrameRecord record;
        record.session = static_cast<uint32_t>(slots_[active[i]].session);
        record.op = slots_[active[i]].next;
        record.request_id = ids[i];
        record.encode_s = sent[i] - start;
        if (record.op == Op::kObserve) {
          record.observation = slots_[active[i]].pending;
        }
        round->frames.push_back(std::move(record));
        round->request_bytes += frame;
        AddSpan("client.encode", start, sent[i], ids[i]);
      }
    }
    if (round != nullptr) round->serve_start = Now();
    if (!Serve()) return false;
    if (round != nullptr) {
      round->serve_end = Now();
      AddSpan("frame_server.serve_buffered", round->serve_start,
              round->serve_end, ids.front());
    }
    std::vector<serve::Frame> responses;
    std::vector<double> decoded;
    std::vector<double> decode_s;
    if (!DecodeResponses(&responses, &decoded, &decode_s, round)) {
      return false;
    }
    if (responses.size() != active.size()) {
      Fail("response count mismatch");
      return false;
    }

    bool all_observes = true;
    for (size_t i = 0; i < active.size(); ++i) {
      Slot& slot = slots_[active[i]];
      const serve::Frame& frame = responses[i];
      if (frame.request_id != ids[i]) {
        Fail("response out of order");
        return false;
      }
      const double latency = decoded[i] - sent[i];
      if (round != nullptr) {
        round->frames[i].decode_s = decode_s[i];
        AddSpan("client.decode", decoded[i] - decode_s[i], decoded[i], ids[i]);
      }
      all_observes = all_observes && slot.next == Op::kObserve;
      if (!HandleResponse(&slot, frame, latency, round, i)) return false;
    }
    return all_observes;
  }

  bool HandleResponse(Slot* slot, const serve::Frame& frame, double latency,
                      RoundRecord* round, size_t index) {
    const SessionSpec& session = sessions_[slot->session];
    switch (slot->next) {
      case Op::kCreate: {
        // A restart re-creates open sessions: each must resume exactly
        // where its client stands.
        auto response = serve::DecodeCreateSessionResponse(frame);
        if (!response.ok() || response->header.status_code != 0 ||
            response->replayed != clients_[slot->session].env->iterations()) {
          Fail("create " + session.id + " failed");
          return false;
        }
        slot->next = Op::kSuggest;
        return true;
      }
      case Op::kSuggest: {
        auto response = serve::DecodeSuggestResponse(frame);
        if (!response.ok() || response->header.status_code != 0) {
          Fail("suggest " + session.id + " failed: " +
               (response.ok() ? response->header.message
                              : response.status().ToString()));
          return false;
        }
        result_.suggest_s.push_back(latency);
        const double start = Now();
        slot->pending = clients_[slot->session].env->Evaluate(
            Configuration(response->config));
        const double end = Now();
        if (round != nullptr) {
          round->frames[index].config = std::move(response->config);
          recording_->evaluate_s.push_back(end - start);
          AddSpan("client.evaluate", start, end, frame.request_id);
        }
        slot->next = Op::kObserve;
        return true;
      }
      case Op::kObserve: {
        auto response = serve::DecodeObserveResponse(frame);
        if (!response.ok() || response->header.status_code != 0) {
          Fail("observe " + session.id + " failed: " +
               (response.ok() ? response->header.message
                              : response.status().ToString()));
          return false;
        }
        result_.observe_s.push_back(latency);
        ++result_.iterations;
        ++slot->iteration;
        slot->next =
            slot->iteration == spec_.iterations ? Op::kClose : Op::kSuggest;
        return true;
      }
      case Op::kClose: {
        auto response = serve::DecodeCloseSessionResponse(frame);
        if (!response.ok() || response->header.status_code != 0) {
          Fail("close " + session.id + " failed");
          return false;
        }
        // The slot's next session, if any, starts in the next round.
        const size_t following = slot->session + spec_.slots;
        slot->session = following < spec_.sessions ? following : Slot::kNone;
        slot->next = Op::kCreate;
        slot->iteration = 0;
        return true;
      }
    }
    return false;
  }

  void AddSpan(const char* name, double start, double end, uint64_t id) {
    if (recording_ == nullptr) return;
    recording_->spans.push_back(Span{name, start, end, id, 0});
  }

  void Fail(const std::string& message) {
    ++result_.failed;
    if (result_.error.empty()) result_.error = message;
  }

  const WorkloadSpec& spec_;
  const std::vector<SessionSpec>& sessions_;
  const std::string store_path_;
  Recording* const recording_;
  std::vector<Client> clients_;
  std::vector<Slot> slots_;
  std::vector<double> round_ends_;
  Server server_;
  uint64_t next_request_id_ = 0;
  PassResult result_;
};

}  // namespace

WorkloadSpec MakeWorkload(const std::string& name, double scale) {
  WorkloadSpec spec;
  if (name == "deep-smac") {
    spec.slots = Scaled(16, scale, 2);
    spec.iterations = Scaled(100, scale, 14);
    spec.optimizers = {OptimizerType::kSmac};
  } else if (name == "deep-gp") {
    spec.slots = Scaled(48, scale, 2);
    spec.iterations = Scaled(100, scale, 14);
    spec.optimizers = {OptimizerType::kVanillaBo};
  } else if (name == "fleet-churn") {
    spec.slots = Scaled(64, scale, 7);
    spec.sessions = spec.slots * Scaled(8, scale, 2);
    spec.iterations = 12;
    spec.optimizers = PaperOptimizers();
    spec.staggered = true;
  } else if (name == "evict-resume") {
    spec.slots = Scaled(32, scale, 2);
    spec.iterations = Scaled(64, scale, 20);
    spec.optimizers = {OptimizerType::kVanillaBo};
    for (double share : {0.1, 0.2, 0.3, 0.4, 0.6, 0.7, 0.8, 0.9}) {
      spec.evict_after.push_back(AtShare(spec.iterations, share));
    }
    spec.restart_after = AtShare(spec.iterations, 0.5);
  } else {
    return spec;
  }
  spec.name = name;
  if (spec.sessions == 0) spec.sessions = spec.slots;
  return spec;
}

std::vector<SessionSpec> MakeSessions(const WorkloadSpec& spec,
                                      uint64_t seed) {
  std::vector<SessionSpec> sessions(spec.sessions);
  for (size_t i = 0; i < spec.sessions; ++i) {
    char id[32];
    std::snprintf(id, sizeof(id), "s%05zu", i);
    sessions[i].id = id;
    sessions[i].type = spec.optimizers[i % spec.optimizers.size()];
    sessions[i].optimizer_seed = seed * 1000003ULL + i;
    sessions[i].simulator_seed = seed * 7000003ULL + 17 * i + 1;
  }
  return sessions;
}

Client MakeClient(const SessionSpec& session) {
  Client client;
  client.simulator = std::make_unique<DbmsSimulator>(
      WorkloadId::kSysbench, HardwareInstance::kB, session.simulator_seed);
  client.env =
      std::make_unique<TuningEnvironment>(client.simulator.get(), FirstKnobs());
  return client;
}

PassResult RunPass(const WorkloadSpec& spec,
                   const std::vector<SessionSpec>& sessions,
                   const std::string& dir, Recording* recording) {
  PassResult result;
  {
    Pass pass(spec, sessions, dir, recording);
    const double setup_start = Now();
    const bool ready = pass.SetUp();
    const double setup_end = Now();
    if (ready) {
      const uint64_t written = WrittenBytes();
      const double start = Now();
      pass.RunRounds();
      pass.result().timed_s = Now() - start;
      pass.result().written_bytes = WrittenBytes() - written;
      double step_start = start;
      for (double end : pass.round_ends()) {
        pass.result().step_s.push_back(end - step_start);
        step_start = end;
      }
      // Recovery of a store of sealed sessions is short, so it is
      // repeated.
      for (size_t i = 0;
           i < kEndRestarts && spec.restart_after == 0 && !pass.failed(); ++i) {
        pass.result().restart_s.push_back(pass.Restart(/*timed=*/false));
      }
      pass.ShutDownServer();
    }
    result = std::move(pass.result());
    result.setup_s = setup_end - setup_start;
    for (const Client& client : pass.clients()) {
      result.histories.push_back(client.env->history());
      result.improvements.push_back(client.env->ImprovementPercent());
    }
  }
  std::filesystem::remove_all(dir);
  return result;
}

double MeasureSetup(const WorkloadSpec& spec,
                    const std::vector<SessionSpec>& sessions,
                    const std::string& dir) {
  double elapsed = 0.0;
  {
    Pass pass(spec, sessions, dir, nullptr);
    const double start = Now();
    const bool ready = pass.SetUp();
    elapsed = Now() - start;
    if (!ready) elapsed = -1.0;
    pass.ShutDownServer();
  }
  std::filesystem::remove_all(dir);
  return elapsed;
}

std::vector<std::vector<Observation>> StandaloneHistories(
    const WorkloadSpec& spec, const std::vector<SessionSpec>& sessions) {
  std::vector<std::vector<Observation>> histories(sessions.size());
  ParallelFor(GlobalPool(), 0, sessions.size(), /*grain=*/1,
              [&](size_t begin, size_t end) {
                for (size_t i = begin; i < end; ++i) {
                  Client client = MakeClient(sessions[i]);
                  OptimizerOptions options;
                  options.seed = sessions[i].optimizer_seed;
                  std::unique_ptr<Optimizer> optimizer = CreateOptimizer(
                      sessions[i].type, client.env->space(), options);
                  RunTuningSession(client.env.get(), optimizer.get(),
                                   spec.iterations);
                  histories[i] = client.env->history();
                }
              });
  return histories;
}

bool HistoriesEqual(const std::vector<std::vector<Observation>>& a,
                    const std::vector<std::vector<Observation>>& b,
                    std::string* where) {
  if (a.size() != b.size()) {
    *where = "session count";
    return false;
  }
  for (size_t s = 0; s < a.size(); ++s) {
    if (a[s].size() != b[s].size()) {
      *where = "session " + std::to_string(s) + " length";
      return false;
    }
    for (size_t i = 0; i < a[s].size(); ++i) {
      const Observation& x = a[s][i];
      const Observation& y = b[s][i];
      if (!(x.config == y.config) || x.score != y.score ||
          x.objective != y.objective || x.failed != y.failed ||
          x.internal_metrics != y.internal_metrics) {
        *where = "session " + std::to_string(s) + " iteration " +
                 std::to_string(i + 1);
        return false;
      }
    }
  }
  return true;
}

}  // namespace dbtune::e2e
