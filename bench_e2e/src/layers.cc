#include "layers.h"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <filesystem>
#include <memory>

#include "obs/metrics.h"
#include "serve/batch_scheduler.h"
#include "serve/protocol.h"
#include "serve/session_manager.h"
#include "store/observation_store.h"
#include "surrogate/kernels.h"
#include "surrogate/random_forest.h"
#include "surrogate/surrogate_factory.h"
#include "util/random.h"
#include "util/stats.h"
#include "util/thread_pool.h"

namespace dbtune::e2e {
namespace {

double Us(double seconds) { return seconds * 1e6; }
double Ms(double seconds) { return seconds * 1e3; }

/// Small per-thread lane number for trace output (0 is the client thread).
uint32_t LaneId() {
  static std::atomic<uint32_t> next{1};
  thread_local const uint32_t id = next.fetch_add(1);
  return id;
}

serve::ServedSessionOptions SessionOptions(const SessionSpec& session,
                                           double reference_score) {
  serve::ServedSessionOptions options;
  options.space_name = kSpaceName;
  options.optimizer_type = session.type;
  options.seed = session.optimizer_seed;
  options.reference_score = reference_score;
  return options;
}

std::unique_ptr<Optimizer> NewOptimizer(const SessionSpec& session,
                                        const ConfigurationSpace& space,
                                        double reference_score) {
  OptimizerOptions options;
  options.seed = session.optimizer_seed;
  std::unique_ptr<Optimizer> optimizer =
      CreateOptimizer(session.type, space, options);
  optimizer->SetReferenceScore(reference_score);
  return optimizer;
}

/// A store, session manager and scheduler opened on one WAL path;
/// Restart drops them and recovers from disk.
struct ReplayServer {
  ReplayServer(std::string wal_path, const ConfigurationSpace* space)
      : path(std::move(wal_path)), space(space) {}

  Status Start() {
    DBTUNE_ASSIGN_OR_RETURN(store, store::ObservationStore::Open(path));
    serve::SessionManagerOptions options;
    options.store = store.get();
    manager = std::make_unique<serve::SessionManager>(options);
    manager->RegisterSpace(kSpaceName, *space);
    scheduler = std::make_unique<serve::BatchScheduler>(manager.get());
    return Status::OK();
  }

  Status Restart() {
    scheduler.reset();
    manager.reset();
    store.reset();
    return Start();
  }

  std::string path;
  const ConfigurationSpace* space;
  std::unique_ptr<store::ObservationStore> store;
  std::unique_ptr<serve::SessionManager> manager;
  std::unique_ptr<serve::BatchScheduler> scheduler;
};

// ---------------------------------------------------------------------
// Surrogate replay: the fits and predictions one model-based suggest
// makes, rebuilt from the optimizer's own configuration. Cost-equivalent,
// not bitwise: candidates are random points rather than the optimizer's
// acquisition pool.

/// SMAC's forest configuration (optimizer/smac.cc).
RandomForestOptions SmacForestOptions(uint64_t seed) {
  RandomForestOptions options;
  options.num_trees = 30;
  options.min_samples_leaf = 2;
  options.min_samples_split = 4;
  options.max_depth = 20;
  options.seed = seed ^ 0x5AC;
  return options;
}

struct SurrogateWork {
  std::vector<double> fit_s;
  std::vector<double> predict_batch_s;
  size_t queries = 0;
  double total_s = 0.0;
};

class SurrogateReplay {
 public:
  SurrogateReplay(const SessionSpec& session, const ConfigurationSpace& space)
      : session_(session), space_(space), rng_(session.optimizer_seed) {
    Reset();
  }

  /// Optimizer families whose surrogate this replay reproduces.
  static bool Covers(OptimizerType type) {
    return type == OptimizerType::kVanillaBo ||
           type == OptimizerType::kMixedKernelBo ||
           type == OptimizerType::kSmac;
  }

  /// A fresh optimizer builds a fresh surrogate (resurrection).
  void Reset() {
    x_.clear();
    scores_.clear();
    if (session_.type == OptimizerType::kSmac) {
      model_ = std::make_unique<RandomForest>(
          SmacForestOptions(session_.optimizer_seed));
    } else if (session_.type == OptimizerType::kMixedKernelBo) {
      std::vector<bool> mask(space_.dimension());
      for (size_t i = 0; i < mask.size(); ++i) {
        mask[i] = space_.knob(i).is_categorical();
      }
      model_ = CreateGpSurrogate(
          [mask] { return std::make_unique<MixedKernel>(mask); });
    } else {
      model_ = CreateGpSurrogate([] { return std::make_unique<RbfKernel>(); });
    }
  }

  void Observe(const Observation& observation) {
    x_.push_back(space_.ToUnit(observation.config));
    scores_.push_back(observation.score);
  }

  /// One model-based suggest's surrogate work: fit on the standardized
  /// history, score the acquisition batch, and (SMAC) the hill-climb's
  /// scalar probes.
  void Step(SurrogateWork* work) {
    std::vector<double> z = scores_;
    const double mean = Mean(z);
    double sd = StdDev(z);
    if (sd < 1e-12) sd = 1.0;
    for (double& v : z) v = (v - mean) / sd;

    const bool smac = session_.type == OptimizerType::kSmac;
    const size_t batch = smac ? 450 : OptimizerOptions().acquisition_candidates;
    const size_t probes =
        smac ? 5 * std::max<size_t>(24, 2 * space_.dimension()) + 1 : 0;
    FeatureMatrix candidates(batch + probes);
    for (std::vector<double>& c : candidates) {
      std::vector<double> unit(space_.dimension());
      for (double& u : unit) u = rng_.Uniform();
      c = space_.SnapUnit(unit);
    }
    const FeatureMatrix batch_points(candidates.begin(),
                                     candidates.begin() + batch);

    const double t0 = Now();
    const Status fitted = model_->Fit(x_, z);
    const double t1 = Now();
    work->fit_s.push_back(t1 - t0);
    double predict_s = 0.0;
    if (fitted.ok()) {
      std::vector<double> means;
      std::vector<double> variances;
      model_->PredictMeanVarBatch(batch_points, &means, &variances);
      const double t2 = Now();
      work->predict_batch_s.push_back(t2 - t1);
      double m = 0.0;
      double v = 0.0;
      for (size_t i = batch; i < candidates.size(); ++i) {
        model_->PredictMeanVar(candidates[i], &m, &v);
      }
      predict_s = Now() - t1;
      work->queries += candidates.size();
    }
    work->total_s += (t1 - t0) + predict_s;
  }

 private:
  const SessionSpec& session_;
  const ConfigurationSpace& space_;
  Rng rng_;
  std::unique_ptr<Regressor> model_;
  FeatureMatrix x_;
  std::vector<double> scores_;
};

// ---------------------------------------------------------------------
// Layer replay: every recorded request re-issued, sessions in parallel on
// the server's lanes, through fresh instances of each layer — session
// manager (with its own store), store, optimizer, surrogate — one after
// the other on the same lane, so a layer's self time on a call is its
// inclusive time minus the layer below it on that call.

struct Call {
  Op op = Op::kSuggest;
  uint32_t session = 0;
  uint64_t request_id = 0;
  double manager_s = 0.0;
  double store_s = 0.0;
  /// Live optimizer call (Suggest or ObserveWithMetrics).
  double optimizer_s = 0.0;
  /// Optimizer rebuilt on this call — by a create, or by the first touch
  /// after an eviction — and its history replayed into it.
  double resurrect_s = 0.0;
  bool rebuilt = false;
  size_t replayed = 0;
  size_t replay_suggests = 0;
  bool model = false;
  /// All surrogate work on this call, and the part the live suggest did.
  SurrogateWork surrogate;
  double live_surrogate_s = 0.0;
  std::vector<Span> spans;
  std::string error;
};

struct LayerSession {
  std::unique_ptr<Optimizer> optimizer;
  std::unique_ptr<SurrogateReplay> surrogate;
  std::vector<Observation> history;
};

class LayerReplay {
 public:
  LayerReplay(const std::vector<SessionSpec>& sessions,
              const std::vector<double>& references,
              const ConfigurationSpace& space, const std::string& dir)
      : sessions_(sessions),
        references_(references),
        space_(space),
        manager_(dir + "/manager.wal", &space),
        store_path_(dir + "/store.wal"),
        state_(sessions.size()) {}

  Status Start() {
    DBTUNE_RETURN_IF_ERROR(manager_.Start());
    return OpenStore();
  }

  /// Replays one recorded round, after the eviction sweep or restart
  /// that preceded it.
  void Round(const RoundRecord& round) {
    if (round.kind == RoundKind::kAfterEvict) {
      manager_.manager->EvictIdle(kEvictIdleSeconds);
      for (LayerSession& s : state_) s.optimizer.reset();
    }
    if (round.kind == RoundKind::kRestart) {
      const Status restarted = manager_.Restart();
      if (!restarted.ok()) error_ = restarted.ToString();
      CloseStore();
      const Status reopened = OpenStore();
      if (!reopened.ok()) error_ = reopened.ToString();
      for (LayerSession& s : state_) s.optimizer.reset();
    }
    std::vector<Call> calls(round.frames.size());
    for (size_t f = 0; f < calls.size(); ++f) {
      calls[f].op = round.frames[f].op;
      calls[f].session = round.frames[f].session;
      calls[f].request_id = round.frames[f].request_id;
    }
    ParallelFor(GlobalPool(), 0, calls.size(), /*grain=*/1,
                [&](size_t begin, size_t end) {
                  for (size_t i = begin; i < end; ++i) {
                    Execute(&calls[i], round.frames[i]);
                  }
                });
    rounds_.push_back(std::move(calls));
  }

  /// Closes the store replay and times its recovery.
  void Finish() {
    CloseStore();
    const Status reopened = OpenStore();
    if (!reopened.ok()) error_ = reopened.ToString();
    CloseStore();
    manager_.scheduler.reset();
    manager_.manager.reset();
    manager_.store.reset();
  }

  const std::vector<std::vector<Call>>& rounds() const { return rounds_; }
  const std::vector<double>& recovery_s() const { return recovery_s_; }
  size_t checkpoints() const { return checkpoints_; }
  std::string error() const {
    if (!error_.empty()) return error_;
    for (const auto& round : rounds_) {
      for (const Call& call : round) {
        if (!call.error.empty()) return call.error;
      }
    }
    return {};
  }

 private:
  Status OpenStore() {
    const double start = Now();
    DBTUNE_ASSIGN_OR_RETURN(store_, store::ObservationStore::Open(store_path_));
    recovery_s_.push_back(Now() - start);
    return Status::OK();
  }

  /// Drops the store handle, keeping its checkpoint count.
  void CloseStore() {
    if (store_ == nullptr) return;
    checkpoints_ += store_->stats().checkpoints;
    store_.reset();
  }

  void Resurrect(LayerSession* s, const SessionSpec& spec, double reference,
                 Call* call) {
    const double start = Now();
    s->optimizer = NewOptimizer(spec, space_, reference);
    if (s->surrogate != nullptr) s->surrogate->Reset();
    for (const Observation& recorded : s->history) {
      (void)s->optimizer->Suggest();  // dbtune-lint: allow(ignored-status)
      ++call->replay_suggests;
      if (s->surrogate != nullptr &&
          s->optimizer->last_suggest_info().has_prediction) {
        s->surrogate->Step(&call->surrogate);
      }
      s->optimizer->ObserveWithMetrics(recorded.config, recorded.score,
                                       recorded.internal_metrics);
      if (s->surrogate != nullptr) s->surrogate->Observe(recorded);
    }
    call->rebuilt = true;
    call->replayed = s->history.size();
    call->resurrect_s = Now() - start;
  }

  void AddSpan(Call* call, const char* name, double start, double end) {
    call->spans.push_back(Span{name, start, end, call->request_id, LaneId()});
  }

  void Execute(Call* call, const FrameRecord& frame) {
    LayerSession& s = state_[call->session];
    const SessionSpec& spec = sessions_[call->session];
    const double reference = references_[call->session];
    switch (call->op) {
      case Op::kCreate: {
        const double t0 = Now();
        size_t replayed = 0;
        const Status created = manager_.manager->CreateSession(
            spec.id, SessionOptions(spec, reference), &replayed);
        const double t1 = Now();
        const Status begun = store_->BeginSession(spec.id, space_.dimension());
        const double t2 = Now();
        if (!created.ok() || !begun.ok() || replayed != s.history.size()) {
          call->error = "create replay failed for " + spec.id;
        }
        call->manager_s = t1 - t0;
        call->store_s = t2 - t1;
        AddSpan(call, "session_manager.create", t0, t1);
        AddSpan(call, "store.begin", t1, t2);
        if (s.surrogate == nullptr && SurrogateReplay::Covers(spec.type)) {
          s.surrogate = std::make_unique<SurrogateReplay>(spec, space_);
        }
        Resurrect(&s, spec, reference, call);
        AddSpan(call, "optimizer.create", t2, t2 + call->resurrect_s);
        return;
      }
      case Op::kSuggest: {
        const double t0 = Now();
        Result<Configuration> served = manager_.manager->Suggest(spec.id);
        const double t1 = Now();
        AddSpan(call, "session_manager.suggest", t0, t1);
        if (s.optimizer == nullptr) {
          Resurrect(&s, spec, reference, call);
          AddSpan(call, "optimizer.resurrect", t1, t1 + call->resurrect_s);
        }
        const double t2 = Now();
        const Configuration suggested = s.optimizer->Suggest();
        const double t3 = Now();
        AddSpan(call, "optimizer.suggest", t2, t3);
        call->manager_s = t1 - t0;
        call->optimizer_s = t3 - t2;
        if (!served.ok() || !(served->values() == frame.config) ||
            !(suggested.values() == frame.config)) {
          call->error = "suggest replay of " + spec.id +
                        " differs from the served suggestion";
        }
        call->model = s.optimizer->last_suggest_info().has_prediction;
        if (call->model && s.surrogate != nullptr) {
          const double before = call->surrogate.total_s;
          const double t4 = Now();
          s.surrogate->Step(&call->surrogate);
          call->live_surrogate_s = call->surrogate.total_s - before;
          AddSpan(call, "surrogate.fit_predict", t4,
                  t4 + call->live_surrogate_s);
        }
        return;
      }
      case Op::kObserve: {
        const Observation& observation = frame.observation;
        const double t0 = Now();
        const Status managed = manager_.manager->Observe(spec.id, observation);
        const double t1 = Now();
        const Status appended = store_->AppendObservation(
            spec.id, s.history.size() + 1, observation);
        const double t2 = Now();
        s.optimizer->ObserveWithMetrics(observation.config, observation.score,
                                        observation.internal_metrics);
        const double t3 = Now();
        if (!managed.ok() || !appended.ok()) {
          call->error = "observe replay failed for " + spec.id;
        }
        s.history.push_back(observation);
        if (s.surrogate != nullptr) s.surrogate->Observe(observation);
        call->manager_s = t1 - t0;
        call->store_s = t2 - t1;
        call->optimizer_s = t3 - t2;
        AddSpan(call, "session_manager.observe", t0, t1);
        AddSpan(call, "store.append", t1, t2);
        AddSpan(call, "optimizer.observe", t2, t3);
        return;
      }
      case Op::kClose: {
        const double t0 = Now();
        const Status closed = manager_.manager->CloseSession(spec.id);
        const double t1 = Now();
        const Status finished = store_->FinishSession(spec.id, space_, spec.id);
        const double t2 = Now();
        if (!closed.ok() || !finished.ok()) {
          call->error = "close replay failed for " + spec.id;
        }
        call->manager_s = t1 - t0;
        call->store_s = t2 - t1;
        AddSpan(call, "session_manager.close", t0, t1);
        AddSpan(call, "store.finish", t1, t2);
        s.optimizer.reset();
        return;
      }
    }
  }

  const std::vector<SessionSpec>& sessions_;
  const std::vector<double>& references_;
  const ConfigurationSpace& space_;
  ReplayServer manager_;
  const std::string store_path_;
  std::unique_ptr<store::ObservationStore> store_;
  size_t checkpoints_ = 0;
  std::vector<double> recovery_s_;
  std::vector<LayerSession> state_;
  std::vector<std::vector<Call>> rounds_;
  std::string error_;
};

// ---------------------------------------------------------------------
// Scheduler replay: the recorded frames re-issued to a fresh
// manager + scheduler in ServeBuffered's order — suggest/observe
// enqueued, create/close as barriers that drain first — with Pump()
// called one wave at a time.

struct Wave {
  size_t round = 0;
  double start = 0.0;
  double end = 0.0;
  std::vector<uint32_t> sessions;
  std::vector<size_t> frames;
};

struct SchedulerReplay {
  std::vector<Wave> waves;
  std::vector<double> queue_wait_s;
  std::vector<double> create_s;
  std::vector<double> close_s;
  /// Per round: create/close time and wave time.
  std::vector<double> round_calls_s;
  std::vector<double> round_waves_s;
  size_t barrier_flushes = 0;
  std::string error;
};

SchedulerReplay ReplayScheduler(const std::vector<SessionSpec>& sessions,
                                const std::vector<double>& references,
                                const ConfigurationSpace& space,
                                const Recording& recording,
                                const std::string& dir) {
  SchedulerReplay out;
  ReplayServer server(dir + "/scheduler.wal", &space);
  if (Status started = server.Start(); !started.ok()) {
    out.error = started.ToString();
    return out;
  }
  const size_t width = serve::SchedulerOptions().batch_width;
  struct Pending {
    size_t frame = 0;
    uint64_t ticket = 0;
    double enqueued = 0.0;
  };

  auto call = [&](size_t r, const FrameRecord& frame) {
    const SessionSpec& spec = sessions[frame.session];
    const double start = Now();
    Status status = Status::OK();
    if (frame.op == Op::kCreate) {
      status = server.manager->CreateSession(
          spec.id, SessionOptions(spec, references[frame.session]));
    } else {
      status = server.manager->CloseSession(spec.id);
    }
    const double elapsed = Now() - start;
    (frame.op == Op::kCreate ? out.create_s : out.close_s).push_back(elapsed);
    out.round_calls_s[r] += elapsed;
    if (!status.ok()) out.error = "scheduler replay: " + status.ToString();
  };

  for (size_t r = 0; r < recording.rounds.size(); ++r) {
    const RoundRecord& round = recording.rounds[r];
    out.round_calls_s.push_back(0.0);
    out.round_waves_s.push_back(0.0);
    if (round.kind == RoundKind::kAfterEvict) {
      server.manager->EvictIdle(kEvictIdleSeconds);
    }
    if (round.kind == RoundKind::kRestart) {
      if (Status restarted = server.Restart(); !restarted.ok()) {
        out.error = restarted.ToString();
        return out;
      }
    }
    std::vector<Pending> pending;
    auto flush = [&](bool barrier) {
      if (pending.empty()) return;
      if (barrier) ++out.barrier_flushes;
      // Waves take one request per session in session-id order, up to
      // the batch width; ids sort like session indices.
      std::sort(pending.begin(), pending.end(),
                [&](const Pending& a, const Pending& b) {
                  return round.frames[a.frame].session <
                         round.frames[b.frame].session;
                });
      for (size_t first = 0; first < pending.size(); first += width) {
        const size_t last = std::min(pending.size(), first + width);
        Wave wave;
        wave.round = r;
        wave.start = Now();
        const size_t executed = server.scheduler->Pump();
        wave.end = Now();
        if (executed != last - first) out.error = "unexpected wave width";
        for (size_t p = first; p < last; ++p) {
          wave.sessions.push_back(round.frames[pending[p].frame].session);
          wave.frames.push_back(pending[p].frame);
          out.queue_wait_s.push_back(wave.start - pending[p].enqueued);
        }
        out.round_waves_s[r] += wave.end - wave.start;
        out.waves.push_back(std::move(wave));
      }
      for (const Pending& p : pending) {
        const FrameRecord& frame = round.frames[p.frame];
        if (frame.op == Op::kSuggest) {
          Result<Configuration> taken = server.scheduler->TakeSuggest(p.ticket);
          if (!taken.ok() || !(taken->values() == frame.config)) {
            out.error = "scheduler replay suggestion differs";
          }
        } else if (!server.scheduler->TakeObserve(p.ticket).ok()) {
          out.error = "scheduler replay observe failed";
        }
      }
      pending.clear();
    };
    for (size_t f = 0; f < round.frames.size(); ++f) {
      const FrameRecord& frame = round.frames[f];
      const std::string& id = sessions[frame.session].id;
      switch (frame.op) {
        case Op::kSuggest:
          pending.push_back({f, server.scheduler->EnqueueSuggest(id), Now()});
          break;
        case Op::kObserve:
          pending.push_back(
              {f, server.scheduler->EnqueueObserve(id, frame.observation),
               Now()});
          break;
        case Op::kCreate:
        case Op::kClose:
          flush(true);
          call(r, frame);
          break;
      }
    }
    flush(false);
  }
  return out;
}

// ---------------------------------------------------------------------
// Server-side codec replay: per round, decode the request bytes the
// server received and re-encode the responses it sent.

std::vector<double> ReplayServerCodec(const Recording& recording,
                                      std::string* error) {
  std::vector<double> per_round;
  for (const RoundRecord& round : recording.rounds) {
    double total = 0.0;
    const double t0 = Now();
    serve::FrameReader reader;
    reader.Append(round.request_bytes);
    serve::Frame frame;
    size_t decoded = 0;
    while (true) {
      Result<bool> got = reader.Next(&frame);
      if (!got.ok() || !*got) break;
      bool ok = false;
      switch (frame.type) {
        case serve::MessageType::kCreateSession:
          ok = serve::DecodeCreateSession(frame).ok();
          break;
        case serve::MessageType::kSuggest:
          ok = serve::DecodeSuggest(frame).ok();
          break;
        case serve::MessageType::kObserve:
          ok = serve::DecodeObserve(frame).ok();
          break;
        default:
          ok = serve::DecodeCloseSession(frame).ok();
          break;
      }
      decoded += ok ? 1 : 0;
    }
    total += Now() - t0;
    if (decoded != round.frames.size()) *error = "codec replay decode failed";

    std::string_view rest(round.response_bytes);
    while (!rest.empty()) {
      serve::Frame response;
      Result<size_t> used = serve::DecodeFrame(rest, &response);
      if (!used.ok() || *used == 0) break;
      rest.remove_prefix(*used);
      const double start = Now();
      switch (response.type) {
        case serve::MessageType::kCreateSessionResponse:
          serve::EncodeCreateSessionResponse(
              response.request_id,
              serve::DecodeCreateSessionResponse(response).value());
          break;
        case serve::MessageType::kSuggestResponse:
          serve::EncodeSuggestResponse(
              response.request_id,
              serve::DecodeSuggestResponse(response).value());
          break;
        case serve::MessageType::kObserveResponse:
          serve::EncodeObserveResponse(
              response.request_id,
              serve::DecodeObserveResponse(response).value());
          break;
        default:
          serve::EncodeCloseSessionResponse(
              response.request_id,
              serve::DecodeCloseSessionResponse(response).value());
          break;
      }
      total += Now() - start;
    }
    per_round.push_back(total);
  }
  return per_round;
}

// ---------------------------------------------------------------------
// Program counters, read around the traced pass.

struct Counters {
  uint64_t gp_fits = 0;
  uint64_t gp_incremental = 0;
  uint64_t forest_fits = 0;
  uint64_t hyperopt_runs = 0;
  double fit_s = 0.0;
};

Counters ReadCounters() {
  const obs::MetricsRegistry& registry = obs::MetricsRegistry::Get();
  Counters c;
  if (const obs::Histogram* h = registry.FindHistogram("gp.fit")) {
    c.gp_fits = h->count();
    c.fit_s += h->sum_seconds();
  }
  if (const obs::Histogram* h = registry.FindHistogram("gp.fit.incremental")) {
    c.gp_incremental = h->count();
  }
  if (const obs::Histogram* h = registry.FindHistogram("forest.fit")) {
    c.forest_fits = h->count();
    c.fit_s += h->sum_seconds();
  }
  if (const obs::Counter* counter = registry.FindCounter("gp.hyperopt.runs")) {
    c.hyperopt_runs = counter->value();
  }
  return c;
}

bool WriteChromeTrace(const std::string& path, const Recording& recording,
                      const LayerReplay& layers,
                      const SchedulerReplay& scheduler) {
  std::FILE* file = std::fopen(path.c_str(), "w");
  if (file == nullptr) return false;
  bool ok = std::fputs("[\n", file) >= 0;
  bool first = true;
  auto emit = [&](const Span& span, int pid, double origin) {
    ok = ok && std::fprintf(file,
                            "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":%d,"
                            "\"tid\":%u,\"ts\":%.3f,\"dur\":%.3f,"
                            "\"args\":{\"request_id\":%llu}}",
                            first ? "" : ",\n", span.name, pid, span.lane,
                            Us(span.start - origin),
                            Us(span.end - span.start),
                            static_cast<unsigned long long>(span.id)) > 0;
    first = false;
  };
  const double pass_origin =
      recording.spans.empty() ? 0.0 : recording.spans.front().start;
  for (const Span& span : recording.spans) emit(span, 1, pass_origin);
  const double wave_origin =
      scheduler.waves.empty() ? 0.0 : scheduler.waves.front().start;
  for (const Wave& wave : scheduler.waves) {
    emit(Span{"scheduler.wave", wave.start, wave.end, wave.round, 0}, 2,
         wave_origin);
  }
  double layer_origin = -1.0;
  for (const auto& round : layers.rounds()) {
    for (const Call& call : round) {
      for (const Span& span : call.spans) {
        if (layer_origin < 0.0) layer_origin = span.start;
        emit(span, 3, layer_origin);
      }
    }
  }
  ok = ok && std::fputs("\n]\n", file) >= 0;
  const bool closed = std::fclose(file) == 0;
  return ok && closed;
}

}  // namespace

LayerRunResult RunLayers(const WorkloadSpec& spec,
                         const std::vector<SessionSpec>& sessions,
                         const std::vector<std::vector<Observation>>& expected,
                         const std::string& workdir, size_t lanes,
                         const std::string& trace_out, MetricSink* sink) {
  LayerRunResult out;
  auto check = [&](const PassResult& pass, const char* which) {
    out.attempted += pass.attempted;
    out.failed += pass.failed;
    std::string where;
    if (pass.failed > 0) {
      if (out.error.empty()) out.error = pass.error;
      return false;
    }
    if (!HistoriesEqual(expected, pass.histories, &where)) {
      if (out.error.empty()) {
        out.error = std::string(which) +
                    " pass diverges from the standalone loop at " + where;
      }
      return false;
    }
    return true;
  };

  // An untraced warm-up (a process's first pass runs cold), the traced
  // pass with the registry on, then the untraced baseline.
  const PassResult warmup =
      RunPass(spec, sessions, workdir + "/warmup", nullptr);
  bool correct = check(warmup, "warm-up");
  Recording recording;
  obs::SetMetricsEnabled(true);
  obs::MetricsRegistry::Get().Reset();
  const PassResult traced = RunPass(spec, sessions, workdir + "/traced",
                                    &recording);
  const Counters counters = ReadCounters();
  obs::SetMetricsEnabled(false);
  correct = check(traced, "traced") && correct;
  const PassResult baseline =
      RunPass(spec, sessions, workdir + "/baseline", nullptr);
  correct = check(baseline, "baseline") && correct;
  if (!correct) {
    out.correct = false;
    return out;
  }

  std::vector<double> references;
  for (const SessionSpec& session : sessions) {
    references.push_back(MakeClient(session).env->default_score());
  }
  const Client space_owner = MakeClient(sessions.front());
  const ConfigurationSpace& space = space_owner.env->space();

  const std::string replay_dir = workdir + "/replay";
  std::filesystem::remove_all(replay_dir);
  std::filesystem::create_directories(replay_dir);
  std::string codec_error;
  const std::vector<double> server_codec =
      ReplayServerCodec(recording, &codec_error);
  const SchedulerReplay scheduler =
      ReplayScheduler(sessions, references, space, recording, replay_dir);
  LayerReplay layers(sessions, references, space, replay_dir);
  std::string layer_error;
  if (Status started = layers.Start(); !started.ok()) {
    layer_error = started.ToString();
  } else {
    for (const RoundRecord& round : recording.rounds) layers.Round(round);
    layers.Finish();
    layer_error = layers.error();
  }
  std::filesystem::remove_all(replay_dir);
  for (const std::string& e : {codec_error, scheduler.error, layer_error}) {
    if (!e.empty()) {
      out.error = "replay: " + e;
      out.correct = false;
      return out;
    }
  }

  // ---- client side and protocol (traced pass) ----
  std::vector<double> encode_s;
  std::vector<double> decode_s;
  double bytes = 0.0;
  std::vector<double> serve_s;
  // Client-side time inside the traced pass's timed phase (set-up rounds
  // precede it).
  double covered = Sum(recording.evaluate_s) + recording.evict_s +
                   recording.reopen_s;
  for (const RoundRecord& round : recording.rounds) {
    for (const FrameRecord& frame : round.frames) {
      encode_s.push_back(frame.encode_s);
      decode_s.push_back(frame.decode_s);
      if (round.kind != RoundKind::kSetup) {
        covered += frame.encode_s + frame.decode_s;
      }
    }
    bytes += static_cast<double>(round.request_bytes.size() +
                                 round.response_bytes.size());
    serve_s.push_back(round.serve_end - round.serve_start);
    if (round.kind != RoundKind::kSetup) covered += serve_s.back();
  }

  // ---- per-call layer times (layer replay) ----
  std::vector<double> manager_suggest_self;
  std::vector<double> manager_observe_self;
  std::vector<double> resurrect_s;
  std::vector<double> optimizer_suggest;
  std::vector<double> optimizer_suggest_self;
  std::vector<double> optimizer_observe;
  std::vector<double> append_s;
  std::vector<double> finish_s;
  std::vector<double> fit_s;
  std::vector<double> predict_batch_s;
  size_t model_suggests = 0;
  size_t live_suggests = 0;
  size_t replay_suggests = 0;
  size_t resurrections = 0;
  size_t replayed_observations = 0;
  size_t queries = 0;
  double busy_manager = 0.0;
  double busy_optimizer = 0.0;
  double busy_surrogate = 0.0;
  double busy_store = 0.0;
  auto account = [&](const Call& call) {
    const double surrogate = call.surrogate.total_s;
    const double optimizer = call.optimizer_s + call.resurrect_s - surrogate;
    busy_surrogate += surrogate;
    busy_optimizer += std::max(0.0, optimizer);
    busy_store += call.store_s;
    busy_manager += std::max(0.0, call.manager_s - call.optimizer_s -
                                      call.resurrect_s - call.store_s);
    fit_s.insert(fit_s.end(), call.surrogate.fit_s.begin(),
                 call.surrogate.fit_s.end());
    predict_batch_s.insert(predict_batch_s.end(),
                           call.surrogate.predict_batch_s.begin(),
                           call.surrogate.predict_batch_s.end());
    queries += call.surrogate.queries;
    replay_suggests += call.replay_suggests;
    if (call.rebuilt) {
      // The manager's rebuild path (a fresh create replays nothing), so
      // the metric has samples on every workload.
      resurrect_s.push_back(call.op == Op::kCreate
                                ? call.manager_s
                                : call.manager_s - call.optimizer_s);
      if (call.replayed > 0) {
        ++resurrections;
        replayed_observations += call.replayed;
      }
    }
    switch (call.op) {
      case Op::kSuggest:
        ++live_suggests;
        model_suggests += call.model ? 1 : 0;
        optimizer_suggest.push_back(call.optimizer_s);
        optimizer_suggest_self.push_back(call.optimizer_s -
                                         call.live_surrogate_s);
        if (!call.rebuilt) {
          manager_suggest_self.push_back(call.manager_s - call.optimizer_s);
        }
        break;
      case Op::kObserve:
        optimizer_observe.push_back(call.optimizer_s);
        append_s.push_back(call.store_s);
        manager_observe_self.push_back(call.manager_s - call.store_s -
                                       call.optimizer_s);
        break;
      case Op::kClose:
        finish_s.push_back(call.store_s);
        break;
      case Op::kCreate:
        break;
    }
  };
  for (const auto& round : layers.rounds()) {
    for (const Call& call : round) account(call);
  }

  // ---- scheduler and frame server ----
  std::vector<double> wave_ms;
  std::vector<double> wave_width;
  std::vector<double> straggler_ms;
  double work_s = 0.0;
  double lane_s = 0.0;
  double busy_scheduler = 0.0;
  for (const Wave& wave : scheduler.waves) {
    std::vector<double> call_s;
    for (size_t f : wave.frames) {
      call_s.push_back(layers.rounds()[wave.round][f].manager_s);
    }
    const double wall = wave.end - wave.start;
    const double slowest = *std::max_element(call_s.begin(), call_s.end());
    wave_ms.push_back(Ms(wall));
    wave_width.push_back(static_cast<double>(wave.sessions.size()));
    straggler_ms.push_back(Ms(slowest - Median(call_s)));
    work_s += Sum(call_s);
    lane_s += static_cast<double>(lanes) * wall;
    busy_scheduler += std::max(0.0, wall - slowest);
  }
  std::vector<double> frame_server_self;
  double busy_frame_server = 0.0;
  for (size_t r = 0; r < recording.rounds.size(); ++r) {
    const double self = serve_s[r] - server_codec[r] -
                        scheduler.round_waves_s[r] -
                        scheduler.round_calls_s[r];
    frame_server_self.push_back(self);
    busy_frame_server += std::max(0.0, self);
  }

  const double busy_client = Sum(recording.evaluate_s);
  const double busy_protocol =
      Sum(encode_s) + Sum(decode_s) + Sum(server_codec);
  const double busy_total = busy_client + busy_protocol + busy_frame_server +
                            busy_scheduler + busy_manager + busy_optimizer +
                            busy_surrogate + busy_store;
  auto share = [&](double busy) {
    return busy_total > 0.0 ? busy / busy_total : 0.0;
  };
  const uint64_t program_fits = counters.gp_fits + counters.forest_fits;
  bool counters_apply = true;
  for (const SessionSpec& session : sessions) {
    counters_apply = counters_apply && SurrogateReplay::Covers(session.type);
  }
  if (counters_apply && program_fits != fit_s.size()) {
    out.error = "surrogate replay drifted: " + std::to_string(fit_s.size()) +
                " replayed fits vs " + std::to_string(program_fits) +
                " counted by the program";
    out.correct = false;
    return out;
  }
  const double fit_time_ratio =
      counters.fit_s > 0.0 ? Sum(fit_s) / counters.fit_s : 0.0;
  std::printf(
      "{\"workload\":\"%s\",\"check\":\"surrogate_replay\",\"applies\":%s,"
      "\"replayed_fits\":%zu,\"program_fits\":%llu,"
      "\"fit_time_ratio\":%.4f}\n",
      spec.name.c_str(), counters_apply ? "true" : "false", fit_s.size(),
      static_cast<unsigned long long>(program_fits), fit_time_ratio);
  if (counters_apply && (fit_time_ratio < 0.75 || fit_time_ratio > 1.25)) {
    // Timing, unlike the count, moves with outside load; report it.
    std::fprintf(stderr,
                 "bench_e2e: replayed fit time is %.2fx the program's\n",
                 fit_time_ratio);
  }
  const size_t iterations = traced.iterations;

  sink->Add("protocol.encode_us_p50", Us(Median(encode_s)), "us",
            encode_s.size());
  sink->Add("protocol.decode_us_p50", Us(Median(decode_s)), "us",
            decode_s.size());
  sink->Add("protocol.bytes_per_iteration",
            bytes / static_cast<double>(std::max<size_t>(iterations, 1)),
            "bytes", iterations);
  sink->Add("protocol.share", share(busy_protocol), "ratio", 1);
  sink->Add("frame_server.self_ms_p50", Ms(Median(frame_server_self)), "ms",
            frame_server_self.size());
  sink->Add("frame_server.barrier_flushes",
            static_cast<double>(scheduler.barrier_flushes), "count", 1);
  sink->Add("frame_server.share", share(busy_frame_server), "ratio", 1);
  sink->Add("scheduler.waves", static_cast<double>(scheduler.waves.size()),
            "count", 1);
  sink->Add("scheduler.wave_width_p50", Median(wave_width), "count",
            wave_width.size());
  sink->Add("scheduler.wave_ms_p50", Quantile(wave_ms, 0.5), "ms",
            wave_ms.size());
  sink->Add("scheduler.wave_ms_p99", Quantile(wave_ms, 0.99), "ms",
            wave_ms.size());
  sink->Add("scheduler.queue_wait_ms_p50",
            Ms(Quantile(scheduler.queue_wait_s, 0.5)), "ms",
            scheduler.queue_wait_s.size());
  sink->Add("scheduler.queue_wait_ms_p99",
            Ms(Quantile(scheduler.queue_wait_s, 0.99)), "ms",
            scheduler.queue_wait_s.size());
  sink->Add("scheduler.fanout_efficiency",
            lane_s > 0.0 ? work_s / lane_s : 0.0, "ratio",
            scheduler.waves.size());
  sink->Add("scheduler.straggler_ms_p50", Median(straggler_ms), "ms",
            straggler_ms.size());
  sink->Add("scheduler.share", share(busy_scheduler), "ratio", 1);
  sink->Add("session_manager.suggest_self_us_p50",
            Us(Median(manager_suggest_self)), "us",
            manager_suggest_self.size());
  sink->Add("session_manager.observe_self_us_p50",
            Us(Median(manager_observe_self)), "us",
            manager_observe_self.size());
  sink->Add("session_manager.create_ms_p50", Ms(Median(scheduler.create_s)),
            "ms", scheduler.create_s.size());
  sink->Add("session_manager.close_ms_p50", Ms(Median(scheduler.close_s)),
            "ms", scheduler.close_s.size());
  sink->Add("session_manager.resurrections",
            static_cast<double>(resurrections), "count", 1);
  sink->Add("session_manager.replayed_observations",
            static_cast<double>(replayed_observations), "count", 1);
  sink->Add("session_manager.resurrect_ms_p50",
            Ms(Quantile(resurrect_s, 0.5)), "ms", resurrect_s.size());
  sink->Add("session_manager.resurrect_ms_p99",
            Ms(Quantile(resurrect_s, 0.99)), "ms", resurrect_s.size());
  sink->Add("session_manager.share", share(busy_manager), "ratio", 1);
  sink->Add("optimizer.suggest_ms_p50", Ms(Quantile(optimizer_suggest, 0.5)),
            "ms", optimizer_suggest.size());
  sink->Add("optimizer.suggest_ms_p99",
            Ms(Quantile(optimizer_suggest, 0.99)), "ms",
            optimizer_suggest.size());
  sink->Add("optimizer.suggest_self_ms_p50",
            Ms(Median(optimizer_suggest_self)), "ms",
            optimizer_suggest_self.size());
  sink->Add("optimizer.model_suggest_fraction",
            live_suggests > 0 ? static_cast<double>(model_suggests) /
                                    static_cast<double>(live_suggests)
                              : 0.0,
            "ratio", live_suggests);
  sink->Add("optimizer.observe_us_p50", Us(Median(optimizer_observe)), "us",
            optimizer_observe.size());
  sink->Add("optimizer.replay_suggests", static_cast<double>(replay_suggests),
            "count", 1);
  sink->Add("optimizer.share", share(busy_optimizer), "ratio", 1);
  sink->Add("surrogate.fits", static_cast<double>(fit_s.size()), "count", 1);
  sink->Add("surrogate.fit_ms_p50", Ms(Quantile(fit_s, 0.5)), "ms",
            fit_s.size());
  sink->Add("surrogate.fit_ms_p99", Ms(Quantile(fit_s, 0.99)), "ms",
            fit_s.size());
  sink->Add("surrogate.predict_batch_ms_p50", Ms(Median(predict_batch_s)),
            "ms", predict_batch_s.size());
  sink->Add("surrogate.predict_queries", static_cast<double>(queries),
            "count", 1);
  sink->Add("surrogate.incremental_fit_fraction",
            counters.gp_fits > 0
                ? static_cast<double>(counters.gp_incremental) /
                      static_cast<double>(counters.gp_fits)
                : 0.0,
            "ratio", counters.gp_fits);
  sink->Add("surrogate.hyperopt_runs",
            static_cast<double>(counters.hyperopt_runs), "count", 1);
  sink->Add("surrogate.share", share(busy_surrogate), "ratio", 1);
  sink->Add("store.append_us_p50", Us(Quantile(append_s, 0.5)), "us",
            append_s.size());
  sink->Add("store.append_ms_p99", Ms(Quantile(append_s, 0.99)), "ms",
            append_s.size());
  sink->Add("store.checkpoints", static_cast<double>(layers.checkpoints()),
            "count", 1);
  sink->Add("store.write_mb", static_cast<double>(traced.written_bytes) / 1e6,
            "MB", 1);
  sink->Add("store.finish_ms_p50", Ms(Median(finish_s)), "ms",
            finish_s.size());
  sink->Add("store.recovery_s", Median(layers.recovery_s()), "s",
            layers.recovery_s().size());
  sink->Add("store.share", share(busy_store), "ratio", 1);
  sink->Add("client.evaluate_us_p50", Us(Median(recording.evaluate_s)), "us",
            recording.evaluate_s.size());
  sink->Add("client.share", share(busy_client), "ratio", 1);
  sink->Add("trace.overhead_pct",
            100.0 * (traced.timed_s - baseline.timed_s) / baseline.timed_s,
            "%", 1);
  sink->Add("trace.unattributed_share", 1.0 - covered / traced.timed_s,
            "ratio", 1);

  if (!trace_out.empty() &&
      !WriteChromeTrace(trace_out, recording, layers, scheduler)) {
    std::fprintf(stderr, "bench_e2e: cannot write trace to %s\n",
                 trace_out.c_str());
  }
  out.correct = true;
  return out;
}

}  // namespace dbtune::e2e
