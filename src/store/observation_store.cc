#include "store/observation_store.h"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <optional>

#include "obs/metrics.h"
#include "util/logging.h"

namespace dbtune::store {

namespace {

constexpr size_t kWalHeaderBytes = 8;           // magic
constexpr size_t kSnapshotHeaderBytes = 8 + 8;  // magic + covered lsn
constexpr size_t kSealedLogHeaderBytes = 8;     // magic

/// Reads the whole file into a string with one sized read; NotFound when
/// it does not exist.
Result<std::string> ReadFileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary | std::ios::ate);
  if (!in) return Status::NotFound("cannot open " + path);
  const std::streamoff size = in.tellg();
  if (size < 0) return Status::Internal("cannot size " + path);
  std::string bytes(static_cast<size_t>(size), '\0');
  in.seekg(0);
  if (!in.read(bytes.data(), size)) {
    return Status::Internal("read failed for " + path);
  }
  return bytes;
}

std::string EncodeBeginSession(const std::string& id, uint64_t dimension) {
  WalEncoder enc;
  enc.PutString(id);
  enc.PutU64(dimension);
  return enc.bytes();
}

std::string EncodeObservation(const std::string& id, uint64_t iteration,
                              const Observation& obs) {
  WalEncoder enc;
  enc.PutString(id);
  enc.PutU64(iteration);
  enc.PutDoubles(obs.config.values());
  enc.PutDouble(obs.score);
  enc.PutDouble(obs.objective);
  enc.PutU8(obs.failed ? 1 : 0);
  enc.PutDoubles(obs.internal_metrics);
  return enc.bytes();
}

std::string EncodeEndSession(const std::string& id) {
  WalEncoder enc;
  enc.PutString(id);
  return enc.bytes();
}

std::string EncodeTask(const SourceTask& task) {
  WalEncoder enc;
  enc.PutString(task.name);
  enc.PutU64(task.unit_x.size());
  for (const std::vector<double>& row : task.unit_x) enc.PutDoubles(row);
  enc.PutDoubles(task.scores);
  enc.PutDoubles(task.metric_signature);
  return enc.bytes();
}

std::string EncodeTruncateSession(const std::string& id, uint64_t keep) {
  WalEncoder enc;
  enc.PutString(id);
  enc.PutU64(keep);
  return enc.bytes();
}

struct ObservationRecord {
  std::string id;
  uint64_t iteration = 0;
  Observation obs;
};

Result<ObservationRecord> DecodeObservation(std::string_view body) {
  WalDecoder dec(body);
  ObservationRecord record;
  DBTUNE_ASSIGN_OR_RETURN(record.id, dec.ReadString());
  DBTUNE_ASSIGN_OR_RETURN(record.iteration, dec.ReadU64());
  DBTUNE_ASSIGN_OR_RETURN(std::vector<double> config, dec.ReadDoubles());
  record.obs.config = Configuration(std::move(config));
  DBTUNE_ASSIGN_OR_RETURN(record.obs.score, dec.ReadDouble());
  DBTUNE_ASSIGN_OR_RETURN(record.obs.objective, dec.ReadDouble());
  DBTUNE_ASSIGN_OR_RETURN(const uint8_t failed, dec.ReadU8());
  record.obs.failed = failed != 0;
  DBTUNE_ASSIGN_OR_RETURN(record.obs.internal_metrics, dec.ReadDoubles());
  return record;
}

Result<SourceTask> DecodeTask(std::string_view body) {
  WalDecoder dec(body);
  SourceTask task;
  DBTUNE_ASSIGN_OR_RETURN(task.name, dec.ReadString());
  DBTUNE_ASSIGN_OR_RETURN(const uint64_t rows, dec.ReadU64());
  task.unit_x.reserve(rows);
  for (uint64_t r = 0; r < rows; ++r) {
    DBTUNE_ASSIGN_OR_RETURN(std::vector<double> row, dec.ReadDoubles());
    task.unit_x.push_back(std::move(row));
  }
  DBTUNE_ASSIGN_OR_RETURN(task.scores, dec.ReadDoubles());
  DBTUNE_ASSIGN_OR_RETURN(task.metric_signature, dec.ReadDoubles());
  return task;
}

Status DamagedEntry(const std::string& path, const std::string& id) {
  return Status::Internal("damaged sealed-log entry for '" + id + "' in " +
                          path);
}

/// Decodes a sealed session as the sealed log holds it: the begin frame,
/// one frame per observation and the end frame, each CRC-checked.
Result<StoredSession> DecodeSealedSession(std::string_view frames,
                                          const std::string& path,
                                          const std::string& id) {
  StoredSession session;
  bool begun = false;
  bool ended = false;
  // Any visitor error means a damaged entry; its message is not kept.
  const Result<WalScanExtent> scan = ForEachWalFrame(
      frames, 0, [&](const WalFrameView& frame) -> Status {
        const Status damaged = Status::Internal("");
        // One begin frame first, nothing after the end frame.
        const bool is_begin = frame.type == WalRecordType::kBeginSession;
        if (ended || begun == is_begin) return damaged;
        WalDecoder dec(frame.body);
        switch (frame.type) {
          case WalRecordType::kBeginSession: {
            DBTUNE_ASSIGN_OR_RETURN(session.id, dec.ReadString());
            DBTUNE_ASSIGN_OR_RETURN(const uint64_t dimension, dec.ReadU64());
            session.dimension = static_cast<size_t>(dimension);
            begun = true;
            return Status::OK();
          }
          case WalRecordType::kObservation: {
            DBTUNE_ASSIGN_OR_RETURN(ObservationRecord record,
                                    DecodeObservation(frame.body));
            if (record.id != session.id ||
                record.iteration != session.observations.size() + 1) {
              return damaged;
            }
            session.observations.push_back(std::move(record.obs));
            return Status::OK();
          }
          case WalRecordType::kEndSession: {
            DBTUNE_ASSIGN_OR_RETURN(const std::string end_id, dec.ReadString());
            ended = end_id == session.id;
            return ended ? Status::OK() : damaged;
          }
          default:
            return damaged;
        }
      });
  if (!scan.ok() || scan->torn_tail || !ended || session.id != id) {
    return DamagedEntry(path, id);
  }
  session.finished = true;
  return session;
}

/// Decodes a task as the sealed log (or the task's retained frame) holds
/// it: exactly one CRC-checked task frame.
Result<SourceTask> DecodeTaskFrame(std::string_view frame,
                                   const std::string& path,
                                   const std::string& name) {
  std::optional<SourceTask> task;
  const Result<WalScanExtent> scan =
      ForEachWalFrame(frame, 0, [&](const WalFrameView& view) -> Status {
        if (task.has_value() || view.type != WalRecordType::kTask) {
          return Status::Internal("");
        }
        DBTUNE_ASSIGN_OR_RETURN(task, DecodeTask(view.body));
        return Status::OK();
      });
  if (!scan.ok() || scan->torn_tail || !task.has_value() ||
      task->name != name) {
    return DamagedEntry(path, name);
  }
  return *std::move(task);
}

}  // namespace

ObservationStore::ObservationStore(std::string path, StoreOptions options)
    : path_(std::move(path)),
      sealed_path_(path_ + ".sealed"),
      options_(options) {}

Result<std::unique_ptr<ObservationStore>> ObservationStore::Open(
    const std::string& path, StoreOptions options) {
  if (path.empty()) return Status::InvalidArgument("empty store path");
  // Private constructor: make_unique cannot reach it.
  std::unique_ptr<ObservationStore> s(
      new ObservationStore(path, options));  // dbtune-lint: allow(naked-new)
  {
    MutexLock lock(&s->mu_);
    DBTUNE_RETURN_IF_ERROR(s->Recover());
  }
  return s;
}

Status ObservationStore::Recover() {
  mu_.AssertHeld();
  uint64_t snapshot_lsn = 0;

  // --- Snapshot first: it is always written atomically (tmp+rename), so
  // any damage here is real corruption, not a crash artifact.
  const std::string snapshot_path = path_ + ".snapshot";
  Result<std::string> snapshot_bytes = ReadFileBytes(snapshot_path);
  if (snapshot_bytes.ok()) {
    const std::string& data = snapshot_bytes.value();
    if (data.size() < kSnapshotHeaderBytes ||
        std::memcmp(data.data(), kSnapshotMagic, sizeof(kSnapshotMagic)) !=
            0) {
      return Status::Internal(snapshot_path + " is not a dbtune snapshot");
    }
    for (int i = 7; i >= 0; --i) {
      snapshot_lsn = (snapshot_lsn << 8) |
                     static_cast<uint8_t>(data[sizeof(kSnapshotMagic) + i]);
    }
    // Snapshot frames carry the LSNs they were logged with (0 in older
    // snapshots); only the covered LSN above orders the snapshot against
    // the log, so per-frame LSNs are not consulted here.
    DBTUNE_ASSIGN_OR_RETURN(
        const WalScanExtent scan,
        ForEachWalFrame(data, kSnapshotHeaderBytes,
                        [this](const WalFrameView& record) {
                          mu_.AssertHeld();
                          if (record.type == WalRecordType::kSealedManifest) {
                            return LoadManifest(record.body);
                          }
                          return ApplyRecord(record);
                        }));
    if (scan.torn_tail) {
      return Status::Internal("corrupt snapshot " + snapshot_path);
    }
    stats_.loaded_snapshot = true;
    next_lsn_ = snapshot_lsn + 1;
    stats_.last_lsn = snapshot_lsn;
  } else if (snapshot_bytes.status().code() != StatusCode::kNotFound) {
    return snapshot_bytes.status();
  }
  // The manifest says how much of the sealed log the snapshot stands on;
  // the log itself is read only by lookups.
  DBTUNE_RETURN_IF_ERROR(RecoverSealedLog());

  // --- Then the WAL: replay every intact record past the snapshot and
  // truncate a torn tail (the expected shape after a crash mid-append).
  Result<std::string> wal_bytes = ReadFileBytes(path_);
  if (wal_bytes.ok() && !wal_bytes.value().empty()) {
    const std::string& data = wal_bytes.value();
    if (data.size() < kWalHeaderBytes) {
      DBTUNE_LOG(kWarning) << "wal " << path_
                           << " torn inside the header; starting fresh";
      stats_.recovered_torn_tail = true;
      std::error_code ec;
      std::filesystem::resize_file(path_, 0, ec);
      if (ec) return Status::Internal("cannot truncate wal " + path_);
    } else if (std::memcmp(data.data(), kWalMagic, sizeof(kWalMagic)) != 0) {
      return Status::Internal(path_ + " is not a dbtune wal");
    } else {
      DBTUNE_ASSIGN_OR_RETURN(
          const WalScanExtent scan,
          ForEachWalFrame(
              data, kWalHeaderBytes,
              [this, snapshot_lsn](const WalFrameView& record) -> Status {
                mu_.AssertHeld();
                // Records at or below the snapshot LSN survive only when a
                // crash hit between the snapshot rename and the log
                // compaction; the snapshot already holds their effects.
                if (record.lsn <= snapshot_lsn) return Status::OK();
                DBTUNE_RETURN_IF_ERROR(ApplyRecord(record));
                ++stats_.wal_records_replayed;
                if (record.lsn >= next_lsn_) next_lsn_ = record.lsn + 1;
                stats_.last_lsn = next_lsn_ - 1;
                return Status::OK();
              }));
      if (scan.torn_tail) {
        DBTUNE_LOG(kWarning)
            << "wal " << path_ << " has a torn tail; truncating "
            << (data.size() - scan.valid_bytes) << " byte(s) after "
            << scan.frames << " intact record(s)";
        stats_.recovered_torn_tail = true;
        std::error_code ec;
        std::filesystem::resize_file(path_, scan.valid_bytes, ec);
        if (ec) return Status::Internal("cannot truncate wal " + path_);
      }
    }
  }

  // --- Make sure an (empty or truncated-to-zero) WAL has its header
  // before appends resume.
  bool need_header = true;
  if (wal_bytes.ok() && wal_bytes.value().size() >= kWalHeaderBytes &&
      std::memcmp(wal_bytes.value().data(), kWalMagic, sizeof(kWalMagic)) ==
          0) {
    need_header = false;
  }
  if (need_header) {
    std::FILE* created = std::fopen(path_.c_str(), "wb");
    if (created == nullptr) {
      return Status::Internal("cannot create wal " + path_);
    }
    const size_t written =
        std::fwrite(kWalMagic, 1, sizeof(kWalMagic), created);
    const bool closed = std::fclose(created) == 0;
    if (written != sizeof(kWalMagic) || !closed) {
      return Status::Internal("cannot write wal header of " + path_);
    }
  }
  DBTUNE_ASSIGN_OR_RETURN(wal_, WalWriter::OpenForAppend(path_));
  return Status::OK();
}

Status ObservationStore::LoadManifest(std::string_view body) {
  mu_.AssertHeld();
  WalDecoder dec(body);
  DBTUNE_ASSIGN_OR_RETURN(sealed_bytes_, dec.ReadU64());
  // Sessions, then tasks, each count-prefixed.
  for (const bool sessions : {true, false}) {
    DBTUNE_ASSIGN_OR_RETURN(const uint64_t count, dec.ReadU64());
    for (uint64_t i = 0; i < count; ++i) {
      SealedEntry entry;
      DBTUNE_ASSIGN_OR_RETURN(entry.id, dec.ReadString());
      DBTUNE_ASSIGN_OR_RETURN(entry.lsn, dec.ReadU64());
      DBTUNE_ASSIGN_OR_RETURN(entry.dimension, dec.ReadU64());
      DBTUNE_ASSIGN_OR_RETURN(entry.observations, dec.ReadU64());
      DBTUNE_ASSIGN_OR_RETURN(entry.offset, dec.ReadU64());
      DBTUNE_ASSIGN_OR_RETURN(entry.length, dec.ReadU64());
      if (entry.offset < kSealedLogHeaderBytes ||
          entry.length > sealed_bytes_ ||
          entry.offset > sealed_bytes_ - entry.length) {
        return Status::Internal("sealed-log manifest entry for '" + entry.id +
                                "' lies outside the covered log");
      }
      if (sessions) {
        std::string id = entry.id;
        sealed_sessions_.insert_or_assign(std::move(id), std::move(entry));
      } else {
        sealed_tasks_.push_back(std::move(entry));
      }
    }
  }
  if (!dec.AtEnd()) return Status::Internal("corrupt sealed-log manifest");
  return Status::OK();
}

Status ObservationStore::RecoverSealedLog() {
  mu_.AssertHeld();
  std::error_code ec;
  uintmax_t size = std::filesystem::file_size(sealed_path_, ec);
  if (ec) {
    if (ec != std::errc::no_such_file_or_directory) {
      return Status::Internal("cannot size sealed log " + sealed_path_);
    }
    size = 0;
  }
  if (size < sealed_bytes_) {
    return Status::Internal("sealed log " + sealed_path_ + " holds " +
                            std::to_string(size) + " byte(s); the snapshot "
                            "stands on " + std::to_string(sealed_bytes_));
  }
  if (size > sealed_bytes_) {
    // A crash between the sealed-log append and the snapshot rename: the
    // WAL still holds those records, so the next checkpoint moves them
    // again.
    DBTUNE_LOG(kWarning) << "sealed log " << sealed_path_ << " has "
                         << (size - sealed_bytes_)
                         << " byte(s) past the length the snapshot covers; "
                            "truncating";
    std::filesystem::resize_file(sealed_path_, sealed_bytes_, ec);
    if (ec) return Status::Internal("cannot truncate " + sealed_path_);
  }
  if (sealed_bytes_ > 0) {
    DBTUNE_ASSIGN_OR_RETURN(sealed_log_,
                            WalWriter::OpenForAppend(sealed_path_));
  }
  return Status::OK();
}

Status ObservationStore::ApplyRecord(const WalFrameView& record) {
  mu_.AssertHeld();
  WalDecoder dec(record.body);
  switch (record.type) {
    case WalRecordType::kBeginSession: {
      DBTUNE_ASSIGN_OR_RETURN(const std::string id, dec.ReadString());
      DBTUNE_ASSIGN_OR_RETURN(const uint64_t dimension, dec.ReadU64());
      // A sealed id starts over: its old history leaves the index (its
      // bytes stay in the append-only sealed log, unreferenced).
      sealed_sessions_.erase(id);
      SessionState& state = sessions_[id];
      state.session.id = id;
      state.session.dimension = static_cast<size_t>(dimension);
      state.session.finished = false;
      state.session.observations.clear();
      state.frames.assign(record.frame);
      state.observation_offsets.clear();
      state.end_frame.clear();
      state.seal_lsn = 0;
      return Status::OK();
    }
    case WalRecordType::kObservation: {
      DBTUNE_ASSIGN_OR_RETURN(ObservationRecord decoded,
                              DecodeObservation(record.body));
      auto it = sessions_.find(decoded.id);
      if (it == sessions_.end()) {
        return Status::Internal("observation for unknown session " +
                                decoded.id);
      }
      SessionState& state = it->second;
      if (decoded.iteration != state.session.observations.size() + 1) {
        return Status::Internal("out-of-order observation for session " +
                                decoded.id);
      }
      state.session.observations.push_back(std::move(decoded.obs));
      state.observation_offsets.push_back(state.frames.size());
      state.frames.append(record.frame);
      return Status::OK();
    }
    case WalRecordType::kEndSession: {
      DBTUNE_ASSIGN_OR_RETURN(const std::string id, dec.ReadString());
      auto it = sessions_.find(id);
      if (it == sessions_.end()) {
        return Status::Internal("end record for unknown session " + id);
      }
      it->second.session.finished = true;
      it->second.end_frame.assign(record.frame);
      it->second.seal_lsn = record.lsn;
      return Status::OK();
    }
    case WalRecordType::kTask: {
      DBTUNE_ASSIGN_OR_RETURN(const SourceTask task, DecodeTask(record.body));
      TaskState state;
      state.entry.id = task.name;
      state.entry.lsn = record.lsn;
      state.entry.dimension = task.unit_x.empty() ? 0 : task.unit_x[0].size();
      state.entry.observations = task.unit_x.size();
      state.frame.assign(record.frame);
      tasks_.push_back(std::move(state));
      return Status::OK();
    }
    case WalRecordType::kTruncateSession: {
      DBTUNE_ASSIGN_OR_RETURN(const std::string id, dec.ReadString());
      DBTUNE_ASSIGN_OR_RETURN(const uint64_t keep, dec.ReadU64());
      auto it = sessions_.find(id);
      if (it == sessions_.end()) {
        return Status::Internal("truncate record for unknown session " + id);
      }
      // Logs written before sealed sessions rejected truncation may still
      // truncate one here; its end frame stays.
      SessionState& state = it->second;
      if (keep < state.session.observations.size()) {
        state.session.observations.resize(keep);
        state.frames.resize(state.observation_offsets[keep]);
        state.observation_offsets.resize(keep);
      }
      return Status::OK();
    }
    case WalRecordType::kSealedManifest:
      return Status::Internal("sealed-log manifest outside a snapshot");
  }
  return Status::Internal("unknown wal record type");
}

Status ObservationStore::AppendAndApply(WalRecordType type,
                                        std::string body) {
  mu_.AssertHeld();
  const WalRecord record{next_lsn_, type, std::move(body)};
  // The record's only encode: the log gets these bytes now, and the
  // state retains them for the next checkpoint.
  const std::string frame = EncodeWalFrame(record);
  DBTUNE_RETURN_IF_ERROR(wal_.Append(frame));
  ++next_lsn_;
  stats_.last_lsn = record.lsn;
  return ApplyRecord(WalFrameView{record.lsn, type, record.body, frame});
}

Status ObservationStore::NotOpenLocked(const std::string& id) const {
  mu_.AssertHeld();
  if (sealed_sessions_.count(id) > 0) {
    return Status::FailedPrecondition("session " + id + " is finished");
  }
  return Status::NotFound("unknown session " + id);
}

Status ObservationStore::BeginSession(const std::string& id,
                                      size_t dimension) {
  if (id.empty()) return Status::InvalidArgument("empty session id");
  MutexLock lock(&mu_);
  auto it = sessions_.find(id);
  if (it != sessions_.end() && !it->second.session.finished) {
    if (it->second.session.dimension != dimension) {
      return Status::FailedPrecondition(
          "session " + id + " exists with a different dimension");
    }
    return Status::OK();  // resuming: the caller replays the history
  }
  return AppendAndApply(WalRecordType::kBeginSession,
                        EncodeBeginSession(id, dimension));
}

Status ObservationStore::AppendObservation(const std::string& id,
                                           size_t iteration,
                                           const Observation& obs) {
  static obs::Histogram& latency_hist =
      obs::MetricsRegistry::Get().histogram("store.append");
  obs::ScopedLatency latency(&latency_hist);
  MutexLock lock(&mu_);
  auto it = sessions_.find(id);
  if (it == sessions_.end()) return NotOpenLocked(id);
  const StoredSession& session = it->second.session;
  if (session.finished) {
    return Status::FailedPrecondition("session " + id + " is finished");
  }
  if (obs.config.size() != session.dimension) {
    return Status::InvalidArgument("observation arity mismatch for " + id);
  }
  if (iteration != session.observations.size() + 1) {
    return Status::InvalidArgument(
        "observation iteration out of order for " + id);
  }
  DBTUNE_RETURN_IF_ERROR(AppendAndApply(
      WalRecordType::kObservation, EncodeObservation(id, iteration, obs)));
  ++appends_since_checkpoint_;
  if (options_.snapshot_every > 0 &&
      appends_since_checkpoint_ >= options_.snapshot_every) {
    return CheckpointLocked();
  }
  return Status::OK();
}

Status ObservationStore::TruncateSession(const std::string& id, size_t keep) {
  MutexLock lock(&mu_);
  auto it = sessions_.find(id);
  if (it == sessions_.end()) return NotOpenLocked(id);
  // A sealed session's history (and its retained frames) never change;
  // BeginSession restarts it instead.
  if (it->second.session.finished) {
    return Status::FailedPrecondition("session " + id + " is finished");
  }
  if (keep >= it->second.session.observations.size()) return Status::OK();
  return AppendAndApply(WalRecordType::kTruncateSession,
                        EncodeTruncateSession(id, keep));
}

Status ObservationStore::FinishSession(const std::string& id,
                                       const ConfigurationSpace& space,
                                       const std::string& task_name) {
  MutexLock lock(&mu_);
  auto it = sessions_.find(id);
  if (it == sessions_.end()) return NotOpenLocked(id);
  const StoredSession& session = it->second.session;
  if (session.finished) {
    return Status::FailedPrecondition("session " + id + " is finished");
  }
  if (space.dimension() != session.dimension) {
    return Status::InvalidArgument("space dimension mismatch for " + id);
  }
  const SourceTask task = ObservationRepository::FromHistory(
      task_name, space, session.observations);
  DBTUNE_RETURN_IF_ERROR(
      AppendAndApply(WalRecordType::kTask, EncodeTask(task)));
  return AppendAndApply(WalRecordType::kEndSession, EncodeEndSession(id));
}

Status ObservationStore::PersistTask(const SourceTask& task) {
  MutexLock lock(&mu_);
  return AppendAndApply(WalRecordType::kTask, EncodeTask(task));
}

Result<uint64_t> ObservationStore::MoveSealedLocked() {
  mu_.AssertHeld();
  // What moves, in LSN order: every task, and every sealed session by its
  // end record. Legacy snapshot frames all carry LSN 0; the stable sort
  // keeps them in task order, then session id order.
  struct Move {
    uint64_t lsn = 0;
    const TaskState* task = nullptr;
    const SessionState* session = nullptr;
  };
  std::vector<Move> moves;
  for (const TaskState& task : tasks_) {
    moves.push_back({task.entry.lsn, &task, nullptr});
  }
  for (const auto& entry : sessions_) {
    if (entry.second.session.finished) {
      moves.push_back({entry.second.seal_lsn, nullptr, &entry.second});
    }
  }
  if (moves.empty()) return uint64_t{0};
  std::stable_sort(moves.begin(), moves.end(),
                   [](const Move& a, const Move& b) { return a.lsn < b.lsn; });

  uint64_t end = sealed_bytes_;
  if (end == 0) {
    // The first move starts the log, dropping whatever an earlier failed
    // first move left behind.
    std::FILE* created = std::fopen(sealed_path_.c_str(), "wb");
    if (created == nullptr || std::fclose(created) != 0) {
      return Status::Internal("cannot create sealed log " + sealed_path_);
    }
    DBTUNE_ASSIGN_OR_RETURN(sealed_log_,
                            WalWriter::OpenForAppend(sealed_path_));
    DBTUNE_RETURN_IF_ERROR(sealed_log_.Append(
        std::string_view(kSealedLogMagic, sizeof(kSealedLogMagic))));
    end = kSealedLogHeaderBytes;
  }
  // Nothing leaves memory until every frame is in the log; a failed
  // append leaves the state as it was (the writer disables itself, and
  // recovery truncates the torn bytes).
  std::vector<SealedEntry> entries;
  entries.reserve(moves.size());
  for (const Move& move : moves) {
    SealedEntry entry;
    if (move.task != nullptr) {
      entry = move.task->entry;
      DBTUNE_RETURN_IF_ERROR(sealed_log_.Append(move.task->frame));
      entry.length = move.task->frame.size();
    } else {
      const StoredSession& session = move.session->session;
      entry.id = session.id;
      entry.lsn = move.lsn;
      entry.dimension = session.dimension;
      entry.observations = session.observations.size();
      DBTUNE_RETURN_IF_ERROR(sealed_log_.Append(move.session->frames));
      DBTUNE_RETURN_IF_ERROR(sealed_log_.Append(move.session->end_frame));
      entry.length =
          move.session->frames.size() + move.session->end_frame.size();
    }
    entry.offset = end;
    end += entry.length;
    entries.push_back(std::move(entry));
  }
  for (size_t i = 0; i < moves.size(); ++i) {
    if (moves[i].task != nullptr) {
      sealed_tasks_.push_back(std::move(entries[i]));
    } else {
      std::string id = entries[i].id;
      sealed_sessions_.insert_or_assign(std::move(id), std::move(entries[i]));
    }
  }
  tasks_.clear();
  std::erase_if(sessions_, [](const auto& entry) {
    return entry.second.session.finished;
  });
  const uint64_t appended = end - sealed_bytes_;
  sealed_bytes_ = end;
  return appended;
}

Result<uint64_t> ObservationStore::WriteSnapshotLocked() {
  mu_.AssertHeld();
  char header[kSnapshotHeaderBytes];
  std::memcpy(header, kSnapshotMagic, sizeof(kSnapshotMagic));
  const uint64_t covered_lsn = next_lsn_ - 1;
  for (int i = 0; i < 8; ++i) {
    header[sizeof(kSnapshotMagic) + i] =
        static_cast<char>((covered_lsn >> (8 * i)) & 0xFF);
  }
  // The manifest is the one record encoded here. A store that never
  // sealed anything writes none, so its snapshot keeps the layout that
  // predates the sealed log byte for byte.
  std::string manifest;
  if (sealed_bytes_ > 0) {
    WalEncoder enc;
    enc.PutU64(sealed_bytes_);
    auto put_entry = [&enc](const SealedEntry& entry) {
      enc.PutString(entry.id);
      enc.PutU64(entry.lsn);
      enc.PutU64(entry.dimension);
      enc.PutU64(entry.observations);
      enc.PutU64(entry.offset);
      enc.PutU64(entry.length);
    };
    enc.PutU64(sealed_sessions_.size());
    for (const auto& entry : sealed_sessions_) put_entry(entry.second);
    enc.PutU64(sealed_tasks_.size());
    for (const SealedEntry& entry : sealed_tasks_) put_entry(entry);
    manifest = EncodeWalFrame(
        WalRecord{covered_lsn, WalRecordType::kSealedManifest, enc.bytes()});
  }

  const std::string snapshot_path = path_ + ".snapshot";
  const std::string tmp = snapshot_path + ".tmp";
  std::FILE* file = std::fopen(tmp.c_str(), "wb");
  if (file == nullptr) {
    return Status::Internal("cannot open snapshot file " + tmp);
  }
  // One sequential write of the retained frames, in the order recovery
  // applies them: the manifest, every session in memory (id order), then
  // every task in memory.
  uint64_t bytes = 0;
  bool written = true;
  auto put = [&](std::string_view chunk) {
    written = written &&
              std::fwrite(chunk.data(), 1, chunk.size(), file) == chunk.size();
    bytes += chunk.size();
  };
  put(std::string_view(header, sizeof(header)));
  put(manifest);
  for (const auto& entry : sessions_) {
    put(entry.second.frames);
    put(entry.second.end_frame);
  }
  for (const TaskState& task : tasks_) put(task.frame);
  const bool closed = std::fclose(file) == 0;
  if (!written || !closed) {
    std::remove(tmp.c_str());
    return Status::Internal("short write to snapshot file " + tmp);
  }
  if (std::rename(tmp.c_str(), snapshot_path.c_str()) != 0) {
    std::remove(tmp.c_str());
    return Status::Internal("cannot rename snapshot file to " +
                            snapshot_path);
  }
  return bytes;
}

Status ObservationStore::CheckpointLocked() {
  mu_.AssertHeld();
  static obs::Histogram& latency_hist =
      obs::MetricsRegistry::Get().histogram("store.checkpoint");
  obs::ScopedLatency latency(&latency_hist);
  DBTUNE_ASSIGN_OR_RETURN(const uint64_t sealed_bytes, MoveSealedLocked());
  DBTUNE_ASSIGN_OR_RETURN(const uint64_t bytes, WriteSnapshotLocked());
  DBTUNE_RETURN_IF_ERROR(wal_.TruncateToHeader());
  appends_since_checkpoint_ = 0;
  ++stats_.checkpoints;
  if (obs::MetricsEnabled()) {
    static obs::Counter& bytes_counter =
        obs::MetricsRegistry::Get().counter("store.checkpoint.bytes");
    bytes_counter.Increment(bytes);
    if (sealed_bytes > 0) {
      static obs::Counter& sealed_counter =
          obs::MetricsRegistry::Get().counter("store.sealed.bytes");
      sealed_counter.Increment(sealed_bytes);
    }
  }
  return Status::OK();
}

Status ObservationStore::Checkpoint() {
  MutexLock lock(&mu_);
  return CheckpointLocked();
}

Result<std::string> ObservationStore::ReadSealedLocked(
    std::ifstream* log, const SealedEntry& entry) const {
  mu_.AssertHeld();
  std::string bytes(static_cast<size_t>(entry.length), '\0');
  log->seekg(static_cast<std::streamoff>(entry.offset));
  if (!*log || !log->read(bytes.data(),
                          static_cast<std::streamsize>(bytes.size()))) {
    return DamagedEntry(sealed_path_, entry.id);
  }
  return bytes;
}

Result<StoredSession> ObservationStore::FindSession(
    const std::string& id) const {
  MutexLock lock(&mu_);
  if (auto it = sessions_.find(id); it != sessions_.end()) {
    return it->second.session;
  }
  auto sealed = sealed_sessions_.find(id);
  if (sealed == sealed_sessions_.end()) {
    return Status::NotFound("unknown session " + id);
  }
  const SealedEntry& entry = sealed->second;
  std::ifstream log(sealed_path_, std::ios::binary);
  DBTUNE_ASSIGN_OR_RETURN(const std::string frames,
                          ReadSealedLocked(&log, entry));
  DBTUNE_ASSIGN_OR_RETURN(StoredSession session,
                          DecodeSealedSession(frames, sealed_path_, id));
  if (session.dimension != entry.dimension ||
      session.observations.size() != entry.observations) {
    return DamagedEntry(sealed_path_, id);
  }
  return session;
}

Status ObservationStore::ExportTasks(
    ObservationRepository* repository) const {
  DBTUNE_CHECK(repository != nullptr);
  MutexLock lock(&mu_);
  // Decode everything first, so a damaged entry leaves `repository` as
  // it was. Moved tasks precede the ones still in memory in LSN order.
  std::vector<SourceTask> tasks;
  tasks.reserve(sealed_tasks_.size() + tasks_.size());
  if (!sealed_tasks_.empty()) {
    std::ifstream log(sealed_path_, std::ios::binary);
    for (const SealedEntry& entry : sealed_tasks_) {
      DBTUNE_ASSIGN_OR_RETURN(const std::string frame,
                              ReadSealedLocked(&log, entry));
      DBTUNE_ASSIGN_OR_RETURN(
          SourceTask task, DecodeTaskFrame(frame, sealed_path_, entry.id));
      tasks.push_back(std::move(task));
    }
  }
  for (const TaskState& state : tasks_) {
    DBTUNE_ASSIGN_OR_RETURN(
        SourceTask task, DecodeTaskFrame(state.frame, path_, state.entry.id));
    tasks.push_back(std::move(task));
  }
  for (SourceTask& task : tasks) repository->AddTask(std::move(task));
  return Status::OK();
}

std::vector<StoredSessionInfo> ObservationStore::ListSessions() const {
  MutexLock lock(&mu_);
  std::vector<StoredSessionInfo> infos;
  infos.reserve(sessions_.size() + sealed_sessions_.size());
  for (const auto& [id, state] : sessions_) {
    const StoredSession& session = state.session;
    infos.push_back({id, session.dimension, session.observations.size(),
                     session.finished});
  }
  for (const auto& [id, entry] : sealed_sessions_) {
    infos.push_back({id, static_cast<size_t>(entry.dimension),
                     static_cast<size_t>(entry.observations), true});
  }
  // An id is either in memory or in the sealed log, never both.
  std::sort(infos.begin(), infos.end(),
            [](const StoredSessionInfo& a, const StoredSessionInfo& b) {
              return a.id < b.id;
            });
  return infos;
}

size_t ObservationStore::num_tasks() const {
  MutexLock lock(&mu_);
  return sealed_tasks_.size() + tasks_.size();
}

StoreStats ObservationStore::stats() const {
  MutexLock lock(&mu_);
  StoreStats stats = stats_;
  stats.sealed_sessions = sealed_sessions_.size();
  stats.sealed_log_bytes = sealed_bytes_;
  return stats;
}

}  // namespace dbtune::store
