#include "store/observation_store.h"

#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>

#include "obs/metrics.h"
#include "util/logging.h"

namespace dbtune::store {

namespace {

constexpr size_t kWalHeaderBytes = 8;           // magic
constexpr size_t kSnapshotHeaderBytes = 8 + 8;  // magic + covered lsn

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

}  // namespace

ObservationStore::ObservationStore(std::string path, StoreOptions options)
    : path_(std::move(path)), options_(options) {}

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

Status ObservationStore::ApplyRecord(const WalFrameView& record) {
  mu_.AssertHeld();
  WalDecoder dec(record.body);
  switch (record.type) {
    case WalRecordType::kBeginSession: {
      DBTUNE_ASSIGN_OR_RETURN(const std::string id, dec.ReadString());
      DBTUNE_ASSIGN_OR_RETURN(const uint64_t dimension, dec.ReadU64());
      SessionState& state = sessions_[id];
      state.session.id = id;
      state.session.dimension = static_cast<size_t>(dimension);
      state.session.finished = false;
      state.session.observations.clear();
      state.frames.assign(record.frame);
      state.observation_offsets.clear();
      state.end_frame.clear();
      return Status::OK();
    }
    case WalRecordType::kObservation: {
      DBTUNE_ASSIGN_OR_RETURN(const std::string id, dec.ReadString());
      DBTUNE_ASSIGN_OR_RETURN(const uint64_t iteration, dec.ReadU64());
      DBTUNE_ASSIGN_OR_RETURN(std::vector<double> config, dec.ReadDoubles());
      Observation obs;
      obs.config = Configuration(std::move(config));
      DBTUNE_ASSIGN_OR_RETURN(obs.score, dec.ReadDouble());
      DBTUNE_ASSIGN_OR_RETURN(obs.objective, dec.ReadDouble());
      DBTUNE_ASSIGN_OR_RETURN(const uint8_t failed, dec.ReadU8());
      obs.failed = failed != 0;
      DBTUNE_ASSIGN_OR_RETURN(obs.internal_metrics, dec.ReadDoubles());
      auto it = sessions_.find(id);
      if (it == sessions_.end()) {
        return Status::Internal("observation for unknown session " + id);
      }
      SessionState& state = it->second;
      if (iteration != state.session.observations.size() + 1) {
        return Status::Internal("out-of-order observation for session " + id);
      }
      state.session.observations.push_back(std::move(obs));
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
      return Status::OK();
    }
    case WalRecordType::kTask: {
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
      tasks_.push_back(std::move(task));
      task_frames_.append(record.frame);
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
  }
  return Status::Internal("unknown wal record type");
}

Status ObservationStore::AppendAndApply(WalRecordType type,
                                        std::string body) {
  mu_.AssertHeld();
  const WalRecord record{next_lsn_, type, std::move(body)};
  // The record's only encode: the log gets these bytes now, and the
  // state retains them for every later snapshot.
  const std::string frame = EncodeWalFrame(record);
  DBTUNE_RETURN_IF_ERROR(wal_.Append(frame));
  ++next_lsn_;
  stats_.last_lsn = record.lsn;
  return ApplyRecord(WalFrameView{record.lsn, type, record.body, frame});
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
  if (it == sessions_.end()) {
    return Status::NotFound("unknown session " + id);
  }
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
  if (it == sessions_.end()) {
    return Status::NotFound("unknown session " + id);
  }
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
  if (it == sessions_.end()) {
    return Status::NotFound("unknown session " + id);
  }
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

Result<uint64_t> ObservationStore::WriteSnapshotLocked() {
  mu_.AssertHeld();
  char header[kSnapshotHeaderBytes];
  std::memcpy(header, kSnapshotMagic, sizeof(kSnapshotMagic));
  const uint64_t covered_lsn = next_lsn_ - 1;
  for (int i = 0; i < 8; ++i) {
    header[sizeof(kSnapshotMagic) + i] =
        static_cast<char>((covered_lsn >> (8 * i)) & 0xFF);
  }

  const std::string snapshot_path = path_ + ".snapshot";
  const std::string tmp = snapshot_path + ".tmp";
  std::FILE* file = std::fopen(tmp.c_str(), "wb");
  if (file == nullptr) {
    return Status::Internal("cannot open snapshot file " + tmp);
  }
  // One sequential write of the retained frames, in the order recovery
  // applies them: every session (id order), then every task.
  uint64_t bytes = 0;
  bool written = true;
  auto put = [&](std::string_view chunk) {
    written = written &&
              std::fwrite(chunk.data(), 1, chunk.size(), file) == chunk.size();
    bytes += chunk.size();
  };
  put(std::string_view(header, sizeof(header)));
  for (const auto& entry : sessions_) {
    put(entry.second.frames);
    put(entry.second.end_frame);
  }
  put(task_frames_);
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
  DBTUNE_ASSIGN_OR_RETURN(const uint64_t bytes, WriteSnapshotLocked());
  DBTUNE_RETURN_IF_ERROR(wal_.TruncateToHeader());
  appends_since_checkpoint_ = 0;
  ++stats_.checkpoints;
  if (obs::MetricsEnabled()) {
    static obs::Counter& bytes_counter =
        obs::MetricsRegistry::Get().counter("store.checkpoint.bytes");
    bytes_counter.Increment(bytes);
  }
  return Status::OK();
}

Status ObservationStore::Checkpoint() {
  MutexLock lock(&mu_);
  return CheckpointLocked();
}

// The returned pointer follows the caller's single-writer phase
// discipline (a session owns its id); the map node it points into is
// stable across unrelated mutations.
const StoredSession* ObservationStore::FindSession(
    const std::string& id) const {
  MutexLock lock(&mu_);
  auto it = sessions_.find(id);
  return it == sessions_.end() ? nullptr : &it->second.session;
}

void ObservationStore::ExportTasks(ObservationRepository* repository) const {
  DBTUNE_CHECK(repository != nullptr);
  MutexLock lock(&mu_);
  for (const SourceTask& task : tasks_) repository->AddTask(task);
}

std::vector<StoredSessionInfo> ObservationStore::ListSessions() const {
  MutexLock lock(&mu_);
  std::vector<StoredSessionInfo> infos;
  infos.reserve(sessions_.size());
  for (const auto& [id, state] : sessions_) {
    const StoredSession& session = state.session;
    StoredSessionInfo info;
    info.id = id;
    info.dimension = session.dimension;
    info.observations = session.observations.size();
    info.finished = session.finished;
    infos.push_back(std::move(info));
  }
  return infos;
}

size_t ObservationStore::num_tasks() const {
  MutexLock lock(&mu_);
  return tasks_.size();
}

StoreStats ObservationStore::stats() const {
  MutexLock lock(&mu_);
  return stats_;
}

}  // namespace dbtune::store
