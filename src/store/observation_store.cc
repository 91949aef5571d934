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

constexpr size_t kWalHeaderBytes = 8;       // magic
constexpr size_t kDataLogHeaderBytes = 8;   // magic
constexpr size_t kManifestHeaderBytes = 8;  // magic
/// Where the type byte sits in a frame: [u32 len][u32 crc][u64 lsn][u8].
constexpr size_t kFrameTypeOffset = 16;
/// The manifest log is rewritten as one full edit when an edit would take
/// it past this multiple of its length right after the last rewrite. The
/// rewrites then cost about twice the edits, and Open reads at most 1.5x
/// the index: on fleet-churn's traffic, half the fixed-width index the
/// snapshot held before the manifest log, for 0.41 MB of manifest writes
/// (StoreTest.CheckpointBytesAreLinearInLoggedBytes).
constexpr double kManifestGrowthFactor = 1.5;

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

/// What replaying a record needs of its body: the session id or task name
/// every body starts with, and the one count it carries (a dimension, an
/// iteration, a kept count, or a task's rows). `id` views the body.
struct RecordHead {
  std::string_view id;
  uint64_t count = 0;
  /// A task's dimension: the length of its first row.
  uint64_t dimension = 0;
};

/// Reads the head of a session or task record and steps over the rest of
/// its fields, so a body too short for them fails as a decode would;
/// nothing is allocated. Bytes past the last field are not checked.
Result<RecordHead> ReadRecordHead(WalRecordType type, std::string_view body) {
  WalDecoder dec(body);
  RecordHead head;
  switch (type) {
    case WalRecordType::kBeginSession:
    case WalRecordType::kTruncateSession: {
      DBTUNE_ASSIGN_OR_RETURN(head.id, dec.ReadStringView());
      DBTUNE_ASSIGN_OR_RETURN(head.count, dec.ReadU64());
      return head;
    }
    case WalRecordType::kEndSession: {
      DBTUNE_ASSIGN_OR_RETURN(head.id, dec.ReadStringView());
      return head;
    }
    case WalRecordType::kObservation: {
      // Id, iteration, config, score, objective, failed flag, metrics.
      DBTUNE_ASSIGN_OR_RETURN(head.id, dec.ReadStringView());
      DBTUNE_ASSIGN_OR_RETURN(head.count, dec.ReadU64());
      DBTUNE_RETURN_IF_ERROR(dec.SkipDoubles().status());
      DBTUNE_RETURN_IF_ERROR(dec.ReadDouble().status());
      DBTUNE_RETURN_IF_ERROR(dec.ReadDouble().status());
      DBTUNE_RETURN_IF_ERROR(dec.ReadU8().status());
      DBTUNE_RETURN_IF_ERROR(dec.SkipDoubles().status());
      return head;
    }
    case WalRecordType::kTask: {
      // Name, rows, each row, scores, metric signature.
      DBTUNE_ASSIGN_OR_RETURN(head.id, dec.ReadStringView());
      DBTUNE_ASSIGN_OR_RETURN(head.count, dec.ReadU64());
      for (uint64_t r = 0; r < head.count; ++r) {
        DBTUNE_ASSIGN_OR_RETURN(const uint64_t width, dec.SkipDoubles());
        if (r == 0) head.dimension = width;
      }
      DBTUNE_RETURN_IF_ERROR(dec.SkipDoubles().status());
      DBTUNE_RETURN_IF_ERROR(dec.SkipDoubles().status());
      return head;
    }
    case WalRecordType::kManifestEdit:
    case WalRecordType::kExtentIndex:
      return Status::InvalidArgument("checkpoint record inside the log");
  }
  return Status::InvalidArgument("unknown wal record type");
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
  return Status::Internal("damaged data-log entry for '" + id + "' in " +
                          path);
}

/// Appends `length` bytes of the data log at `path` from `offset`, read
/// through `log`, to `out`; Internal (naming `id`) when they are not there.
Status ReadData(std::ifstream* log, const std::string& path, uint64_t offset,
                uint64_t length, const std::string& id, std::string* out) {
  const size_t start = out->size();
  out->resize(start + static_cast<size_t>(length));
  log->seekg(static_cast<std::streamoff>(offset));
  if (!*log || !log->read(out->data() + start,
                          static_cast<std::streamsize>(length))) {
    log->clear();
    return DamagedEntry(path, id);
  }
  return Status::OK();
}

/// Orders id-sorted entries against a bare id (std::lower_bound).
constexpr auto kIdBefore = [](const auto& entry, std::string_view id) {
  return entry.id < id;
};

/// Decodes a session's stream as the data log holds it: the begin frame,
/// one frame per observation and, for a sealed session only, the end
/// frame, each CRC-checked. `offsets`, when given, gets the stream offset
/// of each observation's frame.
Result<StoredSession> DecodeSessionStream(std::string_view stream,
                                          const std::string& path,
                                          const std::string& id, bool sealed,
                                          std::vector<uint64_t>* offsets) {
  StoredSession session;
  bool begun = false;
  bool ended = false;
  // Any visitor error means a damaged entry; its message is not kept.
  const Result<WalScanExtent> scan = ForEachWalFrame(
      stream, 0, [&](const WalFrameView& frame) -> Status {
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
            if (offsets != nullptr) {
              offsets->push_back(
                  static_cast<uint64_t>(frame.frame.data() - stream.data()));
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
  if (!scan.ok() || scan->torn_tail || !begun || ended != sealed ||
      session.id != id) {
    return DamagedEntry(path, id);
  }
  session.finished = sealed;
  return session;
}

/// Decodes a task as the data log (or the task's retained frame) holds
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
      manifest_path_(path_ + ".manifest"),
      options_(options) {}

std::string ObservationStore::DataLogPath(uint64_t generation) const {
  return generation == 0 ? path_ + ".sealed"
                         : path_ + ".data." + std::to_string(generation);
}

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

Status ObservationStore::Destroy(const std::string& path) {
  if (path.empty()) return Status::InvalidArgument("empty store path");
  const std::filesystem::path wal(path);
  std::vector<std::filesystem::path> files;
  for (const char* suffix : {"", ".manifest", ".manifest.tmp", ".snapshot",
                             ".snapshot.tmp", ".sealed"}) {
    files.emplace_back(path + suffix);
  }
  // Data logs of every generation: `<name>.data.<digits>`.
  const std::string prefix = wal.filename().string() + ".data.";
  const std::filesystem::path dir =
      wal.has_parent_path() ? wal.parent_path() : std::filesystem::path(".");
  std::error_code ec;
  for (std::filesystem::directory_iterator it(dir, ec), end;
       !ec && it != end; it.increment(ec)) {
    const std::string name = it->path().filename().string();
    if (name.size() > prefix.size() && name.starts_with(prefix) &&
        std::all_of(name.begin() + static_cast<std::ptrdiff_t>(prefix.size()),
                    name.end(), [](char c) { return c >= '0' && c <= '9'; })) {
      files.push_back(it->path());
    }
  }
  if (ec && ec != std::errc::no_such_file_or_directory) {
    return Status::Internal("cannot list " + dir.string());
  }
  for (const std::filesystem::path& file : files) {
    std::filesystem::remove(file, ec);
    if (ec) return Status::Internal("cannot remove " + file.string());
  }
  return Status::OK();
}

Status ObservationStore::Recover() {
  mu_.AssertHeld();
  // --- The checkpoint: the manifest log. A snapshot without one is a
  // store of an earlier layout, refused before any file changes.
  const Status manifest = LoadManifestLog();
  if (manifest.ok()) {
    stats_.loaded_snapshot = true;
  } else if (manifest.code() != StatusCode::kNotFound) {
    return manifest;
  } else if (const std::string snapshot = path_ + ".snapshot";
             std::filesystem::exists(snapshot)) {
    return Status::FailedPrecondition(
        snapshot + " holds a store in a snapshot layout, which this version "
        "does not read; open it once with a build of commit 9d00237, which "
        "converts it at its first checkpoint");
  }
  const uint64_t covered_lsn = manifest_.covered_lsn;
  next_lsn_ = covered_lsn + 1;
  stats_.last_lsn = covered_lsn;
  // A compaction that crashed before its commit leaves the next
  // generation behind, one that crashed after it the previous one.
  std::error_code ec;
  std::filesystem::remove(DataLogPath(manifest_.generation + 1), ec);
  if (manifest_.generation > 0) {
    std::filesystem::remove(DataLogPath(manifest_.generation - 1), ec);
  }
  DBTUNE_RETURN_IF_ERROR(RecoverDataLog());
  DBTUNE_RETURN_IF_ERROR(ReopenLogsLocked());

  // --- The open sessions' index, from the manifest alone: Open reads no
  // byte of their streams.
  uint64_t open_bytes = 0;
  for (const auto& [id, extents] : manifest_.open) {
    if (FindSealed(manifest_.sealed, id) != nullptr) {
      return DamagedEntry(DataLogPath(manifest_.generation), id);
    }
    SessionState& state =
        sessions_.emplace_hint(sessions_.end(), id, SessionState{})->second;
    for (const Extent& extent : extents) {
      state.flushed_bytes += extent.length;
      state.flushed_observations += static_cast<size_t>(extent.observations);
    }
    state.observations = state.flushed_observations;
    // Extents never overlap, so together they fit in the log.
    open_bytes += state.flushed_bytes;
    if (open_bytes > manifest_.data_log_bytes) {
      return DamagedEntry(DataLogPath(manifest_.generation), id);
    }
  }

  // --- Then the WAL: replay every intact record past the checkpoint and
  // truncate a torn tail (the expected shape after a crash mid-append).
  Result<std::string> wal_bytes = ReadFileBytes(path_);
  if (wal_bytes.ok()) stats_.recovery_bytes_read += wal_bytes->size();
  if (wal_bytes.ok() && !wal_bytes.value().empty()) {
    const std::string& data = wal_bytes.value();
    if (data.size() < kWalHeaderBytes) {
      // WalWriter::Create below empties it.
      DBTUNE_LOG(kWarning) << "wal " << path_
                           << " torn inside the header; starting fresh";
      stats_.recovered_torn_tail = true;
    } else if (std::memcmp(data.data(), kWalMagic, sizeof(kWalMagic)) != 0) {
      return Status::Internal(path_ + " is not a dbtune wal");
    } else {
      DBTUNE_ASSIGN_OR_RETURN(
          const WalScanExtent scan,
          ForEachWalFrame(
              data, kWalHeaderBytes,
              [this, covered_lsn](const WalFrameView& record) -> Status {
                mu_.AssertHeld();
                // Records at or below the covered LSN survive only when a
                // crash hit between the manifest commit and the log
                // compaction; the checkpoint already holds their effects.
                if (record.lsn <= covered_lsn) return Status::OK();
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
        std::filesystem::resize_file(path_, scan.valid_bytes, ec);
        if (ec) return Status::Internal("cannot truncate wal " + path_);
      }
    }
  }

  // --- A missing, empty or header-torn WAL gets its header before
  // appends resume (a longer one passed the magic check above).
  if (wal_bytes.ok() && wal_bytes.value().size() >= kWalHeaderBytes) {
    DBTUNE_ASSIGN_OR_RETURN(wal_, WalWriter::OpenForAppend(path_));
  } else {
    DBTUNE_ASSIGN_OR_RETURN(
        wal_, WalWriter::Create(path_, {kWalMagic, sizeof(kWalMagic)}));
  }
  return Status::OK();
}

Status ObservationStore::LoadManifestLog() {
  mu_.AssertHeld();
  DBTUNE_ASSIGN_OR_RETURN(const std::string data,
                          ReadFileBytes(manifest_path_));
  stats_.recovery_bytes_read += data.size();
  if (data.size() < kManifestHeaderBytes ||
      std::memcmp(data.data(), kManifestMagic, sizeof(kManifestMagic)) != 0) {
    return Status::Internal(manifest_path_ + " is not a dbtune manifest log");
  }
  uint64_t consolidated = kManifestHeaderBytes;
  DBTUNE_ASSIGN_OR_RETURN(
      const WalScanExtent scan,
      ForEachWalFrame(data, kManifestHeaderBytes,
                      [&](const WalFrameView& frame) -> Status {
                        mu_.AssertHeld();
                        DBTUNE_RETURN_IF_ERROR(ApplyEdit(frame, &manifest_));
                        if (frame.body[0] != 0) {  // a full edit
                          consolidated = static_cast<uint64_t>(
                              frame.frame.data() + frame.frame.size() -
                              data.data());
                        }
                        return Status::OK();
                      }));
  // The log is only ever created whole, by a rename, so it holds at least
  // one complete edit.
  if (scan.frames == 0) {
    return Status::Internal("manifest log " + manifest_path_ +
                            " holds no complete edit");
  }
  if (scan.torn_tail) {
    // A crash tears at most the final edit, which never committed. A
    // complete frame that fails its CRC is damage, not a crash.
    const std::string_view rest =
        std::string_view(data).substr(scan.valid_bytes);
    const Result<uint32_t> length = WalDecoder(rest).ReadU32();
    constexpr uint64_t kFrameHeaderBytes = 8;  // u32 len + u32 crc
    if (length.ok() && rest.size() >= kFrameHeaderBytes + *length) {
      return Status::Internal("corrupt manifest log " + manifest_path_);
    }
    DBTUNE_LOG(kWarning) << "manifest log " << manifest_path_
                         << " has a torn final edit; truncating "
                         << (data.size() - scan.valid_bytes) << " byte(s)";
  }
  manifest_bytes_ = scan.valid_bytes;
  consolidated_bytes_ = consolidated;
  return Status::OK();
}

Status ObservationStore::RecoverDataLog() {
  mu_.AssertHeld();
  const uint64_t covered = manifest_.data_log_bytes;
  // Before its first frame the data log is created by the first
  // checkpoint, whatever a failed one left behind.
  if (covered == 0) return Status::OK();
  const std::string path = DataLogPath(manifest_.generation);
  std::error_code ec;
  uintmax_t size = std::filesystem::file_size(path, ec);
  if (ec) {
    if (ec != std::errc::no_such_file_or_directory) {
      return Status::Internal("cannot size data log " + path);
    }
    size = 0;
  }
  if (size < covered) {
    return Status::Internal("data log " + path + " holds " +
                            std::to_string(size) + " byte(s); the manifest "
                            "stands on " + std::to_string(covered));
  }
  if (size > covered) {
    // A crash between the data-log append and the manifest edit: the WAL
    // still holds those records, so the next checkpoint appends them
    // again. ReopenLogsLocked truncates the bytes.
    DBTUNE_LOG(kWarning) << "data log " << path << " has "
                         << (size - covered)
                         << " byte(s) past the length the manifest covers; "
                            "truncating";
  }
  return Status::OK();
}

std::string ObservationStore::EncodeEdit(const ManifestEdit& edit) {
  WalEncoder enc;
  enc.PutU8(edit.full ? 1 : 0);
  enc.PutVarint(edit.generation);
  enc.PutVarint(edit.data_log_bytes);
  enc.PutVarint(edit.restarts.size());
  for (const std::string& id : edit.restarts) enc.PutString(id);
  enc.PutVarint(edit.cuts.size());
  for (const auto& [id, cut] : edit.cuts) {
    enc.PutString(id);
    enc.PutVarint(cut.bytes);
    enc.PutVarint(cut.observations);
  }
  // Extents in runs of one session: its id once, then each extent.
  std::vector<std::pair<size_t, size_t>> runs;  // [first, last) per id
  for (size_t i = 0; i < edit.extents.size(); ++i) {
    if (runs.empty() || edit.extents[i].first != edit.extents[i - 1].first) {
      runs.emplace_back(i, i);
    }
    ++runs.back().second;
  }
  enc.PutVarint(runs.size());
  for (const auto& [first, last] : runs) {
    enc.PutString(edit.extents[first].first);
    enc.PutVarint(last - first);
    for (size_t i = first; i < last; ++i) {
      const Extent& extent = edit.extents[i].second;
      enc.PutVarint(extent.offset);
      enc.PutVarint(extent.length);
      enc.PutVarint(extent.observations);
    }
  }
  for (const std::vector<SealedEntry>* entries : {&edit.seals, &edit.tasks}) {
    enc.PutVarint(entries->size());
    for (const SealedEntry& entry : *entries) {
      enc.PutString(entry.id);
      for (const uint64_t field : {entry.lsn, entry.dimension,
                                   entry.observations, entry.offset,
                                   entry.length, entry.bytes}) {
        enc.PutVarint(field);
      }
    }
  }
  return EncodeWalFrame(
      WalRecord{edit.covered_lsn, WalRecordType::kManifestEdit, enc.bytes()});
}

ObservationStore::ManifestEdit ObservationStore::FullEdit(
    const Manifest& manifest) {
  ManifestEdit edit;
  edit.full = true;
  edit.covered_lsn = manifest.covered_lsn;
  edit.generation = manifest.generation;
  edit.data_log_bytes = manifest.data_log_bytes;
  for (const auto& [id, extents] : manifest.open) {
    for (const Extent& extent : extents) edit.extents.emplace_back(id, extent);
  }
  edit.seals = manifest.sealed;
  edit.tasks = manifest.tasks;
  return edit;
}

Status ObservationStore::CutExtents(const Cut& cut,
                                    std::vector<Extent>* extents) {
  const Status bad = Status::Internal("manifest cut past the session's end");
  uint64_t bytes = 0;
  uint64_t observations = 0;
  for (size_t i = 0; i < extents->size(); ++i) {
    Extent& extent = (*extents)[i];
    if (cut.bytes >= bytes + extent.length) {
      bytes += extent.length;
      observations += extent.observations;
      continue;
    }
    // The cut falls in this extent: shorten it, drop every later one.
    if (cut.observations < observations ||
        cut.observations - observations > extent.observations) {
      return bad;
    }
    extent.length = cut.bytes - bytes;
    extent.observations = cut.observations - observations;
    if (extent.length == 0 && extent.observations != 0) return bad;
    extents->resize(extent.length == 0 ? i : i + 1);
    return Status::OK();
  }
  return cut.bytes == bytes && cut.observations == observations
             ? Status::OK()
             : bad;
}

Status ObservationStore::ApplyEdit(const WalFrameView& frame,
                                   Manifest* manifest) {
  // Decoding and applying are one pass: Open replays every edit of the
  // log, so this loop is most of what it costs. Decode errors
  // (InvalidArgument) and edits that do not fit the index both become
  // Internal: the manifest log is damaged.
  const Status applied = [&]() -> Status {
    const Status bad = Status::InvalidArgument("edit does not fit the index");
    if (frame.type != WalRecordType::kManifestEdit) return bad;
    WalDecoder dec(frame.body);
    DBTUNE_ASSIGN_OR_RETURN(const uint8_t full, dec.ReadU8());
    DBTUNE_ASSIGN_OR_RETURN(const uint64_t generation, dec.ReadVarint());
    DBTUNE_ASSIGN_OR_RETURN(const uint64_t covered, dec.ReadVarint());
    if (full != 0) {
      *manifest = Manifest{};
    } else if (generation != manifest->generation ||
               covered < manifest->data_log_bytes ||
               frame.lsn < manifest->covered_lsn) {
      return bad;
    }
    manifest->covered_lsn = frame.lsn;
    manifest->generation = generation;
    manifest->data_log_bytes = covered;
    auto fits = [covered](uint64_t offset, uint64_t length) {
      return length > 0 && offset >= kDataLogHeaderBytes &&
             length <= covered && offset <= covered - length;
    };
    // Restarts, then cuts, then extents, then seals and tasks.
    DBTUNE_ASSIGN_OR_RETURN(uint64_t count, dec.ReadVarint());
    for (uint64_t i = 0; i < count; ++i) {
      DBTUNE_ASSIGN_OR_RETURN(const std::string id, dec.ReadString());
      manifest->open.erase(id);
      std::vector<SealedEntry>& sealed = manifest->sealed;
      const auto at = std::lower_bound(sealed.begin(), sealed.end(), id,
                                       kIdBefore);
      if (at != sealed.end() && at->id == id) sealed.erase(at);
    }
    DBTUNE_ASSIGN_OR_RETURN(count, dec.ReadVarint());
    for (uint64_t i = 0; i < count; ++i) {
      DBTUNE_ASSIGN_OR_RETURN(const std::string id, dec.ReadString());
      Cut cut;
      DBTUNE_ASSIGN_OR_RETURN(cut.bytes, dec.ReadVarint());
      DBTUNE_ASSIGN_OR_RETURN(cut.observations, dec.ReadVarint());
      auto it = manifest->open.find(id);
      if (it == manifest->open.end()) return bad;
      DBTUNE_RETURN_IF_ERROR(CutExtents(cut, &it->second));
    }
    // Extents come in runs of one session. (An id both open and sealed is
    // caught where Open indexes the open sessions.)
    DBTUNE_ASSIGN_OR_RETURN(count, dec.ReadVarint());
    for (uint64_t i = 0; i < count; ++i) {
      DBTUNE_ASSIGN_OR_RETURN(std::string id, dec.ReadString());
      DBTUNE_ASSIGN_OR_RETURN(uint64_t extents, dec.ReadVarint());
      std::vector<Extent>& session = manifest->open[std::move(id)];
      for (; extents > 0; --extents) {
        Extent extent;
        DBTUNE_ASSIGN_OR_RETURN(extent.offset, dec.ReadVarint());
        DBTUNE_ASSIGN_OR_RETURN(extent.length, dec.ReadVarint());
        DBTUNE_ASSIGN_OR_RETURN(extent.observations, dec.ReadVarint());
        if (!fits(extent.offset, extent.length)) return bad;
        session.push_back(extent);
      }
    }
    // Every writer lists seals in id order, so each merges in where the
    // previous one landed (an id out of order is searched for from the
    // start). A full edit appends them one by one.
    std::vector<SealedEntry>& sealed = manifest->sealed;
    auto at = sealed.begin();
    for (const bool seals : {true, false}) {
      DBTUNE_ASSIGN_OR_RETURN(count, dec.ReadVarint());
      for (uint64_t i = 0; i < count; ++i) {
        SealedEntry entry;
        DBTUNE_ASSIGN_OR_RETURN(entry.id, dec.ReadString());
        for (uint64_t* field : {&entry.lsn, &entry.dimension,
                                &entry.observations, &entry.offset,
                                &entry.length, &entry.bytes}) {
          DBTUNE_ASSIGN_OR_RETURN(*field, dec.ReadVarint());
        }
        if (!fits(entry.offset, entry.length) || entry.bytes < entry.length) {
          return bad;
        }
        if (seals) {
          manifest->open.erase(entry.id);
          if (at != sealed.begin() && std::prev(at)->id >= entry.id) {
            at = sealed.begin();
          }
          at = std::lower_bound(at, sealed.end(), entry.id, kIdBefore);
          if (at != sealed.end() && at->id == entry.id) {
            *at = std::move(entry);
          } else {
            at = sealed.insert(at, std::move(entry));
          }
          ++at;
        } else {
          manifest->tasks.push_back(std::move(entry));
        }
      }
    }
    return dec.AtEnd() ? Status::OK() : bad;
  }();
  if (!applied.ok()) {
    return Status::Internal("corrupt manifest edit: " + applied.message());
  }
  return Status::OK();
}

Status ObservationStore::ApplyRecord(const WalFrameView& record) {
  mu_.AssertHeld();
  const Result<RecordHead> read = ReadRecordHead(record.type, record.body);
  if (!read.ok()) {
    return Status::Internal("malformed wal record at lsn " +
                            std::to_string(record.lsn) + ": " +
                            read.status().message());
  }
  const RecordHead& head = *read;
  if (record.type == WalRecordType::kBeginSession) {
    BeginLocked(head.id, head.count, record.lsn, record.frame);
    return Status::OK();
  }
  if (record.type == WalRecordType::kTask) {
    TaskState task;
    task.entry.id = head.id;
    task.entry.lsn = record.lsn;
    task.entry.dimension = head.dimension;
    task.entry.observations = head.count;
    task.frame.assign(record.frame);
    tasks_.push_back(std::move(task));
    return Status::OK();
  }
  const auto it = sessions_.find(head.id);
  if (it == sessions_.end()) {
    return Status::Internal("record for unknown session " +
                            std::string(head.id));
  }
  SessionState& state = it->second;
  switch (record.type) {
    case WalRecordType::kObservation:
      if (head.count != state.observations + 1) {
        return Status::Internal("out-of-order observation for session " +
                                it->first);
      }
      state.frames.append(record.frame);
      ++state.observations;
      state.last_lsn = record.lsn;
      return Status::OK();
    case WalRecordType::kEndSession:
      state.end_frame.assign(record.frame);
      state.seal_lsn = record.lsn;
      return Status::OK();
    default: {  // kTruncateSession
      // Logs written before sealed sessions rejected truncation may still
      // truncate one here; its end frame stays.
      if (head.count >= state.observations) return Status::OK();
      const size_t keep = static_cast<size_t>(head.count);
      DBTUNE_ASSIGN_OR_RETURN(const uint64_t cut,
                              ObservationOffsetLocked(it->first, state, keep));
      TruncateState(&state, keep, cut, record.lsn);
      return Status::OK();
    }
  }
}

Result<std::string> ObservationStore::AppendLocked(WalRecordType type,
                                                   std::string body) {
  mu_.AssertHeld();
  // The record's only encode: the log gets these bytes now, and the
  // index retains them for the next checkpoint.
  std::string frame = EncodeWalFrame(WalRecord{next_lsn_, type, std::move(body)});
  DBTUNE_RETURN_IF_ERROR(wal_.Append(frame));
  stats_.last_lsn = next_lsn_++;
  return frame;
}

void ObservationStore::BeginLocked(std::string_view id, uint64_t dimension,
                                   uint64_t lsn, std::string_view frame) {
  mu_.AssertHeld();
  auto it = sessions_.find(id);
  if (it == sessions_.end()) {
    it = sessions_.emplace(std::string(id), SessionState{}).first;
  }
  SessionState& state = it->second;
  state = SessionState{};
  state.dimension = static_cast<size_t>(dimension);
  state.frames.assign(frame);
  state.last_lsn = lsn;
  // A restarted id's old history stays indexed until the next edit drops
  // it; its bytes become dead.
  state.restarted = manifest_.open.count(id) > 0 ||
                    FindSealed(manifest_.sealed, id) != nullptr;
}

void ObservationStore::TruncateState(SessionState* state, size_t keep,
                                     uint64_t cut, uint64_t lsn) {
  if (cut >= state->flushed_bytes) {
    state->frames.resize(cut - state->flushed_bytes);
  } else {
    // The cut reaches into the data log: the next edit records it.
    state->frames.clear();
    state->flushed_bytes = cut;
    state->flushed_observations = keep;
    state->cut = Cut{cut, keep};
  }
  state->observations = keep;
  state->last_lsn = lsn;
}

const ObservationStore::SealedEntry* ObservationStore::FindSealed(
    const std::vector<SealedEntry>& sealed, std::string_view id) {
  const auto at = std::lower_bound(sealed.begin(), sealed.end(), id, kIdBefore);
  return at != sealed.end() && at->id == id ? &*at : nullptr;
}

Result<ObservationStore::SessionState*> ObservationStore::OpenSessionLocked(
    const std::string& id) {
  mu_.AssertHeld();
  const auto it = sessions_.find(id);
  if (it == sessions_.end() && FindSealed(manifest_.sealed, id) == nullptr) {
    return Status::NotFound("unknown session " + id);
  }
  if (it == sessions_.end() || it->second.finished()) {
    return Status::FailedPrecondition("session " + id + " is finished");
  }
  return &it->second;
}

Result<size_t> ObservationStore::DimensionLocked(
    const std::string& id, const SessionState& state) const {
  mu_.AssertHeld();
  if (state.dimension.has_value()) return *state.dimension;
  // Only a session Open found in the manifest lacks it. Its begin frame
  // opens its first extent: read that frame alone, its length first.
  const std::string path = DataLogPath(manifest_.generation);
  const auto it = manifest_.open.find(id);
  if (state.restarted || it == manifest_.open.end() || it->second.empty()) {
    return DamagedEntry(path, id);
  }
  const Extent& first = it->second.front();
  constexpr uint64_t kLengthBytes = 4;
  std::ifstream log(path, std::ios::binary);
  std::string frame;
  DBTUNE_RETURN_IF_ERROR(ReadData(&log, path, first.offset,
                                  std::min(first.length, kLengthBytes), id,
                                  &frame));
  const Result<uint32_t> payload = WalDecoder(frame).ReadU32();
  // The rest of the frame: its CRC, then the payload.
  const uint64_t rest = 4 + (payload.ok() ? uint64_t{*payload} : 0);
  if (!payload.ok() || first.length - kLengthBytes < rest) {
    return DamagedEntry(path, id);
  }
  DBTUNE_RETURN_IF_ERROR(
      ReadData(&log, path, first.offset + kLengthBytes, rest, id, &frame));
  DBTUNE_ASSIGN_OR_RETURN(
      const StoredSession begun,
      DecodeSessionStream(frame, path, id, /*sealed=*/false, nullptr));
  state.dimension = begun.dimension;
  return begun.dimension;
}

Result<ObservationStore::StreamSource> ObservationStore::StreamSourceLocked(
    const std::string& id, const SessionState& state) const {
  mu_.AssertHeld();
  StreamSource source;
  source.path = DataLogPath(manifest_.generation);
  if (state.flushed_bytes > 0) {
    if (const auto it = manifest_.open.find(id);
        !state.restarted && it != manifest_.open.end()) {
      source.extents = it->second;
    }
    // A truncation since the last checkpoint keeps a prefix of them.
    if (!CutExtents(Cut{state.flushed_bytes, state.flushed_observations},
                    &source.extents)
             .ok()) {
      return DamagedEntry(source.path, id);
    }
    source.log.open(source.path, std::ios::binary);
  }
  source.memory = state.frames + state.end_frame;
  source.observations = state.observations;
  source.sealed = state.finished();
  return source;
}

Result<StoredSession> ObservationStore::ReadStream(
    const std::string& id, StreamSource* source,
    std::vector<uint64_t>* offsets) {
  std::string stream;
  for (const Extent& extent : source->extents) {
    DBTUNE_RETURN_IF_ERROR(ReadData(&source->log, source->path, extent.offset,
                                    extent.length, id, &stream));
  }
  stream += source->memory;
  DBTUNE_ASSIGN_OR_RETURN(
      StoredSession session,
      DecodeSessionStream(stream, source->path, id, source->sealed, offsets));
  if (session.observations.size() != source->observations) {
    return DamagedEntry(source->path, id);
  }
  return session;
}

Result<uint64_t> ObservationStore::ObservationOffsetLocked(
    const std::string& id, const SessionState& state, size_t index) const {
  mu_.AssertHeld();
  DBTUNE_ASSIGN_OR_RETURN(StreamSource source, StreamSourceLocked(id, state));
  std::vector<uint64_t> offsets;
  DBTUNE_RETURN_IF_ERROR(ReadStream(id, &source, &offsets).status());
  return offsets[index];
}

Status ObservationStore::BeginSession(const std::string& id,
                                      size_t dimension) {
  if (id.empty()) return Status::InvalidArgument("empty session id");
  MutexLock lock(&mu_);
  if (auto it = sessions_.find(id);
      it != sessions_.end() && !it->second.finished()) {
    DBTUNE_ASSIGN_OR_RETURN(const size_t stored,
                            DimensionLocked(id, it->second));
    if (stored != dimension) {
      return Status::FailedPrecondition(
          "session " + id + " exists with a different dimension");
    }
    return Status::OK();  // resuming: the caller replays the history
  }
  DBTUNE_ASSIGN_OR_RETURN(
      const std::string frame,
      AppendLocked(WalRecordType::kBeginSession,
                   EncodeBeginSession(id, dimension)));
  BeginLocked(id, dimension, stats_.last_lsn, frame);
  return Status::OK();
}

Status ObservationStore::AppendObservation(const std::string& id,
                                           size_t iteration,
                                           const Observation& obs) {
  static obs::Histogram& latency_hist =
      obs::MetricsRegistry::Get().histogram("store.append");
  obs::ScopedLatency latency(&latency_hist);
  MutexLock lock(&mu_);
  DBTUNE_ASSIGN_OR_RETURN(SessionState* const state, OpenSessionLocked(id));
  DBTUNE_ASSIGN_OR_RETURN(const size_t dimension, DimensionLocked(id, *state));
  if (obs.config.size() != dimension) {
    return Status::InvalidArgument("observation arity mismatch for " + id);
  }
  if (iteration != state->observations + 1) {
    return Status::InvalidArgument(
        "observation iteration out of order for " + id);
  }
  DBTUNE_ASSIGN_OR_RETURN(
      const std::string frame,
      AppendLocked(WalRecordType::kObservation,
                   EncodeObservation(id, iteration, obs)));
  state->frames += frame;
  ++state->observations;
  state->last_lsn = stats_.last_lsn;
  ++appends_since_checkpoint_;
  if (options_.snapshot_every > 0 &&
      appends_since_checkpoint_ >= options_.snapshot_every) {
    // The record is applied and durable, so the append succeeded whatever
    // the checkpoint does; a failed one is retried at the next append.
    if (const Status checkpointed = CheckpointLocked(); !checkpointed.ok()) {
      DBTUNE_LOG(kWarning) << "automatic checkpoint of " << path_
                           << " failed; retrying at the next append: "
                           << checkpointed.ToString();
    }
  }
  return Status::OK();
}

Status ObservationStore::TruncateSession(const std::string& id, size_t keep) {
  MutexLock lock(&mu_);
  // A sealed session's history (and its retained frames) never change;
  // BeginSession restarts it instead.
  DBTUNE_ASSIGN_OR_RETURN(SessionState* const state, OpenSessionLocked(id));
  if (keep >= state->observations) return Status::OK();
  // Where the cut falls is read before the record is logged, so a damaged
  // data log fails the call instead of leaving a logged record unapplied.
  DBTUNE_ASSIGN_OR_RETURN(const uint64_t cut,
                          ObservationOffsetLocked(id, *state, keep));
  DBTUNE_RETURN_IF_ERROR(AppendLocked(WalRecordType::kTruncateSession,
                                      EncodeTruncateSession(id, keep))
                             .status());
  TruncateState(state, keep, cut, stats_.last_lsn);
  return Status::OK();
}

Status ObservationStore::FinishSession(const std::string& id,
                                       const ConfigurationSpace& space,
                                       const std::string& task_name) {
  // The history is read and the task built outside the mutex, as
  // FindSession reads. The task is logged only if no record changed the
  // session meanwhile; otherwise the read starts over.
  for (;;) {
    StreamSource source;
    uint64_t read_lsn = 0;
    {
      MutexLock lock(&mu_);
      DBTUNE_ASSIGN_OR_RETURN(SessionState* const state, OpenSessionLocked(id));
      DBTUNE_ASSIGN_OR_RETURN(source, StreamSourceLocked(id, *state));
      read_lsn = state->last_lsn;
    }
    DBTUNE_ASSIGN_OR_RETURN(const StoredSession session,
                            ReadStream(id, &source, nullptr));
    if (space.dimension() != session.dimension) {
      return Status::InvalidArgument("space dimension mismatch for " + id);
    }
    const SourceTask task = ObservationRepository::FromHistory(
        task_name, space, session.observations);
    MutexLock lock(&mu_);
    DBTUNE_ASSIGN_OR_RETURN(SessionState* const state, OpenSessionLocked(id));
    if (state->last_lsn != read_lsn) continue;
    DBTUNE_RETURN_IF_ERROR(PersistTaskLocked(task));
    DBTUNE_ASSIGN_OR_RETURN(
        state->end_frame,
        AppendLocked(WalRecordType::kEndSession, EncodeEndSession(id)));
    state->seal_lsn = stats_.last_lsn;
    return Status::OK();
  }
}

Status ObservationStore::PersistTask(const SourceTask& task) {
  MutexLock lock(&mu_);
  return PersistTaskLocked(task);
}

Status ObservationStore::PersistTaskLocked(const SourceTask& task) {
  mu_.AssertHeld();
  DBTUNE_ASSIGN_OR_RETURN(std::string frame,
                          AppendLocked(WalRecordType::kTask, EncodeTask(task)));
  const uint64_t dimension = task.unit_x.empty() ? 0 : task.unit_x[0].size();
  tasks_.push_back({{task.name, stats_.last_lsn, dimension, task.unit_x.size()},
                    std::move(frame)});
  return Status::OK();
}

Status ObservationStore::ReopenLogsLocked() {
  mu_.AssertHeld();
  // Truncates `path` to `length` unless it has that length already.
  auto reopen = [](const std::string& path, uint64_t length,
                   WalWriter* writer) -> Status {
    std::error_code ec;
    if (std::filesystem::file_size(path, ec) != length || ec) {
      std::filesystem::resize_file(path, length, ec);
      if (ec) return Status::Internal("cannot truncate " + path);
    }
    DBTUNE_ASSIGN_OR_RETURN(*writer, WalWriter::OpenForAppend(path));
    return Status::OK();
  };
  if (manifest_.data_log_bytes > 0 && !data_log_.open()) {
    DBTUNE_RETURN_IF_ERROR(reopen(DataLogPath(manifest_.generation),
                                  manifest_.data_log_bytes, &data_log_));
  }
  if (manifest_bytes_ > 0 && !manifest_log_.open()) {
    DBTUNE_RETURN_IF_ERROR(
        reopen(manifest_path_, manifest_bytes_, &manifest_log_));
  }
  return Status::OK();
}

Status ObservationStore::ReplaceManifestLocked(const std::string& image) {
  mu_.AssertHeld();
  const std::string tmp = manifest_path_ + ".tmp";
  {
    DBTUNE_ASSIGN_OR_RETURN(WalWriter writer, WalWriter::Create(tmp, {}));
    if (const Status appended = writer.Append(image); !appended.ok()) {
      std::remove(tmp.c_str());
      return appended;
    }
  }
  if (std::rename(tmp.c_str(), manifest_path_.c_str()) != 0) {
    std::remove(tmp.c_str());
    return Status::Internal("cannot rename manifest log to " + manifest_path_);
  }
  // Committed. The old writer holds the replaced file; if reopening fails
  // here, the next checkpoint reopens.
  manifest_bytes_ = image.size();
  manifest_log_ = WalWriter();
  if (Result<WalWriter> reopened = WalWriter::OpenForAppend(manifest_path_);
      reopened.ok()) {
    manifest_log_ = std::move(reopened).value();
  }
  return Status::OK();
}

std::string ObservationStore::EncodeExtentIndex(
    const std::string& id, uint64_t lsn, const std::vector<Extent>& extents) {
  WalEncoder enc;
  enc.PutString(id);
  enc.PutVarint(extents.size());
  for (const Extent& extent : extents) {
    enc.PutVarint(extent.offset);
    enc.PutVarint(extent.length);
  }
  return EncodeWalFrame(
      WalRecord{lsn, WalRecordType::kExtentIndex, enc.bytes()});
}

Status ObservationStore::CheckpointLocked() {
  mu_.AssertHeld();
  static obs::Histogram& latency_hist =
      obs::MetricsRegistry::Get().histogram("store.checkpoint");
  obs::ScopedLatency latency(&latency_hist);
  const Status written = WriteCheckpointLocked();
  if (!written.ok()) {
    ++stats_.checkpoint_failures;
    if (obs::MetricsEnabled()) {
      static obs::Counter& failures =
          obs::MetricsRegistry::Get().counter("store.checkpoint.failures");
      failures.Increment();
    }
    // A failed append disabled its writer and may have left bytes past
    // the committed length; the next attempt truncates both logs back.
    data_log_ = WalWriter();
    manifest_log_ = WalWriter();
  }
  return written;
}

Status ObservationStore::WriteCheckpointLocked() {
  mu_.AssertHeld();
  DBTUNE_RETURN_IF_ERROR(ReopenLogsLocked());
  ManifestEdit edit;
  edit.covered_lsn = next_lsn_ - 1;
  edit.generation = manifest_.generation;

  // --- 1. The data log: each session's unflushed frames as one extent,
  // in id order (a session sealed since the last checkpoint with its end
  // frame, then its extent index when it spans several), then the new
  // tasks. One append; nothing leaves memory until the edit commits.
  const bool create = manifest_.data_log_bytes == 0;
  std::string batch;
  if (create) batch.assign(kDataLogMagic, sizeof(kDataLogMagic));
  const uint64_t base = create ? 0 : manifest_.data_log_bytes;
  for (const auto& [id, state] : sessions_) {
    if (state.restarted) edit.restarts.push_back(id);
    if (state.cut.has_value()) edit.cuts.emplace_back(id, *state.cut);
    const Extent fresh{base + batch.size(),
                       state.frames.size() + state.end_frame.size(),
                       state.observations - state.flushed_observations};
    batch += state.frames;
    batch += state.end_frame;
    if (!state.finished()) {
      if (fresh.length > 0) edit.extents.emplace_back(id, fresh);
      continue;
    }
    // The sealed session's extents once this edit applies (the end frame
    // makes `fresh` non-empty).
    std::vector<Extent> extents;
    if (auto it = manifest_.open.find(id);
        !state.restarted && it != manifest_.open.end()) {
      extents = it->second;
    }
    if (state.cut.has_value()) {
      DBTUNE_RETURN_IF_ERROR(CutExtents(*state.cut, &extents));
    }
    extents.push_back(fresh);
    // Read before anything is written when the index lacks it.
    DBTUNE_ASSIGN_OR_RETURN(const size_t dimension, DimensionLocked(id, state));
    SealedEntry seal{id,
                     state.seal_lsn,
                     dimension,
                     state.observations,
                     fresh.offset,
                     fresh.length,
                     fresh.length};
    if (extents.size() > 1) {
      const std::string index =
          EncodeExtentIndex(id, state.seal_lsn, extents);
      seal.offset = base + batch.size();
      seal.length = index.size();
      seal.bytes = index.size();
      for (const Extent& extent : extents) seal.bytes += extent.length;
      batch += index;
    }
    edit.seals.push_back(std::move(seal));
  }
  for (const TaskState& task : tasks_) {
    SealedEntry entry = task.entry;
    entry.offset = base + batch.size();
    entry.length = task.frame.size();
    entry.bytes = entry.length;
    batch += task.frame;
    edit.tasks.push_back(std::move(entry));
  }
  uint64_t data_bytes = 0;
  edit.data_log_bytes = manifest_.data_log_bytes;
  if (batch.size() > (create ? kDataLogHeaderBytes : 0)) {
    if (create) {
      DBTUNE_ASSIGN_OR_RETURN(
          data_log_, WalWriter::Create(DataLogPath(edit.generation), {}));
    }
    DBTUNE_RETURN_IF_ERROR(data_log_.Append(batch));
    data_bytes = batch.size();
    edit.data_log_bytes = base + batch.size();
  }

  // --- 2. The manifest: the edit is the commit point. Past the growth
  // bound (or with no log yet) the log is rewritten as the committed
  // index plus this edit.
  const std::string frame = EncodeEdit(edit);
  uint64_t manifest_bytes = frame.size();
  if (manifest_bytes_ == 0 ||
      static_cast<double>(manifest_bytes_ + frame.size()) >
          kManifestGrowthFactor * static_cast<double>(consolidated_bytes_)) {
    std::string image(kManifestMagic, sizeof(kManifestMagic));
    image += EncodeEdit(FullEdit(manifest_));
    const uint64_t consolidated = image.size();
    image += frame;
    DBTUNE_RETURN_IF_ERROR(ReplaceManifestLocked(image));
    consolidated_bytes_ = consolidated;
    manifest_bytes = image.size();
  } else {
    DBTUNE_RETURN_IF_ERROR(manifest_log_.Append(frame));
    manifest_bytes_ += frame.size();
  }

  // --- Committed: the index (through the bytes Open will replay) and
  // the sessions catch up.
  DBTUNE_RETURN_IF_ERROR(ApplyEdit(
      WalFrameView{edit.covered_lsn, WalRecordType::kManifestEdit,
                   std::string_view(frame).substr(kFrameTypeOffset + 1),
                   frame},
      &manifest_));
  for (auto it = sessions_.begin(); it != sessions_.end();) {
    SessionState& state = it->second;
    if (state.finished()) {
      it = sessions_.erase(it);
      continue;
    }
    state.flushed_bytes += state.frames.size();
    state.flushed_observations = state.observations;
    state.frames = std::string();
    state.restarted = false;
    state.cut.reset();
    ++it;
  }
  tasks_.clear();
  appends_since_checkpoint_ = 0;
  ++stats_.checkpoints;

  // --- 3. The WAL: every record in it is covered now. The old writer
  // closes first, so after a failed rewrite no append reaches the file.
  wal_ = WalWriter();
  DBTUNE_ASSIGN_OR_RETURN(
      wal_, WalWriter::Create(path_, {kWalMagic, sizeof(kWalMagic)}));
  if (obs::MetricsEnabled()) {
    static obs::Counter& data_counter =
        obs::MetricsRegistry::Get().counter("store.datalog.bytes");
    static obs::Counter& manifest_counter =
        obs::MetricsRegistry::Get().counter("store.manifest.bytes");
    static obs::Counter& bytes_counter =
        obs::MetricsRegistry::Get().counter("store.checkpoint.bytes");
    data_counter.Increment(data_bytes);
    manifest_counter.Increment(manifest_bytes);
    bytes_counter.Increment(data_bytes + manifest_bytes + kWalHeaderBytes);
  }
  if (2 * DeadBytesLocked() > manifest_.data_log_bytes) {
    return CompactLocked();
  }
  return Status::OK();
}

Status ObservationStore::CompactLocked() {
  mu_.AssertHeld();
  Manifest next;
  next.covered_lsn = manifest_.covered_lsn;
  next.generation = manifest_.generation + 1;
  const std::string old_path = DataLogPath(manifest_.generation);
  const std::string new_path = DataLogPath(next.generation);
  DBTUNE_ASSIGN_OR_RETURN(WalWriter log, WalWriter::Create(new_path, {}));
  // Each live item is copied as one run: an open session's extents
  // joined, a sealed session's frames gathered through its index, a task
  // frame as it is.
  const Status copied = [&]() -> Status {
    mu_.AssertHeld();
    std::ifstream in(old_path, std::ios::binary);
    uint64_t end = 0;
    auto put = [&](std::string_view bytes) -> Result<uint64_t> {
      DBTUNE_RETURN_IF_ERROR(log.Append(bytes));
      end += bytes.size();
      return end - bytes.size();
    };
    DBTUNE_RETURN_IF_ERROR(
        put(std::string_view(kDataLogMagic, sizeof(kDataLogMagic))).status());
    for (const auto& [id, extents] : manifest_.open) {
      std::string stream;
      Extent joined;
      for (const Extent& extent : extents) {
        DBTUNE_RETURN_IF_ERROR(ReadData(&in, old_path, extent.offset,
                                        extent.length, id, &stream));
        joined.observations += extent.observations;
      }
      DBTUNE_ASSIGN_OR_RETURN(joined.offset, put(stream));
      joined.length = stream.size();
      next.open[id].push_back(joined);
    }
    auto move_entry = [&](const SealedEntry& entry) -> Result<SealedEntry> {
      mu_.AssertHeld();
      DBTUNE_ASSIGN_OR_RETURN(const std::string frames,
                              ReadSealedLocked(&in, entry));
      SealedEntry moved = entry;
      DBTUNE_ASSIGN_OR_RETURN(moved.offset, put(frames));
      moved.length = frames.size();
      moved.bytes = frames.size();
      return moved;
    };
    for (const SealedEntry& entry : manifest_.sealed) {
      DBTUNE_ASSIGN_OR_RETURN(SealedEntry moved, move_entry(entry));
      next.sealed.push_back(std::move(moved));
    }
    for (const SealedEntry& entry : manifest_.tasks) {
      DBTUNE_ASSIGN_OR_RETURN(SealedEntry moved, move_entry(entry));
      next.tasks.push_back(std::move(moved));
    }
    next.data_log_bytes = end;
    return Status::OK();
  }();
  // The new generation counts only once a manifest names it.
  std::string image(kManifestMagic, sizeof(kManifestMagic));
  if (copied.ok()) image += EncodeEdit(FullEdit(next));
  const Status committed = copied.ok() ? ReplaceManifestLocked(image) : copied;
  if (!committed.ok()) {
    log = WalWriter();
    std::remove(new_path.c_str());
    return committed;
  }
  consolidated_bytes_ = image.size();
  data_log_ = std::move(log);
  manifest_ = std::move(next);
  if (std::remove(old_path.c_str()) != 0) {
    DBTUNE_LOG(kWarning) << "cannot remove compacted data log " << old_path;
  }
  ++stats_.compactions;
  if (obs::MetricsEnabled()) {
    static obs::Counter& compaction_counter =
        obs::MetricsRegistry::Get().counter("store.compaction.bytes");
    static obs::Counter& manifest_counter =
        obs::MetricsRegistry::Get().counter("store.manifest.bytes");
    static obs::Counter& bytes_counter =
        obs::MetricsRegistry::Get().counter("store.checkpoint.bytes");
    compaction_counter.Increment(manifest_.data_log_bytes);
    manifest_counter.Increment(image.size());
    bytes_counter.Increment(manifest_.data_log_bytes + image.size());
  }
  return Status::OK();
}

Status ObservationStore::Checkpoint() {
  MutexLock lock(&mu_);
  return CheckpointLocked();
}

uint64_t ObservationStore::DeadBytesLocked() const {
  mu_.AssertHeld();
  if (manifest_.data_log_bytes == 0) return 0;
  uint64_t live = kDataLogHeaderBytes;
  for (const auto& entry : manifest_.open) {
    for (const Extent& extent : entry.second) live += extent.length;
  }
  for (const SealedEntry& entry : manifest_.sealed) live += entry.bytes;
  for (const SealedEntry& entry : manifest_.tasks) live += entry.bytes;
  return manifest_.data_log_bytes > live ? manifest_.data_log_bytes - live
                                         : 0;
}

Result<std::string> ObservationStore::ReadSealedLocked(
    std::ifstream* log, const SealedEntry& entry) const {
  mu_.AssertHeld();
  const std::string path = DataLogPath(manifest_.generation);
  std::string bytes;
  DBTUNE_RETURN_IF_ERROR(
      ReadData(log, path, entry.offset, entry.length, entry.id, &bytes));
  if (bytes.size() <= kFrameTypeOffset ||
      bytes[kFrameTypeOffset] !=
          static_cast<char>(WalRecordType::kExtentIndex)) {
    return bytes;  // the frames themselves
  }
  // An extent index: one frame naming the session and its runs.
  std::string frames;
  const Result<WalScanExtent> scan = ForEachWalFrame(
      bytes, 0, [&](const WalFrameView& view) -> Status {
        mu_.AssertHeld();
        WalDecoder dec(view.body);
        DBTUNE_ASSIGN_OR_RETURN(const std::string id, dec.ReadString());
        DBTUNE_ASSIGN_OR_RETURN(const uint64_t count, dec.ReadVarint());
        if (id != entry.id || view.frame.size() != bytes.size()) {
          return Status::Internal("");
        }
        for (uint64_t i = 0; i < count; ++i) {
          DBTUNE_ASSIGN_OR_RETURN(const uint64_t offset, dec.ReadVarint());
          DBTUNE_ASSIGN_OR_RETURN(const uint64_t length, dec.ReadVarint());
          if (length > manifest_.data_log_bytes - frames.size()) {
            return Status::Internal("");
          }
          DBTUNE_RETURN_IF_ERROR(
              ReadData(log, path, offset, length, entry.id, &frames));
        }
        return dec.AtEnd() ? Status::OK() : Status::Internal("");
      });
  if (!scan.ok() || scan->torn_tail || scan->frames != 1) {
    return DamagedEntry(path, entry.id);
  }
  return frames;
}

Result<StoredSession> ObservationStore::FindSession(
    const std::string& id) const {
  StreamSource source;
  {
    MutexLock lock(&mu_);
    const auto it = sessions_.find(id);
    if (it == sessions_.end()) return FindSealedLocked(id);
    DBTUNE_ASSIGN_OR_RETURN(source, StreamSourceLocked(id, it->second));
  }
  // Outside the mutex: appends, checkpoints and other reads go on.
  return ReadStream(id, &source, nullptr);
}

Result<StoredSession> ObservationStore::FindSealedLocked(
    const std::string& id) const {
  mu_.AssertHeld();
  const SealedEntry* entry = FindSealed(manifest_.sealed, id);
  if (entry == nullptr) return Status::NotFound("unknown session " + id);
  const std::string path = DataLogPath(manifest_.generation);
  std::ifstream log(path, std::ios::binary);
  DBTUNE_ASSIGN_OR_RETURN(const std::string frames,
                          ReadSealedLocked(&log, *entry));
  DBTUNE_ASSIGN_OR_RETURN(
      StoredSession session,
      DecodeSessionStream(frames, path, id, /*sealed=*/true, nullptr));
  if (session.dimension != entry->dimension ||
      session.observations.size() != entry->observations) {
    return DamagedEntry(path, id);
  }
  return session;
}

Status ObservationStore::ExportTasks(
    ObservationRepository* repository) const {
  DBTUNE_CHECK(repository != nullptr);
  MutexLock lock(&mu_);
  // Decode everything first, so a damaged entry leaves `repository` as
  // it was. Checkpointed tasks precede the ones still in memory in LSN
  // order.
  std::vector<SourceTask> tasks;
  tasks.reserve(manifest_.tasks.size() + tasks_.size());
  if (!manifest_.tasks.empty()) {
    const std::string path = DataLogPath(manifest_.generation);
    std::ifstream log(path, std::ios::binary);
    for (const SealedEntry& entry : manifest_.tasks) {
      DBTUNE_ASSIGN_OR_RETURN(const std::string frame,
                              ReadSealedLocked(&log, entry));
      DBTUNE_ASSIGN_OR_RETURN(SourceTask task,
                              DecodeTaskFrame(frame, path, entry.id));
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
  infos.reserve(sessions_.size() + manifest_.sealed.size());
  for (const auto& [id, state] : sessions_) {
    const Result<size_t> dimension = DimensionLocked(id, state);
    infos.push_back({id, dimension.ok() ? *dimension : 0, state.observations,
                     state.finished()});
  }
  // A sealed id restarted since the last checkpoint is in memory.
  for (const SealedEntry& entry : manifest_.sealed) {
    if (sessions_.count(entry.id) > 0) continue;
    infos.push_back({entry.id, static_cast<size_t>(entry.dimension),
                     static_cast<size_t>(entry.observations), true});
  }
  std::sort(infos.begin(), infos.end(),
            [](const StoredSessionInfo& a, const StoredSessionInfo& b) {
              return a.id < b.id;
            });
  return infos;
}

size_t ObservationStore::num_tasks() const {
  MutexLock lock(&mu_);
  return manifest_.tasks.size() + tasks_.size();
}

StoreStats ObservationStore::stats() const {
  MutexLock lock(&mu_);
  StoreStats stats = stats_;
  stats.sealed_sessions = static_cast<size_t>(
      std::count_if(manifest_.sealed.begin(), manifest_.sealed.end(),
                    [this](const SealedEntry& entry) {
                      mu_.AssertHeld();
                      return sessions_.count(entry.id) == 0;
                    }));
  for (const auto& entry : sessions_) {
    stats.observations_in_memory +=
        entry.second.observations - entry.second.flushed_observations;
  }
  stats.data_log_bytes = manifest_.data_log_bytes;
  stats.dead_bytes = DeadBytesLocked();
  return stats;
}

}  // namespace dbtune::store
