#ifndef DBTUNE_STORE_OBSERVATION_STORE_H_
#define DBTUNE_STORE_OBSERVATION_STORE_H_

#include <cstdint>
#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "dbms/environment.h"
#include "store/wal.h"
#include "transfer/repository.h"
#include "util/mutex.h"
#include "util/status.h"
#include "util/thread_annotations.h"

namespace dbtune::store {

/// Store tuning knobs.
struct StoreOptions {
  /// Observations appended between automatic checkpoints (data-log append
  /// + manifest edit + WAL compaction). 0 disables automatic checkpoints;
  /// Checkpoint() can still be called explicitly.
  size_t snapshot_every = 64;
};

/// Recovered or in-progress history of one tuning session.
struct StoredSession {
  std::string id;
  /// Dimension of the tuned subspace (arity of every observation config).
  size_t dimension = 0;
  /// True once FinishSession sealed the trajectory; a later BeginSession
  /// with the same id starts the session over.
  bool finished = false;
  std::vector<Observation> observations;
};

/// Compact per-session description (for reports; no observation data).
struct StoredSessionInfo {
  std::string id;
  size_t dimension = 0;
  size_t observations = 0;
  bool finished = false;
};

/// Recovery and lifetime counters, for reports and tests.
struct StoreStats {
  /// Highest LSN assigned so far (checkpoint + WAL).
  uint64_t last_lsn = 0;
  /// WAL records applied during Open (records the checkpoint already
  /// covered are skipped and not counted).
  size_t wal_records_replayed = 0;
  /// True when Open found and truncated a torn or CRC-corrupt WAL tail.
  bool recovered_torn_tail = false;
  /// True when recovery loaded a checkpoint (a manifest log).
  bool loaded_snapshot = false;
  /// Checkpoints taken through this handle.
  size_t checkpoints = 0;
  /// Checkpoints that failed through this handle. A failed automatic
  /// checkpoint is retried at the next append.
  size_t checkpoint_failures = 0;
  /// Sealed sessions whose history lives only in the data log.
  size_t sealed_sessions = 0;
  /// Length of the data log the manifest stands on (its header included).
  uint64_t data_log_bytes = 0;
  /// Data-log bytes nothing references any more: suffixes cut by
  /// TruncateSession and earlier incarnations of restarted ids.
  uint64_t dead_bytes = 0;
  /// Data-log compactions through this handle.
  size_t compactions = 0;
  /// Bytes Open read: the manifest log and the WAL. Open reads no
  /// data-log byte.
  uint64_t recovery_bytes_read = 0;
  /// Observations whose frames the store holds in memory: those logged
  /// since the last checkpoint. Checkpointed ones are read back from the
  /// data log when a call needs them.
  size_t observations_in_memory = 0;
};

/// Durable observation store: a write-ahead log of (configuration,
/// performance, internal-metrics) records plus log-structured checkpoints,
/// so a service restart resumes every session mid-trajectory and the
/// transfer base-task pool survives across runs.
///
/// Layout on disk (DESIGN.md §10):
/// - `<path>` is the WAL ("DBTNWAL1" magic + CRC-framed records).
/// - `<path>.data.<g>` is the data log of generation g ("DBTNSEL1" magic
///   + the framed records of every session and task). Each checkpoint
///   appends the frames logged since the previous one, so every record is
///   written twice: once to the WAL, once here. A compaction copies the
///   live extents to generation g+1. Generation 0 is `<path>.sealed`, the
///   name the data log had when it held sealed sessions only.
/// - `<path>.manifest` is the manifest log ("DBTNMAN1" magic + one edit
///   per checkpoint): the covered LSN, the data log's generation and
///   covered length, and where each session's and task's frames sit.
///   Appending an edit commits a checkpoint. When the log would outgrow
///   1.5x its last consolidated size it is rewritten as one full edit
///   (tmp+rename).
///
/// Recovery replays the manifest edits, then the WAL records with LSN
/// beyond the covered one, and reads no data-log byte; a torn or corrupt
/// WAL tail is truncated with a warning (every complete record before it
/// survives), and so are a torn final manifest edit and data-log bytes
/// past the covered length. Appends flush per record, so a crash tears at
/// most the final record.
///
/// Memory holds an index, not histories: per open session its extents,
/// its observation count and the frames logged since the last checkpoint.
/// A checkpointed history is read back from the data log, CRC-checked,
/// when a call needs it, so damage there is reported by that call.
///
/// Thread-safe; sessions within one store are independent.
class ObservationStore {
 public:
  /// Opens (creating if absent) the store at `path` and runs recovery.
  /// A `<path>.snapshot` without a `<path>.manifest` is a store in a
  /// snapshot layout, which is not read: FailedPrecondition, with no file
  /// touched (DESIGN.md §10 has the upgrade path).
  [[nodiscard]] static Result<std::unique_ptr<ObservationStore>> Open(
      const std::string& path, StoreOptions options = {});

  /// Deletes every file a store at `path` can have: the WAL, the manifest
  /// log, the data logs of any generation, and the snapshot files of
  /// earlier versions. Missing files are not an error.
  [[nodiscard]] static Status Destroy(const std::string& path);

  /// Declares a session. New id → starts empty. Existing unfinished id
  /// with the same dimension → no-op (the caller replays its history).
  /// Existing finished id → the session restarts empty. A dimension
  /// mismatch on an unfinished session is an error.
  [[nodiscard]] Status BeginSession(const std::string& id, size_t dimension);

  /// Appends one observation to the session's durable history.
  /// `iteration` is 1-based and must be exactly one past the stored
  /// history (detects double-apply and lost-record bugs at the API edge).
  /// Once the record is in the WAL the append succeeds: a failed automatic
  /// checkpoint is logged, counted, and retried at the next append.
  [[nodiscard]] Status AppendObservation(const std::string& id,
                                         size_t iteration,
                                         const Observation& obs);

  /// Durably discards all but the first `keep` observations of `id` —
  /// the recovery path for a replay divergence. A finished session is
  /// sealed: truncating it is FailedPrecondition.
  [[nodiscard]] Status TruncateSession(const std::string& id, size_t keep);

  /// Seals the session and persists its history as a transfer base task
  /// named `task_name` (built via ObservationRepository::FromHistory over
  /// `space`, which must be the session's tuned subspace). The history is
  /// read back as FindSession reads it.
  [[nodiscard]] Status FinishSession(const std::string& id,
                                     const ConfigurationSpace& space,
                                     const std::string& task_name);

  /// Persists an externally built base task. (Named distinctly from
  /// ObservationRepository::AddTask, which is void-returning.)
  [[nodiscard]] Status PersistTask(const SourceTask& task);

  /// Appends every frame logged since the last checkpoint to the data log
  /// (one extent per session, in id order, then the new tasks), commits a
  /// manifest edit that says where they sit, and compacts the WAL down to
  /// its header. The frames are the ones the WAL got, retained in memory;
  /// nothing is encoded again. When dead bytes pass half of the data log,
  /// the live extents are then copied to a new generation.
  [[nodiscard]] Status Checkpoint();

  /// The stored session, decoded from its frames in the data log and those
  /// still in memory; every frame is CRC-checked, and a damaged one is
  /// Internal. NotFound for an unknown id. Except for a session sealed
  /// before the last checkpoint, the data log is read outside the store
  /// mutex, so resumes read in parallel.
  [[nodiscard]] Result<StoredSession> FindSession(const std::string& id) const;

  /// Appends every persisted base task to `repository`, in persistence
  /// order. Checkpointed tasks are read back from the data log; a damaged
  /// entry is Internal and leaves `repository` unchanged.
  [[nodiscard]] Status ExportTasks(ObservationRepository* repository) const;

  /// Id-ordered summaries of every stored session, from the index. The
  /// first call that needs the dimension of a session Open found open
  /// reads its begin frame; one that cannot be read reports dimension 0.
  std::vector<StoredSessionInfo> ListSessions() const;

  size_t num_tasks() const;
  StoreStats stats() const;
  const std::string& path() const { return path_; }

 private:
  ObservationStore(std::string path, StoreOptions options);

  /// One run of frames in the data log.
  struct Extent {
    uint64_t offset = 0;
    uint64_t length = 0;
    /// Observation frames in the run.
    uint64_t observations = 0;
  };

  /// A truncation that reached into a session's checkpointed frames: keep
  /// the first `bytes` bytes of its extents, which hold `observations`
  /// observations.
  struct Cut {
    uint64_t bytes = 0;
    uint64_t observations = 0;
  };

  /// Index entry of one sealed session or task: what ListSessions reports,
  /// and where its frames sit in the data log. A sealed session spread
  /// over several extents points at its extent-index frame instead.
  struct SealedEntry {
    /// Session id, or task name.
    std::string id;
    uint64_t lsn = 0;
    uint64_t dimension = 0;
    /// Observations of the session, rows of the task.
    uint64_t observations = 0;
    uint64_t offset = 0;
    uint64_t length = 0;
    /// Data-log bytes the entry keeps alive: its extents and index frame.
    uint64_t bytes = 0;
  };

  /// What the committed manifest says: the data log and its index. It
  /// changes only through ApplyEdit, at recovery and at checkpoints (and
  /// is replaced whole by a compaction).
  struct Manifest {
    uint64_t covered_lsn = 0;
    uint64_t generation = 1;
    /// Covered length of the data log; 0 before its first frame.
    uint64_t data_log_bytes = 0;
    /// Open sessions' extents, in stream order.
    std::map<std::string, std::vector<Extent>, std::less<>> open;
    /// In id order (FindSealed).
    std::vector<SealedEntry> sealed;
    /// In persistence order.
    std::vector<SealedEntry> tasks;
  };

  /// One manifest edit, as a checkpoint builds it for EncodeEdit. A full
  /// edit replaces the whole index; a delta drops restarted ids, cuts
  /// truncated sessions, then adds extents, seals and tasks, in that
  /// order.
  struct ManifestEdit {
    bool full = false;
    uint64_t covered_lsn = 0;
    uint64_t generation = 0;
    uint64_t data_log_bytes = 0;
    std::vector<std::string> restarts;
    std::vector<std::pair<std::string, Cut>> cuts;
    std::vector<std::pair<std::string, Extent>> extents;
    std::vector<SealedEntry> seals;
    std::vector<SealedEntry> tasks;
  };

  /// The index of a session in memory: open, or sealed since the last
  /// checkpoint. Its byte stream is the first `flushed_bytes` bytes of
  /// its extents in the manifest (none when `restarted`), then `frames`;
  /// only the frames are held.
  struct SessionState {
    /// Observations in the stream, and those of them in the data log.
    size_t observations = 0;
    size_t flushed_observations = 0;
    uint64_t flushed_bytes = 0;
    /// From the begin frame. A session Open found in the manifest has it
    /// read by the first call that needs it (DimensionLocked).
    mutable std::optional<size_t> dimension;
    /// Frames not yet in the data log (the begin frame first, until the
    /// first checkpoint after it).
    std::string frames;
    /// The end frame once the session is sealed, else empty.
    std::string end_frame;
    /// LSN of the last record that changed the stream (begin, observation
    /// or truncate), so a read outside the mutex can tell it still holds.
    uint64_t last_lsn = 0;
    /// LSN of the end frame.
    uint64_t seal_lsn = 0;
    /// This incarnation restarted an id the manifest still holds; the
    /// next edit drops the old one.
    bool restarted = false;
    /// A truncation into the flushed bytes, for the next edit.
    std::optional<Cut> cut;

    bool finished() const { return !end_frame.empty(); }
  };

  /// Where the stream of a session in memory sits, taken from the index
  /// under the mutex so that ReadStream can run outside it: the runs of
  /// the data log (open already, so a compaction that deletes the file
  /// cannot pull it away), then the bytes in memory.
  struct StreamSource {
    std::string path;
    std::ifstream log;
    std::vector<Extent> extents;
    std::string memory;
    size_t observations = 0;
    bool sealed = false;
  };

  /// A task not yet in the data log: its index entry (offset and length
  /// unset) and its frame.
  struct TaskState {
    SealedEntry entry;
    std::string frame;
  };

  std::string DataLogPath(uint64_t generation) const;
  [[nodiscard]] Status Recover() DBTUNE_REQUIRES(mu_);
  /// Replays the manifest log into `manifest_`; NotFound when absent.
  [[nodiscard]] Status LoadManifestLog() DBTUNE_REQUIRES(mu_);
  /// Truncates data-log bytes past the covered length; Internal when the
  /// log is shorter than covered.
  [[nodiscard]] Status RecoverDataLog() DBTUNE_REQUIRES(mu_);
  /// The edit as a kManifestEdit frame (its LSN is the covered LSN).
  static std::string EncodeEdit(const ManifestEdit& edit);
  /// The edit that rebuilds `manifest` from nothing.
  static ManifestEdit FullEdit(const Manifest& manifest);
  /// Keeps the first `cut.bytes` bytes of `extents`; Internal when the
  /// cut does not fit them.
  [[nodiscard]] static Status CutExtents(const Cut& cut,
                                         std::vector<Extent>* extents);
  /// Applies one kManifestEdit frame to `manifest`; Internal on a frame
  /// that is not a well-formed edit or does not fit the index.
  [[nodiscard]] static Status ApplyEdit(const WalFrameView& frame,
                                        Manifest* manifest);
  /// The extent-index frame of a sealed session spread over `extents`.
  static std::string EncodeExtentIndex(const std::string& id, uint64_t lsn,
                                       const std::vector<Extent>& extents);
  /// The sealed entry of `id` in `sealed` (id-ordered), or null.
  static const SealedEntry* FindSealed(const std::vector<SealedEntry>& sealed,
                                       std::string_view id);
  /// Replays one WAL record into the index and retains its frame bytes
  /// for the next checkpoint. The body is checked by skipping its fields,
  /// never decoded into objects; a malformed one is Internal.
  [[nodiscard]] Status ApplyRecord(const WalFrameView& record)
      DBTUNE_REQUIRES(mu_);
  /// Appends one record to the WAL and returns its frame. Each caller then
  /// applies what it already knows of the record, as ApplyRecord does.
  [[nodiscard]] Result<std::string> AppendLocked(WalRecordType type,
                                                 std::string body)
      DBTUNE_REQUIRES(mu_);
  /// Logs `task` and adds it to the tasks in memory.
  [[nodiscard]] Status PersistTaskLocked(const SourceTask& task)
      DBTUNE_REQUIRES(mu_);
  /// Starts the incarnation of `id` whose begin frame, of LSN `lsn`, is
  /// `frame`.
  void BeginLocked(std::string_view id, uint64_t dimension, uint64_t lsn,
                   std::string_view frame) DBTUNE_REQUIRES(mu_);
  /// Applies the truncate record of LSN `lsn` to `state`: keeps the first
  /// `keep` observations, whose frame for observation `keep` starts at
  /// stream offset `cut`.
  static void TruncateState(SessionState* state, size_t keep, uint64_t cut,
                            uint64_t lsn);
  /// The open session `id`, for a mutation of it. FailedPrecondition when
  /// it is finished (sealed, or ended since the last checkpoint), NotFound
  /// when unknown.
  [[nodiscard]] Result<SessionState*> OpenSessionLocked(const std::string& id)
      DBTUNE_REQUIRES(mu_);
  /// The session's dimension, read from its begin frame in the data log
  /// (and kept) when the index does not hold it yet.
  [[nodiscard]] Result<size_t> DimensionLocked(const std::string& id,
                                               const SessionState& state) const
      DBTUNE_REQUIRES(mu_);
  [[nodiscard]] Result<StreamSource> StreamSourceLocked(
      const std::string& id, const SessionState& state) const
      DBTUNE_REQUIRES(mu_);
  /// Reads the stream `source` names and decodes it, CRC-checked; Internal
  /// when it does not hold `source->observations` observations of `id`.
  /// `offsets`, when given, gets the stream offset of each observation.
  [[nodiscard]] static Result<StoredSession> ReadStream(
      const std::string& id, StreamSource* source,
      std::vector<uint64_t>* offsets);
  /// Stream offset of the frame of observation `index` (0-based).
  [[nodiscard]] Result<uint64_t> ObservationOffsetLocked(
      const std::string& id, const SessionState& state, size_t index) const
      DBTUNE_REQUIRES(mu_);
  /// Truncates the data log and the manifest log back to their committed
  /// lengths and reopens their writers, after a failed checkpoint.
  [[nodiscard]] Status ReopenLogsLocked() DBTUNE_REQUIRES(mu_);
  /// Replaces the manifest log with `image` (tmp+rename). The rename is
  /// the commit: on an error nothing changed.
  [[nodiscard]] Status ReplaceManifestLocked(const std::string& image)
      DBTUNE_REQUIRES(mu_);
  /// WriteCheckpointLocked, counting a failure and closing both log
  /// writers after one.
  [[nodiscard]] Status CheckpointLocked() DBTUNE_REQUIRES(mu_);
  [[nodiscard]] Status WriteCheckpointLocked() DBTUNE_REQUIRES(mu_);
  /// Copies the live extents to the next data-log generation.
  [[nodiscard]] Status CompactLocked() DBTUNE_REQUIRES(mu_);
  /// The frames of one sealed session or task, gathered through its
  /// extent index when it has one.
  [[nodiscard]] Result<std::string> ReadSealedLocked(
      std::ifstream* log, const SealedEntry& entry) const
      DBTUNE_REQUIRES(mu_);
  /// FindSession of a session no longer in memory.
  [[nodiscard]] Result<StoredSession> FindSealedLocked(
      const std::string& id) const DBTUNE_REQUIRES(mu_);
  uint64_t DeadBytesLocked() const DBTUNE_REQUIRES(mu_);

  const std::string path_;
  const std::string manifest_path_;
  const StoreOptions options_;

  mutable Mutex mu_;
  WalWriter wal_ DBTUNE_GUARDED_BY(mu_);
  /// Open sessions, and sealed ones not yet checkpointed. Ordered so
  /// checkpoints (and therefore recovery) are deterministic.
  std::map<std::string, SessionState, std::less<>> sessions_
      DBTUNE_GUARDED_BY(mu_);
  /// Tasks not yet in the data log, in persistence order.
  std::vector<TaskState> tasks_ DBTUNE_GUARDED_BY(mu_);
  Manifest manifest_ DBTUNE_GUARDED_BY(mu_);
  WalWriter data_log_ DBTUNE_GUARDED_BY(mu_);
  WalWriter manifest_log_ DBTUNE_GUARDED_BY(mu_);
  /// Committed length of the manifest log (0 while there is none), and
  /// its length right after the last rewrite.
  uint64_t manifest_bytes_ DBTUNE_GUARDED_BY(mu_) = 0;
  uint64_t consolidated_bytes_ DBTUNE_GUARDED_BY(mu_) = 0;
  uint64_t next_lsn_ DBTUNE_GUARDED_BY(mu_) = 1;
  size_t appends_since_checkpoint_ DBTUNE_GUARDED_BY(mu_) = 0;
  StoreStats stats_ DBTUNE_GUARDED_BY(mu_);
};

}  // namespace dbtune::store

#endif  // DBTUNE_STORE_OBSERVATION_STORE_H_
