#ifndef DBTUNE_STORE_OBSERVATION_STORE_H_
#define DBTUNE_STORE_OBSERVATION_STORE_H_

#include <cstdint>
#include <iosfwd>
#include <map>
#include <memory>
#include <string>
#include <string_view>
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
  /// Observations appended between automatic checkpoints (snapshot +
  /// WAL compaction). 0 disables automatic checkpoints; Checkpoint() can
  /// still be called explicitly.
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
  /// Highest LSN assigned so far (snapshot + WAL).
  uint64_t last_lsn = 0;
  /// WAL records applied during Open (records the snapshot already
  /// covered are skipped and not counted).
  size_t wal_records_replayed = 0;
  /// True when Open found and truncated a torn or CRC-corrupt WAL tail.
  bool recovered_torn_tail = false;
  /// True when recovery loaded a snapshot file.
  bool loaded_snapshot = false;
  /// Checkpoints taken through this handle.
  size_t checkpoints = 0;
  /// Sealed sessions whose history lives only in the sealed log.
  size_t sealed_sessions = 0;
  /// Length of the sealed log the store stands on (its header included).
  uint64_t sealed_log_bytes = 0;
};

/// Durable observation store: a write-ahead log of (configuration,
/// performance, internal-metrics) records plus periodic snapshots written
/// via atomic tmp+rename, so a service restart resumes every session
/// mid-trajectory and the transfer base-task pool survives across runs.
///
/// Layout on disk (DESIGN.md §10):
/// - `<path>` is the WAL ("DBTNWAL1" magic + CRC-framed records).
/// - `<path>.snapshot` is the latest checkpoint ("DBTNSNP1" magic + the
///   covered LSN + a sealed-log manifest + the open sessions' framed
///   records).
/// - `<path>.sealed` is the append-only sealed log ("DBTNSEL1" magic +
///   the framed records of every sealed session and task, each written
///   once by the checkpoint after it was sealed or persisted).
///
/// Recovery loads the snapshot (its manifest indexes the sealed log
/// without reading it), then replays WAL records with LSN beyond it; a
/// torn or corrupt WAL tail is truncated with a warning (every complete
/// record before it survives), and so are sealed-log bytes past the
/// length the snapshot covers. Appends flush per record, so a crash
/// tears at most the final record.
///
/// Thread-safe; sessions within one store are independent.
class ObservationStore {
 public:
  /// Opens (creating if absent) the store at `path` and runs recovery.
  [[nodiscard]] static Result<std::unique_ptr<ObservationStore>> Open(
      const std::string& path, StoreOptions options = {});

  /// Declares a session. New id → starts empty. Existing unfinished id
  /// with the same dimension → no-op (the caller replays its history).
  /// Existing finished id → the session restarts empty. A dimension
  /// mismatch on an unfinished session is an error.
  [[nodiscard]] Status BeginSession(const std::string& id, size_t dimension);

  /// Appends one observation to the session's durable history.
  /// `iteration` is 1-based and must be exactly one past the stored
  /// history (detects double-apply and lost-record bugs at the API edge).
  [[nodiscard]] Status AppendObservation(const std::string& id,
                                         size_t iteration,
                                         const Observation& obs);

  /// Durably discards all but the first `keep` observations of `id` —
  /// the recovery path for a replay divergence. A finished session is
  /// sealed: truncating it is FailedPrecondition.
  [[nodiscard]] Status TruncateSession(const std::string& id, size_t keep);

  /// Seals the session and persists its history as a transfer base task
  /// named `task_name` (built via ObservationRepository::FromHistory over
  /// `space`, which must be the session's tuned subspace).
  [[nodiscard]] Status FinishSession(const std::string& id,
                                     const ConfigurationSpace& space,
                                     const std::string& task_name);

  /// Persists an externally built base task. (Named distinctly from
  /// ObservationRepository::AddTask, which is void-returning.)
  [[nodiscard]] Status PersistTask(const SourceTask& task);

  /// Moves every session sealed and every task persisted since the last
  /// checkpoint to the sealed log (appended once, in LSN order), then
  /// writes a snapshot of the open sessions plus the sealed-log manifest
  /// (atomic tmp+rename) and compacts the WAL down to its header: every
  /// log record is now covered. Both files get the retained frames of
  /// the records, written as they were logged (LSNs included); nothing
  /// is encoded again.
  [[nodiscard]] Status Checkpoint();

  /// A copy of the stored session. NotFound for an unknown id; a sealed
  /// session already moved to the sealed log is read back from it, and a
  /// damaged entry there is Internal.
  [[nodiscard]] Result<StoredSession> FindSession(const std::string& id) const;

  /// Appends every persisted base task to `repository`, in persistence
  /// order. Tasks in the sealed log are read back from it; a damaged entry
  /// is Internal and leaves `repository` unchanged.
  [[nodiscard]] Status ExportTasks(ObservationRepository* repository) const;

  /// Id-ordered summaries of every stored session (from the index; the
  /// sealed log is not read).
  std::vector<StoredSessionInfo> ListSessions() const;

  size_t num_tasks() const;
  StoreStats stats() const;
  const std::string& path() const { return path_; }

 private:
  ObservationStore(std::string path, StoreOptions options);

  /// A session plus its records exactly as they were framed for the
  /// log, so a checkpoint writes them without encoding anything again.
  struct SessionState {
    StoredSession session;
    /// The begin frame, then one frame per observation.
    std::string frames;
    /// Offset in `frames` where each observation's frame starts.
    std::vector<size_t> observation_offsets;
    /// The end frame once the session is sealed, else empty.
    std::string end_frame;
    /// LSN of the end frame (orders the sealed log).
    uint64_t seal_lsn = 0;
  };

  /// Index entry of one sealed session or task: what ListSessions and
  /// the manifest report, and where its frames sit in the sealed log.
  struct SealedEntry {
    /// Session id, or task name.
    std::string id;
    uint64_t lsn = 0;
    uint64_t dimension = 0;
    /// Observations of the session, rows of the task.
    uint64_t observations = 0;
    uint64_t offset = 0;
    uint64_t length = 0;
  };

  /// A task not yet moved to the sealed log: its index entry (offset and
  /// length unset) and its frame.
  struct TaskState {
    SealedEntry entry;
    std::string frame;
  };

  [[nodiscard]] Status Recover() DBTUNE_REQUIRES(mu_);
  /// Loads the snapshot's sealed-log manifest into the index.
  [[nodiscard]] Status LoadManifest(std::string_view body)
      DBTUNE_REQUIRES(mu_);
  /// Truncates sealed-log bytes past the covered length and reopens the
  /// log for appends; Internal when the log is shorter than covered.
  [[nodiscard]] Status RecoverSealedLog() DBTUNE_REQUIRES(mu_);
  /// Applies one framed record to the in-memory state and retains its
  /// frame bytes for the next checkpoint.
  [[nodiscard]] Status ApplyRecord(const WalFrameView& record)
      DBTUNE_REQUIRES(mu_);
  [[nodiscard]] Status AppendAndApply(WalRecordType type, std::string body)
      DBTUNE_REQUIRES(mu_);
  /// The error for a mutation of `id`, which is not an open session:
  /// FailedPrecondition when it is sealed, NotFound when unknown.
  [[nodiscard]] Status NotOpenLocked(const std::string& id) const
      DBTUNE_REQUIRES(mu_);
  /// Appends every sealed session and task still in memory to the sealed
  /// log and drops them from memory; returns the bytes appended.
  [[nodiscard]] Result<uint64_t> MoveSealedLocked() DBTUNE_REQUIRES(mu_);
  /// Writes `<path>.snapshot` from the retained frames; returns its size.
  [[nodiscard]] Result<uint64_t> WriteSnapshotLocked() DBTUNE_REQUIRES(mu_);
  [[nodiscard]] Status CheckpointLocked() DBTUNE_REQUIRES(mu_);
  /// The frames of one sealed-log entry, read from `log`.
  [[nodiscard]] Result<std::string> ReadSealedLocked(
      std::ifstream* log, const SealedEntry& entry) const
      DBTUNE_REQUIRES(mu_);

  const std::string path_;
  const std::string sealed_path_;
  const StoreOptions options_;

  mutable Mutex mu_;
  WalWriter wal_ DBTUNE_GUARDED_BY(mu_);
  /// Open sessions, and sealed ones not yet moved to the sealed log.
  /// Ordered so snapshots (and therefore recovery) are deterministic.
  std::map<std::string, SessionState> sessions_ DBTUNE_GUARDED_BY(mu_);
  /// Tasks not yet moved to the sealed log, in persistence order.
  std::vector<TaskState> tasks_ DBTUNE_GUARDED_BY(mu_);
  /// The sealed log: its index, its covered length and its writer (open
  /// once the log has a header).
  std::map<std::string, SealedEntry> sealed_sessions_ DBTUNE_GUARDED_BY(mu_);
  std::vector<SealedEntry> sealed_tasks_ DBTUNE_GUARDED_BY(mu_);
  uint64_t sealed_bytes_ DBTUNE_GUARDED_BY(mu_) = 0;
  WalWriter sealed_log_ DBTUNE_GUARDED_BY(mu_);
  uint64_t next_lsn_ DBTUNE_GUARDED_BY(mu_) = 1;
  size_t appends_since_checkpoint_ DBTUNE_GUARDED_BY(mu_) = 0;
  StoreStats stats_ DBTUNE_GUARDED_BY(mu_);
};

}  // namespace dbtune::store

#endif  // DBTUNE_STORE_OBSERVATION_STORE_H_
