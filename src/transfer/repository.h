#ifndef DBTUNE_TRANSFER_REPOSITORY_H_
#define DBTUNE_TRANSFER_REPOSITORY_H_

#include <string>
#include <vector>

#include "dbms/environment.h"
#include "knobs/configuration_space.h"
#include "surrogate/regressor.h"
#include "util/mutex.h"
#include "util/thread_annotations.h"

namespace dbtune {

/// Historical observations of one tuning task (the tuning server's data
/// repository entry): configurations, maximize-direction scores, and the
/// task's internal-metric signature used by workload mapping.
struct SourceTask {
  std::string name;
  FeatureMatrix unit_x;
  std::vector<double> scores;
  /// Mean internal metrics over the task's successful observations.
  std::vector<double> metric_signature;
};

/// Repository of past tuning tasks, the input to the knowledge-transfer
/// frameworks.
///
/// Write path (AddTask) is thread-safe: source sessions may record their
/// histories concurrently. The read path follows a publish-then-read phase
/// discipline — transfer optimizers borrow the repository only after every
/// writer finished, so `tasks()` hands out a direct reference without
/// holding the lock (see the comment in repository.cc).
class ObservationRepository {
 public:
  ObservationRepository() = default;

  /// Movable (locking the source) so builder-style code can return one by
  /// value; not copyable — optimizers borrow it by pointer.
  ObservationRepository(ObservationRepository&& other) noexcept;
  ObservationRepository& operator=(ObservationRepository&& other) noexcept;
  ObservationRepository(const ObservationRepository&) = delete;
  ObservationRepository& operator=(const ObservationRepository&) = delete;

  /// Appends one finished task's history. Safe to call concurrently.
  void AddTask(SourceTask task);

  /// Direct view of all recorded tasks. Callers must guarantee no
  /// concurrent AddTask (the library's transfer phase starts only after
  /// source collection completes).
  const std::vector<SourceTask>& tasks() const;

  size_t size() const;
  bool empty() const;

  /// Builds a task record from a finished session's history. Failed
  /// observations keep their substituted scores; metric signatures are
  /// averaged over successful ones only.
  static SourceTask FromHistory(std::string name,
                                const ConfigurationSpace& space,
                                const std::vector<Observation>& history);

 private:
  mutable Mutex mu_;
  std::vector<SourceTask> tasks_ DBTUNE_GUARDED_BY(mu_);
};

}  // namespace dbtune

#endif  // DBTUNE_TRANSFER_REPOSITORY_H_
