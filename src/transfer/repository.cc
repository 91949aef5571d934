#include "transfer/repository.h"

#include <algorithm>

#include "util/logging.h"

namespace dbtune {

ObservationRepository::ObservationRepository(
    ObservationRepository&& other) noexcept {
  MutexLock lock(&other.mu_);
  tasks_ = std::move(other.tasks_);
}

ObservationRepository& ObservationRepository::operator=(
    ObservationRepository&& other) noexcept {
  if (this == &other) return *this;
  std::vector<SourceTask> moved;
  {
    MutexLock lock(&other.mu_);
    moved = std::move(other.tasks_);
  }
  MutexLock lock(&mu_);
  tasks_ = std::move(moved);
  return *this;
}

void ObservationRepository::AddTask(SourceTask task) {
  MutexLock lock(&mu_);
  tasks_.push_back(std::move(task));
}

size_t ObservationRepository::size() const {
  MutexLock lock(&mu_);
  return tasks_.size();
}

bool ObservationRepository::empty() const {
  MutexLock lock(&mu_);
  return tasks_.empty();
}

// Publish-then-read: every AddTask happens-before the transfer phase that
// reads through this reference (the callers join their source sessions
// first), so the unlocked access is race-free. The analysis cannot see
// that phase boundary, hence the explicit opt-out.
const std::vector<SourceTask>& ObservationRepository::tasks() const
    DBTUNE_NO_THREAD_SAFETY_ANALYSIS {
  return tasks_;
}

SourceTask ObservationRepository::FromHistory(
    std::string name, const ConfigurationSpace& space,
    const std::vector<Observation>& history) {
  SourceTask task;
  task.name = std::move(name);
  task.unit_x.reserve(history.size());
  task.scores.reserve(history.size());
  std::vector<double> metric_sum;
  size_t successful = 0;
  for (const Observation& obs : history) {
    task.unit_x.push_back(space.ToUnit(obs.config));
    task.scores.push_back(obs.score);
    if (!obs.failed && !obs.internal_metrics.empty()) {
      if (metric_sum.empty()) {
        metric_sum.assign(obs.internal_metrics.size(), 0.0);
      }
      // Clamp to this observation's own width: histories mixing metric
      // arities (e.g. recorded across collector versions) must not read
      // past a shorter vector.
      const size_t width =
          std::min(metric_sum.size(), obs.internal_metrics.size());
      for (size_t m = 0; m < width; ++m) {
        metric_sum[m] += obs.internal_metrics[m];
      }
      ++successful;
    }
  }
  if (successful > 0) {
    for (double& v : metric_sum) v /= static_cast<double>(successful);
    task.metric_signature = std::move(metric_sum);
  }
  return task;
}

}  // namespace dbtune
