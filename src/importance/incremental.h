#ifndef DBTUNE_IMPORTANCE_INCREMENTAL_H_
#define DBTUNE_IMPORTANCE_INCREMENTAL_H_

#include <vector>

#include "dbms/simulator.h"
#include "optimizer/optimizer.h"

namespace dbtune {

/// Options for an incremental knob-selection session.
struct IncrementalOptions {
  /// Knob-set sizes per phase, in phase order (e.g. {5,10,15,20} for the
  /// increasing heuristic). Sizes index into the importance ranking.
  std::vector<size_t> phase_sizes;
  /// Tuning iterations spent in each phase.
  size_t iterations_per_phase = 50;
  OptimizerType optimizer = OptimizerType::kVanillaBo;
  uint64_t seed = 1;
};

/// Default phase schedules used in the paper's Figure 6 comparison.
IncrementalOptions IncreasingSchedule(size_t iterations_per_phase = 50);
IncrementalOptions DecreasingSchedule(size_t iterations_per_phase = 50);

/// Outcome of an incremental session.
struct IncrementalResult {
  /// Best raw objective after each iteration (global across phases).
  std::vector<double> best_objective_trace;
  /// Best-so-far improvement (%) after each iteration.
  std::vector<double> improvement_trace;
  double final_improvement = 0.0;
};

/// Runs one incremental knob-selection tuning session on `simulator`:
/// each phase tunes the top `phase_sizes[p]` knobs of `ranked_knobs` with
/// a fresh optimizer warm-started from the previous phase's observations
/// (values of knobs leaving the set are dropped; knobs entering start at
/// their defaults).
[[nodiscard]] Result<IncrementalResult> RunIncrementalSession(
    DbmsSimulator* simulator, const std::vector<size_t>& ranked_knobs,
    const IncrementalOptions& options);

}  // namespace dbtune

#endif  // DBTUNE_IMPORTANCE_INCREMENTAL_H_
