#ifndef DBTUNE_IMPORTANCE_INCREMENTAL_H_
#define DBTUNE_IMPORTANCE_INCREMENTAL_H_

#include <vector>

#include "core/tuning_session.h"
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

/// Runs one incremental knob-selection tuning session on `simulator`:
/// each phase is one `RunTuningSession` over the top `phase_sizes[p]`
/// knobs of `ranked_knobs`, with a fresh optimizer warm-started from the
/// previous phase's observations (values of knobs leaving the set are
/// dropped; knobs entering start at the measured default,
/// `TuningEnvironment::default_config()`).
///
/// The traces span all phases: each entry is the best found so far by
/// any phase, every phase scoring against its own default measurement,
/// and an earlier best wins ties. Per-iteration overheads are
/// concatenated, simulated seconds and replayed iterations summed;
/// diagnostics are the last phase's. The phases never bind the durable
/// store.
[[nodiscard]] Result<SessionResult> RunIncrementalSession(
    DbmsSimulator* simulator, const std::vector<size_t>& ranked_knobs,
    const IncrementalOptions& options);

}  // namespace dbtune

#endif  // DBTUNE_IMPORTANCE_INCREMENTAL_H_
