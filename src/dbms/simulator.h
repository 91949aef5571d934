#ifndef DBTUNE_DBMS_SIMULATOR_H_
#define DBTUNE_DBMS_SIMULATOR_H_

#include <memory>
#include <vector>

#include "dbms/evaluator.h"
#include "dbms/hardware.h"
#include "dbms/response_surface.h"
#include "dbms/workload.h"
#include "knobs/configuration_space.h"
#include "util/random.h"

namespace dbtune {

/// Number of DBMS internal metrics exposed per stress test (counters such
/// as buffer-pool hit ratios, lock waits, ... in the real system). They are
/// the DDPG state and the workload-mapping signature.
inline constexpr size_t kNumInternalMetrics = 40;

/// A simulated MySQL-5.7-style DBMS under a replayed workload: the
/// substrate that stands in for the paper's RDS MySQL + OLTP-Bench rig
/// (see DESIGN.md §2). Deterministic given (workload, hardware, seed).
class DbmsSimulator final : public Evaluator {
 public:
  /// Deploys `workload` on `hardware`; `seed` drives observation noise.
  /// Uses the full 197-knob catalog.
  DbmsSimulator(WorkloadId workload, HardwareInstance hardware,
                uint64_t seed = 7);

  /// Same, over a caller-provided configuration space (e.g. the small test
  /// catalog). The space is copied.
  DbmsSimulator(const ConfigurationSpace& space, WorkloadId workload,
                HardwareInstance hardware, uint64_t seed = 7);

  const ConfigurationSpace& space() const override { return space_; }
  ObjectiveKind objective() const override { return profile_.objective; }
  const WorkloadProfile& workload() const { return profile_; }
  const HardwareProfile& hardware() const { return hardware_; }
  const ResponseSurface& surface() const { return *surface_; }

  /// The deployment default: catalog defaults with the buffer pool raised
  /// to 60% of instance RAM (the paper's protocol).
  Configuration EffectiveDefault() const override;

  /// Restarts the DBMS with `config` and replays the workload for a
  /// simulated 3 minutes. Invalid values are clipped into their domains
  /// first (as a real controller would refuse to set them).
  EvaluationResult Evaluate(const Configuration& config) override;

  /// Advances the simulator past one evaluation whose outcome is already
  /// known (durable-store replay): consumes exactly the noise draws and
  /// simulated seconds `Evaluate` would for a failed/successful run, so
  /// the run continues on a bitwise-identical trajectory, without
  /// recomputing the response surface.
  void ReplaySkip(bool failed) override;

  /// Deterministic crash predicate: true when the configuration's memory
  /// footprint exceeds what the instance can host.
  bool WouldCrash(const Configuration& config) const;

  /// Noise-free objective (used by tests and ground-truth analyses).
  double NoiselessObjective(const Configuration& config) const;

  /// Total simulated seconds spent in `Evaluate` so far.
  double simulated_seconds() const override { return simulated_seconds_; }
  /// Number of `Evaluate` calls so far.
  size_t evaluation_count() const { return evaluation_count_; }

 private:
  void ResolveMemoryKnobs();
  double EstimatedMemoryBytes(const Configuration& config) const;
  std::vector<double> ComputeInternalMetrics(const std::vector<double>& unit,
                                             double score);

  ConfigurationSpace space_;
  WorkloadProfile profile_;
  HardwareProfile hardware_;
  std::unique_ptr<ResponseSurface> surface_;
  Rng noise_rng_;

  // Knob indices for the memory/crash model; -1 when absent from the space.
  int buffer_pool_knob_ = -1;
  int max_connections_knob_ = -1;
  std::vector<int> per_session_buffer_knobs_;

  double simulated_seconds_ = 0.0;
  size_t evaluation_count_ = 0;
};

}  // namespace dbtune

#endif  // DBTUNE_DBMS_SIMULATOR_H_
