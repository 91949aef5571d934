#ifndef DBTUNE_DBMS_WORKLOAD_H_
#define DBTUNE_DBMS_WORKLOAD_H_

#include <cstdint>
#include <string>
#include <vector>

namespace dbtune {

/// The nine benchmark workloads of the paper's Table 4.
enum class WorkloadId {
  kJob = 0,
  kSysbench,
  kTpcc,
  kSeats,
  kSmallbank,
  kTatp,
  kVoter,
  kTwitter,
  kSibench,
};

/// Workload family (Table 4's "Class" column).
enum class WorkloadClass {
  kAnalytical = 0,
  kTransactional,
  kWebOriented,
  kFeatureTesting,
};

/// What the tuner optimizes for this workload: throughput (maximize, OLTP)
/// or 95th-percentile latency (minimize, OLAP) — the paper's protocol.
enum class ObjectiveKind {
  kThroughput,
  kLatencyP95,
};

/// A raw objective in maximize direction: throughput as is, latency
/// negated.
double DirectedScore(double objective, ObjectiveKind kind);

/// Relative gain of `objective` over a positive `reference`, positive when
/// `objective` is better: (o - r) / r for throughput, (r - o) / r for
/// latency.
double RelativeGain(double objective, double reference, ObjectiveKind kind);

/// Static description of a workload: the paper's Table 4 profile plus the
/// parameters that shape its synthetic response surface (see DESIGN.md §2).
struct WorkloadProfile {
  WorkloadId id;
  const char* name;
  WorkloadClass workload_class;
  /// Dataset size in GB (Table 4).
  double size_gb;
  /// Number of tables (Table 4).
  int tables;
  /// Fraction of read-only transactions (Table 4).
  double read_only_fraction;
  ObjectiveKind objective;

  // --- response-surface shape parameters ---
  /// Seed for this workload's surface; different workloads get genuinely
  /// different optima and importance rankings.
  uint64_t surface_seed;
  /// How many knobs carry most of the tunable variance (JOB: few,
  /// SYSBENCH: ~20) — controls the importance-decay rate.
  size_t effective_important_knobs;
  /// Total positive effect available at the surface optimum (log-scale);
  /// e.g. 1.25 ≈ 3.5x throughput over a zero-effect configuration.
  double max_gain;
  /// Baseline objective at zero effect on reference hardware: tps for
  /// OLTP workloads, seconds for OLAP.
  double base_objective;
};

/// Profile for one workload.
const WorkloadProfile& GetWorkloadProfile(WorkloadId id);

/// All nine workloads in Table 4 order.
std::vector<WorkloadId> AllWorkloads();

/// The eight OLTP workloads used in the transfer study (Q3).
std::vector<WorkloadId> OltpWorkloads();

/// Short display name ("JOB", "SYSBENCH", ...).
const char* WorkloadName(WorkloadId id);

}  // namespace dbtune

#endif  // DBTUNE_DBMS_WORKLOAD_H_
