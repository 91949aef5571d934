#include "dbms/workload.h"

#include "util/logging.h"

namespace dbtune {

namespace {

// Table 4 of the paper, extended with the surface-shape parameters.
// `max_gain` values are calibrated so the headline improvements land in
// the paper's ballpark (SYSBENCH ~250% throughput at the tuned optimum,
// JOB ~40% latency reduction).
const WorkloadProfile kProfiles[] = {
    {WorkloadId::kJob, "JOB", WorkloadClass::kAnalytical, 9.3, 21, 1.00,
     ObjectiveKind::kLatencyP95, 0xA11CE001, 5, 0.55, 200.0},
    {WorkloadId::kSysbench, "SYSBENCH", WorkloadClass::kTransactional, 24.8,
     150, 0.43, ObjectiveKind::kThroughput, 0xA11CE002, 20, 1.30, 1200.0},
    {WorkloadId::kTpcc, "TPC-C", WorkloadClass::kTransactional, 17.8, 9, 0.08,
     ObjectiveKind::kThroughput, 0xA11CE003, 16, 0.95, 850.0},
    {WorkloadId::kSeats, "SEATS", WorkloadClass::kTransactional, 12.7, 10,
     0.45, ObjectiveKind::kThroughput, 0xA11CE004, 14, 0.85, 900.0},
    {WorkloadId::kSmallbank, "Smallbank", WorkloadClass::kTransactional, 2.4,
     3, 0.15, ObjectiveKind::kThroughput, 0xA11CE005, 12, 0.90, 2400.0},
    {WorkloadId::kTatp, "TATP", WorkloadClass::kTransactional, 6.3, 4, 0.40,
     ObjectiveKind::kThroughput, 0xA11CE006, 12, 0.80, 3100.0},
    {WorkloadId::kVoter, "Voter", WorkloadClass::kTransactional, 0.00006, 3,
     0.00, ObjectiveKind::kThroughput, 0xA11CE007, 10, 0.70, 4200.0},
    {WorkloadId::kTwitter, "Twitter", WorkloadClass::kWebOriented, 7.9, 5,
     0.009, ObjectiveKind::kThroughput, 0xA11CE008, 14, 0.75, 1600.0},
    {WorkloadId::kSibench, "SIBench", WorkloadClass::kFeatureTesting, 0.0005,
     1, 0.50, ObjectiveKind::kThroughput, 0xA11CE009, 8, 0.60, 5000.0},
};

}  // namespace

double DirectedScore(double objective, ObjectiveKind kind) {
  return kind == ObjectiveKind::kThroughput ? objective : -objective;
}

double RelativeGain(double objective, double reference, ObjectiveKind kind) {
  DBTUNE_CHECK(reference > 0.0);
  if (kind == ObjectiveKind::kThroughput) {
    return (objective - reference) / reference;
  }
  return (reference - objective) / reference;
}

const WorkloadProfile& GetWorkloadProfile(WorkloadId id) {
  const size_t index = static_cast<size_t>(id);
  DBTUNE_CHECK(index < sizeof(kProfiles) / sizeof(kProfiles[0]));
  return kProfiles[index];
}

std::vector<WorkloadId> AllWorkloads() {
  std::vector<WorkloadId> out;
  for (const auto& p : kProfiles) out.push_back(p.id);
  return out;
}

std::vector<WorkloadId> OltpWorkloads() {
  return {WorkloadId::kSysbench, WorkloadId::kTpcc,   WorkloadId::kTwitter,
          WorkloadId::kSmallbank, WorkloadId::kSibench, WorkloadId::kVoter,
          WorkloadId::kSeats,    WorkloadId::kTatp};
}

const char* WorkloadName(WorkloadId id) { return GetWorkloadProfile(id).name; }

}  // namespace dbtune
