#ifndef DBTUNE_BENCH_E2E_LAYERS_H_
#define DBTUNE_BENCH_E2E_LAYERS_H_

// Per-layer numbers for one workload, measured from outside the program:
// a traced pass records the request sequence and client-side spans, then
// the sequence is replayed through each layer's public API on fresh
// instances, with a span per call. The metrics registry is switched on
// for the traced pass only, to supply counts the outside cannot see and
// to cross-check the replays.

#include <string>
#include <vector>

#include "common.h"
#include "served_pass.h"

namespace dbtune::e2e {

struct LayerRunResult {
  bool correct = false;
  size_t attempted = 0;
  size_t failed = 0;
  std::string error;
};

/// Runs an untraced warm-up pass, the traced pass, an untraced pass (the
/// overhead baseline) and the layer replays, checks every pass's
/// trajectories against `expected`,
/// adds every per-layer metric to `sink`, and writes the spans to
/// `trace_out` as Chrome trace JSON when it is non-empty.
LayerRunResult RunLayers(const WorkloadSpec& spec,
                         const std::vector<SessionSpec>& sessions,
                         const std::vector<std::vector<Observation>>& expected,
                         const std::string& workdir, size_t lanes,
                         const std::string& trace_out, MetricSink* sink);

}  // namespace dbtune::e2e

#endif  // DBTUNE_BENCH_E2E_LAYERS_H_
