// Reproduces Figure 6: incremental knob selection — OtterTune's
// increasing heuristic and Tuneful's decreasing heuristic versus fixed
// top-5 and top-20 knob sets, tuned with vanilla BO on SYSBENCH and JOB.

#include "bench_util.h"

#include "importance/incremental.h"

int main() {
  using namespace dbtune;
  using namespace dbtune::bench;
  Banner("Figure 6: incremental knob selection",
         "increase {5,10,15,20} / decrease {40,20,10,5} vs fixed top-5 and "
         "top-20, vanilla BO, 200 iterations");

  const size_t samples = ScaledSamples(6250, 600);
  const size_t total_iterations = ScaledIters(200, 80);
  const size_t phase_iterations = total_iterations / 4;

  bool broken_trace = false;
  for (WorkloadId workload : {WorkloadId::kSysbench, WorkloadId::kJob}) {
    DbmsSimulator sim(workload, HardwareInstance::kB, 1);
    const ImportanceData data = CollectImportanceData(&sim, samples, 31);
    const ImportanceInput input =
        MakeImportanceInput(sim.space(), data.configs, data.scores,
                            sim.EffectiveDefault(), data.default_score)
            .value();
    std::unique_ptr<ImportanceMeasure> shap =
        CreateImportanceMeasure(MeasurementType::kShap, 33);
    const std::vector<double> importance = shap->Rank(input).value();
    const std::vector<size_t> ranked =
        TopKnobs(importance, sim.space().dimension());

    // Incremental sessions.
    auto run_incremental = [&](IncrementalOptions options) {
      options.iterations_per_phase = phase_iterations;
      options.seed = 41;
      DbmsSimulator fresh(workload, HardwareInstance::kB, 2);
      return RunIncrementalSession(&fresh, ranked, options).value();
    };
    const SessionResult increasing = run_incremental(IncreasingSchedule());
    const SessionResult decreasing = run_incremental(DecreasingSchedule());
    // Best-so-far over the default: never negative, never decreasing.
    for (const SessionResult* result : {&increasing, &decreasing}) {
      double previous = 0.0;
      for (double improvement : result->improvement_trace) {
        broken_trace |= improvement < previous;
        previous = improvement;
      }
    }

    // Fixed baselines.
    const std::vector<size_t> top5(ranked.begin(), ranked.begin() + 5);
    const std::vector<size_t> top20(ranked.begin(), ranked.begin() + 20);
    DbmsSimulator sim5(workload, HardwareInstance::kB, 3);
    const SessionResult fixed5 = RunTuningSession(
        &sim5, top5, OptimizerType::kVanillaBo, total_iterations, 43);
    DbmsSimulator sim20(workload, HardwareInstance::kB, 3);
    const SessionResult fixed20 = RunTuningSession(
        &sim20, top20, OptimizerType::kVanillaBo, total_iterations, 43);

    TablePrinter table({"iteration", "increase", "decrease", "fixed top-5",
                        "fixed top-20"});
    const size_t trace_len =
        std::min({increasing.improvement_trace.size(),
                  decreasing.improvement_trace.size(),
                  fixed5.improvement_trace.size(),
                  fixed20.improvement_trace.size()});
    for (size_t i = trace_len / 8; i <= trace_len; i += trace_len / 8) {
      const size_t idx = std::min(i, trace_len) - 1;
      table.AddRow(
          {std::to_string(idx + 1),
           TablePrinter::Num(increasing.improvement_trace[idx], 1) + "%",
           TablePrinter::Num(decreasing.improvement_trace[idx], 1) + "%",
           TablePrinter::Num(fixed5.improvement_trace[idx], 1) + "%",
           TablePrinter::Num(fixed20.improvement_trace[idx], 1) + "%"});
    }
    std::printf("\nFigure 6 — %s best-so-far improvement (paper: for JOB "
                "fixed top-5 wins; for SYSBENCH increasing beats "
                "decreasing):\n",
                WorkloadName(workload));
    table.Print();
    std::printf("\n");
  }
  if (broken_trace) {
    std::printf("error: an incremental session's best-so-far improvement "
                "decreased or went negative\n");
    return 1;
  }
  return 0;
}
