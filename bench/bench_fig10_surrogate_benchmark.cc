// Reproduces Figure 10 and the §8 speedup report: run the optimizers
// against the random-forest tuning benchmark instead of the (simulated)
// DBMS, verify that the optimizer ordering is preserved, and report the
// wall-clock speedup of surrogate evaluation vs. real stress tests. Exits
// 1 when a session's best-so-far improvement ever drops below zero (the
// default configuration is every session's first incumbent).

#include "bench_util.h"

#include "benchmk/surrogate_benchmark.h"

int main() {
  using namespace dbtune;
  using namespace dbtune::bench;
  Banner("Figure 10: tuning performance over the surrogate benchmark",
         "RF surrogate on the SYSBENCH medium-space dataset; 200-iter "
         "sessions, 10 runs; paper speedup 150~311x");

  const size_t samples = ScaledSamples(6250, 1000);
  const size_t iterations = ScaledIters(200, 80);
  const int runs = ScaledRuns(10);

  // Build the benchmark from an offline dataset.
  DbmsSimulator sim(WorkloadId::kSysbench, HardwareInstance::kB, 91);
  const std::vector<size_t> ranking = sim.surface().TunabilityRanking();
  const std::vector<size_t> knobs(ranking.begin(), ranking.begin() + 20);
  CollectionOptions collection;
  collection.lhs_samples = samples;
  collection.optimizer_guided_samples = samples / 5;
  collection.seed = 93;
  std::printf("collecting %zu offline samples ...\n",
              collection.lhs_samples + collection.optimizer_guided_samples);
  Result<TuningDataset> dataset = CollectDataset(&sim, knobs, collection);
  if (!dataset.ok()) {
    std::printf("error: %s\n", dataset.status().ToString().c_str());
    return 1;
  }
  Result<std::unique_ptr<SurrogateBenchmark>> benchmark =
      SurrogateBenchmark::Build(*dataset);
  if (!benchmark.ok()) {
    std::printf("error: %s\n", benchmark.status().ToString().c_str());
    return 1;
  }

  TablePrinter table({"optimizer", "median improvement", "lower quartile",
                      "upper quartile", "session wall s", "speedup vs real"});
  bool negative_improvement = false;
  for (OptimizerType type : PaperOptimizers()) {
    std::vector<double> improvements;
    double wall_seconds = 0.0;
    double real_seconds = 0.0;
    std::printf("running %s x %d ...\n", OptimizerTypeName(type), runs);
    for (int run = 0; run < runs; ++run) {
      TuningEnvironment env(benchmark->get());
      OptimizerOptions options;
      options.seed = 200 + run;
      std::unique_ptr<Optimizer> optimizer =
          CreateOptimizer(type, env.space(), options);
      const double eval_secs_before = (*benchmark)->evaluation_seconds();
      const SessionResult result =
          RunTuningSession(&env, optimizer.get(), iterations);
      improvements.push_back(result.final_improvement);
      // Surrogate queries plus the optimizer's suggest and observe time.
      wall_seconds += ((*benchmark)->evaluation_seconds() -
                       eval_secs_before) +
                      result.algorithm_overhead_seconds;
      real_seconds += result.simulated_evaluation_seconds;
      for (double improvement : result.improvement_trace) {
        negative_improvement |= improvement < 0.0;
      }
    }
    table.AddRow(
        {OptimizerTypeName(type),
         TablePrinter::Num(Median(improvements), 1) + "%",
         TablePrinter::Num(Quantile(improvements, 0.25), 1) + "%",
         TablePrinter::Num(Quantile(improvements, 0.75), 1) + "%",
         TablePrinter::Num(wall_seconds / runs, 2),
         TablePrinter::Num(real_seconds / std::max(wall_seconds, 1e-9), 0) +
             "x"});
  }
  std::printf("\nFigure 10 — optimizers on the surrogate benchmark (paper: "
              "ordering matches the real experiments; 150~311x speedup):\n");
  table.Print();
  if (negative_improvement) {
    std::printf("error: a session reported negative improvement over the "
                "default\n");
    return 1;
  }
  return 0;
}
