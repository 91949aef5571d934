// Surrogate-benchmark demo (§8 of the paper): collect an offline dataset,
// train the random-forest benchmark, then compare optimizers against the
// surrogate at a tiny fraction of the real evaluation cost.
//
//   $ ./surrogate_benchmark_demo

#include <cstdio>

#include "benchmk/surrogate_benchmark.h"
#include "core/tuning_session.h"
#include "util/table.h"

int main() {
  using namespace dbtune;

  // Offline data collection (the expensive, one-off step — the paper
  // reports ~13 days of wall time per configuration space; here the
  // simulator stands in for the real DBMS).
  DbmsSimulator dbms(WorkloadId::kSysbench, HardwareInstance::kB, 13);
  const std::vector<size_t> ranking =
      dbms.surface().TunabilityRanking();
  const std::vector<size_t> knobs(ranking.begin(), ranking.begin() + 20);

  CollectionOptions collection;
  collection.lhs_samples = 1500;
  collection.optimizer_guided_samples = 300;
  collection.seed = 21;
  std::printf("Collecting %zu offline samples ...\n",
              collection.lhs_samples + collection.optimizer_guided_samples);
  Result<TuningDataset> dataset = CollectDataset(&dbms, knobs, collection);
  if (!dataset.ok()) {
    std::printf("collection failed: %s\n",
                dataset.status().ToString().c_str());
    return 1;
  }
  std::printf("  would have taken %.1f days on the real system\n",
              dataset->simulated_collection_seconds / 86400.0);

  Result<std::unique_ptr<SurrogateBenchmark>> benchmark =
      SurrogateBenchmark::Build(*dataset);
  if (!benchmark.ok()) {
    std::printf("training failed: %s\n",
                benchmark.status().ToString().c_str());
    return 1;
  }

  // Run optimizers against the cheap benchmark.
  TablePrinter table({"optimizer", "best improvement", "wall seconds",
                      "real-system seconds", "speedup"});
  for (OptimizerType type :
       {OptimizerType::kSmac, OptimizerType::kMixedKernelBo,
        OptimizerType::kTpe, OptimizerType::kRandomSearch}) {
    TuningEnvironment env(benchmark->get());
    OptimizerOptions options;
    options.seed = 31;
    std::unique_ptr<Optimizer> optimizer =
        CreateOptimizer(type, env.space(), options);
    const double secs_before = (*benchmark)->evaluation_seconds();
    const SessionResult result = RunTuningSession(&env, optimizer.get(), 150);
    // Surrogate queries plus the optimizer's suggest and observe time.
    const double wall = ((*benchmark)->evaluation_seconds() - secs_before) +
                        result.algorithm_overhead_seconds;
    const double real = result.simulated_evaluation_seconds;
    table.AddRow({OptimizerTypeName(type),
                  TablePrinter::Num(result.final_improvement, 1) + " %",
                  TablePrinter::Num(wall, 2),
                  TablePrinter::Num(real, 0),
                  TablePrinter::Num(real / std::max(wall, 1e-9), 0) + "x"});
  }
  std::printf("\n150-iteration tuning sessions on the surrogate benchmark:\n");
  table.Print();
  return 0;
}
