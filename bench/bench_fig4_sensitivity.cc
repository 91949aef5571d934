// Reproduces Figure 4: sensitivity analysis of the importance
// measurements on SYSBENCH — (left) similarity score (intersection-over-
// union of the top-5 knob set vs. the full-data baseline) and (right) R²
// of each measurement's surrogate, as functions of the number of training
// samples, averaged over repetitions.

#include "bench_util.h"

#include "importance/ablation.h"
#include "importance/fanova.h"
#include "importance/gini.h"
#include "importance/lasso.h"
#include "importance/shap.h"

namespace {

using namespace dbtune;

// Rank + fit-quality in one call (the R² accessors are per-class).
struct RankOutcome {
  std::vector<double> importance;
  double r_squared = 0.0;
};

RankOutcome RankWith(MeasurementType type, const ImportanceInput& input,
                     uint64_t seed) {
  RankOutcome out;
  switch (type) {
    case MeasurementType::kLasso: {
      LassoImportance m(seed);
      out.importance = m.Rank(input).value();
      out.r_squared = m.last_fit_r_squared();
      return out;
    }
    case MeasurementType::kGini: {
      GiniImportance m(seed);
      out.importance = m.Rank(input).value();
      out.r_squared = m.last_fit_r_squared();
      return out;
    }
    case MeasurementType::kFanova: {
      FanovaImportance m(seed);
      out.importance = m.Rank(input).value();
      out.r_squared = m.last_fit_r_squared();
      return out;
    }
    case MeasurementType::kAblation: {
      AblationImportance m(seed);
      out.importance = m.Rank(input).value();
      out.r_squared = m.last_fit_r_squared();
      return out;
    }
    case MeasurementType::kShap: {
      ShapImportance m(seed);
      out.importance = m.Rank(input).value();
      out.r_squared = m.last_fit_r_squared();
      return out;
    }
  }
  return out;
}

}  // namespace

int main() {
  using namespace dbtune;
  using namespace dbtune::bench;
  Banner("Figure 4: sensitivity analysis of importance measurements",
         "SYSBENCH, subsample sizes vs 6250-sample baseline, 10 repeats");

  const size_t baseline_samples = ScaledSamples(6250, 800);
  const int repeats = std::max(2, static_cast<int>(10 * Scale() + 0.5));

  DbmsSimulator sim(WorkloadId::kSysbench, HardwareInstance::kB, 1);
  std::printf("collecting %zu baseline samples ...\n", baseline_samples);
  const ImportanceData data =
      CollectImportanceData(&sim, baseline_samples, 7);
  const ImportanceInput baseline_input =
      MakeImportanceInput(sim.space(), data.configs, data.scores,
                          sim.EffectiveDefault(), data.default_score)
          .value();

  // Baseline top-5 sets on the full data.
  std::vector<std::vector<size_t>> baseline_top5;
  for (MeasurementType type : AllMeasurements()) {
    baseline_top5.push_back(
        TopKnobs(RankWith(type, baseline_input, 5).importance, 5));
  }

  std::vector<size_t> subset_sizes;
  for (double frac : {0.1, 0.2, 0.4, 0.7}) {
    subset_sizes.push_back(
        static_cast<size_t>(frac * static_cast<double>(baseline_samples)));
  }

  TablePrinter similarity({"samples", "Lasso", "Gini", "fANOVA", "Ablation",
                           "SHAP"});
  TablePrinter fit({"samples", "Lasso", "Gini", "fANOVA", "Ablation",
                    "SHAP"});
  Rng subsample_rng(99);
  for (size_t n : subset_sizes) {
    std::vector<double> iou_sum(5, 0.0), r2_sum(5, 0.0);
    for (int rep = 0; rep < repeats; ++rep) {
      const std::vector<size_t> pick =
          subsample_rng.SampleWithoutReplacement(data.configs.size(), n);
      ImportanceInput input = baseline_input;
      input.unit_x.clear();
      input.scores.clear();
      for (size_t i : pick) {
        input.unit_x.push_back(baseline_input.unit_x[i]);
        input.scores.push_back(baseline_input.scores[i]);
      }
      size_t m = 0;
      for (MeasurementType type : AllMeasurements()) {
        const RankOutcome outcome = RankWith(type, input, 100 + rep);
        iou_sum[m] += IntersectionOverUnion(TopKnobs(outcome.importance, 5),
                                            baseline_top5[m]);
        r2_sum[m] += outcome.r_squared;
        ++m;
      }
    }
    std::vector<std::string> iou_row = {std::to_string(n)};
    std::vector<std::string> r2_row = {std::to_string(n)};
    for (size_t m = 0; m < 5; ++m) {
      iou_row.push_back(TablePrinter::Num(iou_sum[m] / repeats, 3));
      r2_row.push_back(TablePrinter::Num(r2_sum[m] / repeats, 3));
    }
    similarity.AddRow(std::move(iou_row));
    fit.AddRow(std::move(r2_row));
  }

  std::printf("\nFigure 4 (left) — top-5 similarity score vs baseline "
              "(paper: Gini most stable, Ablation least):\n");
  similarity.Print();
  std::printf("\nFigure 4 (right) — surrogate R² "
              "(paper: Lasso fails to model the surface, tree models do "
              "well):\n");
  fit.Print();
  return 0;
}
