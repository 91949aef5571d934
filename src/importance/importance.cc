#include "importance/importance.h"

#include "importance/ablation.h"
#include "importance/fanova.h"
#include "importance/gini.h"
#include "importance/lasso.h"
#include "importance/shap.h"
#include "surrogate/cross_validation.h"
#include "util/logging.h"
#include "util/stats.h"

namespace dbtune {

const char* MeasurementTypeName(MeasurementType type) {
  switch (type) {
    case MeasurementType::kLasso:
      return "Lasso";
    case MeasurementType::kGini:
      return "Gini";
    case MeasurementType::kFanova:
      return "fANOVA";
    case MeasurementType::kAblation:
      return "Ablation";
    case MeasurementType::kShap:
      return "SHAP";
  }
  return "?";
}

std::vector<size_t> TopKnobs(const std::vector<double>& importance, size_t k) {
  std::vector<size_t> order = ArgSortDescending(importance);
  if (order.size() > k) order.resize(k);
  return order;
}

Result<ImportanceInput> MakeImportanceInput(
    const ConfigurationSpace& space, const std::vector<Configuration>& configs,
    const std::vector<double>& scores, const Configuration& default_config,
    double default_score) {
  if (configs.empty() || configs.size() != scores.size()) {
    return Status::InvalidArgument("configs/scores must be non-empty and "
                                   "aligned");
  }
  ImportanceInput input;
  input.space = &space;
  input.unit_x.reserve(configs.size());
  for (const Configuration& config : configs) {
    if (config.size() != space.dimension()) {
      return Status::InvalidArgument("configuration arity mismatch");
    }
    input.unit_x.push_back(space.ToUnit(config));
  }
  input.scores = scores;
  input.default_unit = space.ToUnit(default_config);
  input.default_score = default_score;
  return input;
}

std::unique_ptr<ImportanceMeasure> CreateImportanceMeasure(
    MeasurementType type, uint64_t seed) {
  switch (type) {
    case MeasurementType::kLasso:
      return std::make_unique<LassoImportance>(seed);
    case MeasurementType::kGini:
      return std::make_unique<GiniImportance>(seed);
    case MeasurementType::kFanova:
      return std::make_unique<FanovaImportance>(seed);
    case MeasurementType::kAblation:
      return std::make_unique<AblationImportance>(seed);
    case MeasurementType::kShap:
      return std::make_unique<ShapImportance>(seed);
  }
  DBTUNE_CHECK_MSG(false, "unknown measurement type");
  return nullptr;
}

double HoldoutRSquared(const ImportanceInput& input,
                       const std::function<std::unique_ptr<Regressor>()>&
                           factory,
                       uint64_t seed) {
  const size_t n = input.unit_x.size();
  if (n < 8) return 0.0;
  Rng rng(seed ^ 0xF01D);
  std::vector<size_t> order = rng.Permutation(n);
  const size_t train_count = (3 * n) / 4;
  FeatureMatrix train_x, test_x;
  std::vector<double> train_y, test_y;
  for (size_t i = 0; i < n; ++i) {
    if (i < train_count) {
      train_x.push_back(input.unit_x[order[i]]);
      train_y.push_back(input.scores[order[i]]);
    } else {
      test_x.push_back(input.unit_x[order[i]]);
      test_y.push_back(input.scores[order[i]]);
    }
  }
  std::unique_ptr<Regressor> model = factory();
  const Result<RegressionQuality> quality =
      TrainTestEvaluate(model.get(), train_x, train_y, test_x, test_y);
  return quality.ok() ? quality->r_squared : 0.0;
}

std::vector<MeasurementType> AllMeasurements() {
  return {MeasurementType::kLasso, MeasurementType::kGini,
          MeasurementType::kFanova, MeasurementType::kAblation,
          MeasurementType::kShap};
}

}  // namespace dbtune
