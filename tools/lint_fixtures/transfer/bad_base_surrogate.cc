// Fixture for the predict-in-loop and gp-construction rules under
// src/transfer: transfer frameworks score candidate pools and build base
// surrogates like optimizers do, so the same two rules apply. Never
// compiled.

std::unique_ptr<Regressor> MakeBase(const Space& space) {
  GaussianProcessOptions options;  // ok: the options struct is fine
  auto direct = std::make_unique<GaussianProcess>(MakeKernel());  // finding
  return CreateGpSurrogate(MakeKernel(), options);  // ok: the factory
}

void ScoreTasks(const Models& models, const Candidates& candidates) {
  double mean = 0.0;
  double var = 0.0;
  for (const auto& model : models) {
    model->PredictMeanVar(candidates[0], &mean, &var);  // finding
    Means means;
    Vars vars;
    model->PredictMeanVarBatch(candidates, &means, &vars);  // ok: batched
  }
}
