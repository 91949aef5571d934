// Fixture for the gp-construction rule: optimizer code must obtain GP
// surrogates through surrogate_factory's CreateGpSurrogate (the tiered
// escalation path), never by naming a GP class directly; the same
// content under a non-optimizer path is exempt. Never compiled.

void BuildSurrogates(const Space& space) {
  GaussianProcess gp(MakeKernel());                     // finding: direct ctor
  auto owned = std::make_unique<GaussianProcess>(MakeKernel());  // finding
  SparseGaussianProcess sparse(MakeKernel());           // finding: sparse too
  GaussianProcessOptions options;  // ok: the options struct is fine
  auto tiered = CreateGpSurrogate(MakeKernel(), options);  // ok
  GaussianProcess legacy(MakeKernel());  // dbtune-lint: allow(gp-construction)
}
