// Fixture for the gp-construction rule: optimizer code must obtain GP
// surrogates through surrogate_factory's CreateGpSurrogate (the one
// construction point), never by naming the GP class directly; the same
// content under a non-optimizer path is exempt. Never compiled.

void BuildSurrogates(const Space& space) {
  GaussianProcess gp(MakeKernel());                     // finding: direct ctor
  auto owned = std::make_unique<GaussianProcess>(MakeKernel());  // finding
  GaussianProcessOptions options;  // ok: the options struct is fine
  auto gp_owned = CreateGpSurrogate(MakeKernel(), options);  // ok
  GaussianProcess legacy(MakeKernel());  // dbtune-lint: allow(gp-construction)
}
