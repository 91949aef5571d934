#ifndef DBTUNE_OPTIMIZER_GP_BO_H_
#define DBTUNE_OPTIMIZER_GP_BO_H_

#include <memory>

#include "optimizer/optimizer.h"
#include "surrogate/surrogate_factory.h"

namespace dbtune {

/// Shared machinery of the GP-based Bayesian optimizers: LHS warm start,
/// GP refit on the (standardized) history each iteration, and Expected
/// Improvement maximized over a random + local candidate pool. Subclasses
/// only choose the kernel; the surrogate itself comes from
/// `CreateGpSurrogate`, so long histories escalate to the sparse tier
/// automatically (see SurrogateTierOptions).
class GpBoOptimizer : public Optimizer {
 public:
  /// `kernel_factory` builds the surrogate's kernel(s); `gp_options`
  /// tunes the exact tier (tests use it to compare the incremental and
  /// full fit paths); `tier_options` sets the escalation policy.
  GpBoOptimizer(const ConfigurationSpace& space, OptimizerOptions options,
                KernelFactory kernel_factory,
                GaussianProcessOptions gp_options = {},
                SurrogateTierOptions tier_options = {});

 protected:
  Configuration DoSuggest() override;
  std::unique_ptr<Regressor> gp_;
};

/// Vanilla BO (iTuned / OtterTune style): GP with an RBF kernel over the
/// scaled encoding, which imposes a natural ordering on categorical knobs.
class VanillaBoOptimizer final : public GpBoOptimizer {
 public:
  VanillaBoOptimizer(const ConfigurationSpace& space,
                     OptimizerOptions options);
  std::string name() const override { return "Vanilla BO"; }
};

}  // namespace dbtune

#endif  // DBTUNE_OPTIMIZER_GP_BO_H_
