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
/// `CreateGpSurrogate`.
class GpBoOptimizer : public Optimizer {
 public:
  /// `gp_options` tunes the fit (tests use it to compare the incremental
  /// and full fit paths).
  GpBoOptimizer(const ConfigurationSpace& space, OptimizerOptions options,
                std::shared_ptr<const Kernel> kernel,
                GaussianProcessOptions gp_options = {});

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

/// Mixed-kernel BO: GP with Matérn-5/2 over continuous knobs times a
/// Hamming kernel over categorical knobs, which models heterogeneous
/// spaces without assuming category ordering.
class MixedKernelBoOptimizer final : public GpBoOptimizer {
 public:
  MixedKernelBoOptimizer(const ConfigurationSpace& space,
                         OptimizerOptions options);
  std::string name() const override { return "Mixed-Kernel BO"; }
};

}  // namespace dbtune

#endif  // DBTUNE_OPTIMIZER_GP_BO_H_
