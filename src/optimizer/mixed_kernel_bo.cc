#include "optimizer/mixed_kernel_bo.h"

namespace dbtune {

namespace {
std::vector<bool> CategoricalMask(const ConfigurationSpace& space) {
  std::vector<bool> mask(space.dimension(), false);
  for (size_t i = 0; i < space.dimension(); ++i) {
    mask[i] = space.knob(i).is_categorical();
  }
  return mask;
}
}  // namespace

MixedKernelBoOptimizer::MixedKernelBoOptimizer(const ConfigurationSpace& space,
                                               OptimizerOptions options)
    : GpBoOptimizer(space, options,
                    std::make_unique<MixedKernel>(CategoricalMask(space))) {}

}  // namespace dbtune
