#ifndef DBTUNE_SURROGATE_SURROGATE_FACTORY_H_
#define DBTUNE_SURROGATE_SURROGATE_FACTORY_H_

#include <memory>
#include <type_traits>
#include <utility>

#include "surrogate/gaussian_process.h"

namespace dbtune {

/// The one construction point for optimizer GP surrogates (enforced by
/// the dbtune-lint `gp-construction` rule in src/optimizer/ and
/// src/transfer/): an exact `GaussianProcess` at every history size.
inline std::unique_ptr<GaussianProcess> CreateGpSurrogate(
    std::shared_ptr<const Kernel> kernel, GaussianProcessOptions options = {}) {
  return std::make_unique<GaussianProcess>(std::move(kernel),
                                           std::move(options));
}

/// Same, with the kernel built by a callable (the form bench_e2e's
/// surrogate replay uses).
template <typename MakeKernel,
          typename = std::enable_if_t<std::is_invocable_v<MakeKernel&>>>
std::unique_ptr<GaussianProcess> CreateGpSurrogate(
    MakeKernel make_kernel, GaussianProcessOptions options = {}) {
  return CreateGpSurrogate(std::shared_ptr<const Kernel>(make_kernel()),
                           std::move(options));
}

}  // namespace dbtune

#endif  // DBTUNE_SURROGATE_SURROGATE_FACTORY_H_
