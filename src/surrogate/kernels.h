#ifndef DBTUNE_SURROGATE_KERNELS_H_
#define DBTUNE_SURROGATE_KERNELS_H_

#include <string>
#include <vector>

namespace dbtune {

/// Covariance function over unit-encoded configurations. Distances are
/// dimension-normalized (mean per-dimension contribution) so the same
/// lengthscale grid works across spaces of different sizes. Kernels are
/// immutable: the lengthscale is the fitting GP's state, passed per call,
/// so one kernel can be shared by both GP tiers.
class Kernel {
 public:
  virtual ~Kernel() = default;

  /// k(a, b) at `lengthscale`; inputs must have equal size.
  virtual double Compute(const std::vector<double>& a,
                         const std::vector<double>& b,
                         double lengthscale) const = 0;

  virtual std::string name() const = 0;
};

/// Squared-exponential kernel (vanilla BO / OtterTune). Assumes a natural
/// ordering of values in every dimension — including categorical ones,
/// which is exactly the weakness the heterogeneity experiment probes.
class RbfKernel final : public Kernel {
 public:
  double Compute(const std::vector<double>& a, const std::vector<double>& b,
                 double lengthscale) const override;
  std::string name() const override { return "RBF"; }
};

/// Matérn-5/2 kernel: the standard choice for continuous hyper-parameter
/// surfaces (less smooth than RBF).
class Matern52Kernel final : public Kernel {
 public:
  double Compute(const std::vector<double>& a, const std::vector<double>& b,
                 double lengthscale) const override;
  std::string name() const override { return "Matern52"; }
};

/// Hamming kernel for categorical dimensions: exp(-h/ls) where h is the
/// fraction of differing entries. Treats categories as unordered symbols.
class HammingKernel final : public Kernel {
 public:
  double Compute(const std::vector<double>& a, const std::vector<double>& b,
                 double lengthscale) const override;
  std::string name() const override { return "Hamming"; }
};

/// The mixed kernel of mixed-kernel BO: Matérn-5/2 over the continuous
/// dimensions times Hamming over the categorical dimensions.
class MixedKernel final : public Kernel {
 public:
  /// `is_categorical[d]` marks dimension d as categorical.
  explicit MixedKernel(std::vector<bool> is_categorical);

  double Compute(const std::vector<double>& a, const std::vector<double>& b,
                 double lengthscale) const override;
  std::string name() const override { return "Mixed"; }

 private:
  std::vector<bool> is_categorical_;
};

}  // namespace dbtune

#endif  // DBTUNE_SURROGATE_KERNELS_H_
