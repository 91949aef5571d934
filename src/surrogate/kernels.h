#ifndef DBTUNE_SURROGATE_KERNELS_H_
#define DBTUNE_SURROGATE_KERNELS_H_

#include <cstddef>
#include <string>
#include <vector>

namespace dbtune {

/// Covariance function over unit-encoded configurations. Distances are
/// dimension-normalized (mean per-dimension contribution) so the same
/// lengthscale grid works across spaces of different sizes. Kernels are
/// immutable: the lengthscale is the fitting GP's state, passed per call,
/// so one kernel can be shared by both GP tiers.
///
/// Block contract (DESIGN.md §8): `ComputeBlock` evaluates one row
/// against up to kMaxBlock queries, and every value is bitwise the pair's
/// `Compute`. Per pair, the per-dimension terms are summed in ascending
/// dimension order, then divided by the dimension count, then the
/// kernel's formula applies; only the loop nest differs, so the sums of
/// different queries advance side by side. `Compute` is the one-query
/// block, so the two share each kernel's formula.
class Kernel {
 public:
  /// Widest query block `ComputeBlock` accepts.
  static constexpr size_t kMaxBlock = 16;

  virtual ~Kernel() = default;

  /// k(a, b) at `lengthscale`; inputs must have equal size.
  double Compute(const std::vector<double>& a, const std::vector<double>& b,
                 double lengthscale) const;

  /// out[r] = k(row, q_r) at `lengthscale` for the `m` (1..kMaxBlock)
  /// queries q_0..q_{m-1}. `row` holds `d` values; the queries are stored
  /// dimension-major: dimension t of query r is queries[t * stride + r]
  /// (stride >= m). Sizes are checked once per call.
  virtual void ComputeBlock(const double* row, const double* queries,
                            size_t stride, size_t m, size_t d,
                            double lengthscale, double* out) const = 0;

  virtual std::string name() const = 0;
};

/// Squared-exponential kernel (vanilla BO / OtterTune). Assumes a natural
/// ordering of values in every dimension — including categorical ones,
/// which is exactly the weakness the heterogeneity experiment probes.
class RbfKernel final : public Kernel {
 public:
  void ComputeBlock(const double* row, const double* queries, size_t stride,
                    size_t m, size_t d, double lengthscale,
                    double* out) const override;
  std::string name() const override { return "RBF"; }
};

/// Matérn-5/2 kernel: the standard choice for continuous hyper-parameter
/// surfaces (less smooth than RBF).
class Matern52Kernel final : public Kernel {
 public:
  void ComputeBlock(const double* row, const double* queries, size_t stride,
                    size_t m, size_t d, double lengthscale,
                    double* out) const override;
  std::string name() const override { return "Matern52"; }
};

/// Hamming kernel for categorical dimensions: exp(-h/ls) where h is the
/// fraction of differing entries. Treats categories as unordered symbols.
class HammingKernel final : public Kernel {
 public:
  void ComputeBlock(const double* row, const double* queries, size_t stride,
                    size_t m, size_t d, double lengthscale,
                    double* out) const override;
  std::string name() const override { return "Hamming"; }
};

/// The mixed kernel of mixed-kernel BO: Matérn-5/2 over the continuous
/// dimensions times Hamming over the categorical dimensions.
class MixedKernel final : public Kernel {
 public:
  /// `is_categorical[d]` marks dimension d as categorical.
  explicit MixedKernel(std::vector<bool> is_categorical);

  void ComputeBlock(const double* row, const double* queries, size_t stride,
                    size_t m, size_t d, double lengthscale,
                    double* out) const override;
  std::string name() const override { return "Mixed"; }

 private:
  std::vector<bool> is_categorical_;
  size_t num_categorical_ = 0;
};

}  // namespace dbtune

#endif  // DBTUNE_SURROGATE_KERNELS_H_
