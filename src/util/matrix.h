#ifndef DBTUNE_UTIL_MATRIX_H_
#define DBTUNE_UTIL_MATRIX_H_

#include <cstddef>
#include <vector>

#include "util/logging.h"
#include "util/status.h"

namespace dbtune {

/// Dense row-major matrix of doubles. Sized for the library's needs:
/// Gaussian-process kernels and ridge normal equations with a few hundred
/// rows, factored and solved in place without reaching for a full BLAS.
class Matrix {
 public:
  Matrix() : rows_(0), cols_(0) {}
  /// Creates a rows x cols matrix filled with `fill`.
  Matrix(size_t rows, size_t cols, double fill = 0.0)
      : rows_(rows), cols_(cols), data_(rows * cols, fill) {}

  size_t rows() const { return rows_; }
  size_t cols() const { return cols_; }

  double& operator()(size_t r, size_t c) {
    DBTUNE_CHECK(r < rows_ && c < cols_);
    return data_[r * cols_ + c];
  }
  double operator()(size_t r, size_t c) const {
    DBTUNE_CHECK(r < rows_ && c < cols_);
    return data_[r * cols_ + c];
  }

  /// Raw storage, row-major.
  const std::vector<double>& data() const { return data_; }

  /// Contiguous row `r` (no per-element bounds checks; hot loops only).
  double* RowPtr(size_t r) {
    DBTUNE_CHECK(r < rows_);
    return data_.data() + r * cols_;
  }
  const double* RowPtr(size_t r) const {
    DBTUNE_CHECK(r < rows_);
    return data_.data() + r * cols_;
  }

  /// Adds `value` to every diagonal entry (requires square).
  void AddDiagonal(double value);

 private:
  size_t rows_;
  size_t cols_;
  std::vector<double> data_;
};

/// In-place Cholesky factorization of a symmetric positive-definite matrix.
/// On success `*a` holds the lower-triangular factor L (upper part zeroed).
/// Fails with Internal status when the matrix is not positive definite.
[[nodiscard]] Status CholeskyFactorize(Matrix* a);

/// Solves L * x = b for lower-triangular L (forward substitution).
std::vector<double> SolveLowerTriangular(const Matrix& l,
                                         const std::vector<double>& b);

/// As `SolveLowerTriangular`, writing into caller-owned storage (resized
/// to `b.size()`); `x` must not alias `b`. Identical arithmetic order, so
/// results are bitwise equal to the allocating variant.
void SolveLowerTriangularInto(const Matrix& l, const std::vector<double>& b,
                              std::vector<double>* x);

/// Solves L^T * x = b for lower-triangular L (back substitution).
std::vector<double> SolveUpperTriangularFromLower(const Matrix& l,
                                                  const std::vector<double>& b);

/// Solves (A) x = b via Cholesky, where A is symmetric positive definite.
/// Returns InvalidArgument on shape mismatch, Internal when not SPD.
[[nodiscard]] Result<std::vector<double>> SolveSpd(const Matrix& a,
                                     const std::vector<double>& b);

/// Dot product; requires equal sizes.
double Dot(const std::vector<double>& a, const std::vector<double>& b);

/// Squared Euclidean distance between two equally sized vectors.
double SquaredDistance(const std::vector<double>& a,
                       const std::vector<double>& b);

}  // namespace dbtune

#endif  // DBTUNE_UTIL_MATRIX_H_
