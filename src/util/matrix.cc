#include "util/matrix.h"

#include <cmath>

namespace dbtune {

void Matrix::AddDiagonal(double value) {
  DBTUNE_CHECK(rows_ == cols_);
  for (size_t i = 0; i < rows_; ++i) (*this)(i, i) += value;
}

Status CholeskyFactorize(Matrix* a) {
  DBTUNE_CHECK(a != nullptr);
  DBTUNE_CHECK(a->rows() == a->cols());
  const size_t n = a->rows();
  Matrix& m = *a;
  // Row-oriented (Cholesky–Crout) update: both dot products below stream
  // two contiguous row prefixes, so the factorization touches memory
  // strictly row-by-row instead of striding down columns.
  for (size_t j = 0; j < n; ++j) {
    const double* row_j = m.RowPtr(j);
    double d = row_j[j];
    for (size_t k = 0; k < j; ++k) d -= row_j[k] * row_j[k];
    if (d <= 0.0 || !std::isfinite(d)) {
      return Status::Internal("matrix is not positive definite");
    }
    const double ljj = std::sqrt(d);
    m(j, j) = ljj;
    for (size_t i = j + 1; i < n; ++i) {
      double* row_i = m.RowPtr(i);
      double s = row_i[j];
      for (size_t k = 0; k < j; ++k) s -= row_i[k] * row_j[k];
      row_i[j] = s / ljj;
    }
    double* row_j_mut = m.RowPtr(j);
    for (size_t c = j + 1; c < n; ++c) row_j_mut[c] = 0.0;
  }
  return Status::OK();
}

std::vector<double> SolveLowerTriangular(const Matrix& l,
                                         const std::vector<double>& b) {
  std::vector<double> x;
  SolveLowerTriangularInto(l, b, &x);
  return x;
}

void SolveLowerTriangularInto(const Matrix& l, const std::vector<double>& b,
                              std::vector<double>* x) {
  DBTUNE_CHECK(x != nullptr && x != &b);
  DBTUNE_CHECK(l.rows() == l.cols() && l.rows() == b.size());
  const size_t n = b.size();
  x->resize(n);
  std::vector<double>& out = *x;
  for (size_t i = 0; i < n; ++i) {
    double s = b[i];
    const double* row = l.RowPtr(i);
    for (size_t k = 0; k < i; ++k) s -= row[k] * out[k];
    out[i] = s / row[i];
  }
}

std::vector<double> SolveUpperTriangularFromLower(
    const Matrix& l, const std::vector<double>& b) {
  DBTUNE_CHECK(l.rows() == l.cols() && l.rows() == b.size());
  const size_t n = b.size();
  std::vector<double> x(n, 0.0);
  for (size_t ii = n; ii > 0; --ii) {
    const size_t i = ii - 1;
    double s = b[i];
    for (size_t k = i + 1; k < n; ++k) s -= l(k, i) * x[k];
    x[i] = s / l(i, i);
  }
  return x;
}

Result<std::vector<double>> SolveSpd(const Matrix& a,
                                     const std::vector<double>& b) {
  if (a.rows() != a.cols() || a.rows() != b.size()) {
    return Status::InvalidArgument("SolveSpd: shape mismatch");
  }
  Matrix l = a;
  DBTUNE_RETURN_IF_ERROR(CholeskyFactorize(&l));
  std::vector<double> y = SolveLowerTriangular(l, b);
  return SolveUpperTriangularFromLower(l, y);
}

double Dot(const std::vector<double>& a, const std::vector<double>& b) {
  DBTUNE_CHECK(a.size() == b.size());
  double s = 0.0;
  for (size_t i = 0; i < a.size(); ++i) s += a[i] * b[i];
  return s;
}

double SquaredDistance(const std::vector<double>& a,
                       const std::vector<double>& b) {
  DBTUNE_CHECK(a.size() == b.size());
  double s = 0.0;
  for (size_t i = 0; i < a.size(); ++i) {
    const double d = a[i] - b[i];
    s += d * d;
  }
  return s;
}

}  // namespace dbtune
