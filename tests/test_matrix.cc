#include "util/matrix.h"

#include <cmath>

#include <gtest/gtest.h>

namespace dbtune {
namespace {

TEST(MatrixTest, ConstructAndIndex) {
  Matrix m(2, 3, 1.5);
  EXPECT_EQ(m.rows(), 2u);
  EXPECT_EQ(m.cols(), 3u);
  EXPECT_DOUBLE_EQ(m(1, 2), 1.5);
  m(0, 1) = 7.0;
  EXPECT_DOUBLE_EQ(m(0, 1), 7.0);
}

TEST(MatrixTest, AddDiagonal) {
  Matrix m(2, 2, 1.0);
  m.AddDiagonal(0.5);
  EXPECT_DOUBLE_EQ(m(0, 0), 1.5);
  EXPECT_DOUBLE_EQ(m(0, 1), 1.0);
}

TEST(CholeskyTest, FactorizesSpdMatrix) {
  // A = [[4, 2], [2, 3]] => L = [[2, 0], [1, sqrt(2)]].
  Matrix a(2, 2);
  a(0, 0) = 4;
  a(0, 1) = 2;
  a(1, 0) = 2;
  a(1, 1) = 3;
  ASSERT_TRUE(CholeskyFactorize(&a).ok());
  EXPECT_NEAR(a(0, 0), 2.0, 1e-12);
  EXPECT_NEAR(a(1, 0), 1.0, 1e-12);
  EXPECT_NEAR(a(1, 1), std::sqrt(2.0), 1e-12);
  EXPECT_DOUBLE_EQ(a(0, 1), 0.0);  // upper part zeroed
}

TEST(CholeskyTest, RejectsNonSpd) {
  Matrix a(2, 2);
  a(0, 0) = 1;
  a(0, 1) = 2;
  a(1, 0) = 2;
  a(1, 1) = 1;  // eigenvalues 3 and -1
  EXPECT_FALSE(CholeskyFactorize(&a).ok());
}

TEST(SolveTest, TriangularSolves) {
  Matrix l(2, 2);
  l(0, 0) = 2;
  l(1, 0) = 1;
  l(1, 1) = 3;
  const std::vector<double> b = {4.0, 11.0};
  const std::vector<double> x = SolveLowerTriangular(l, b);
  EXPECT_NEAR(x[0], 2.0, 1e-12);
  EXPECT_NEAR(x[1], 3.0, 1e-12);

  // L^T y = b  =>  [2 1; 0 3] y = [4; 11].
  const std::vector<double> y = SolveUpperTriangularFromLower(l, b);
  EXPECT_NEAR(y[1], 11.0 / 3.0, 1e-12);
  EXPECT_NEAR(y[0], (4.0 - y[1]) / 2.0, 1e-12);
}

TEST(SolveTest, SolveSpdRoundTrip) {
  Matrix a(3, 3, 0.0);
  // SPD via A = M M^T + I with a simple M.
  a(0, 0) = 5;
  a(0, 1) = 1;
  a(0, 2) = 0;
  a(1, 0) = 1;
  a(1, 1) = 4;
  a(1, 2) = 1;
  a(2, 0) = 0;
  a(2, 1) = 1;
  a(2, 2) = 3;
  const std::vector<double> truth = {1.0, -2.0, 0.5};
  const std::vector<double> b = {3.0, -6.5, -0.5};  // A * truth
  Result<std::vector<double>> x = SolveSpd(a, b);
  ASSERT_TRUE(x.ok());
  for (size_t i = 0; i < 3; ++i) EXPECT_NEAR((*x)[i], truth[i], 1e-10);
}

TEST(SolveTest, SolveSpdShapeMismatch) {
  Matrix a(2, 2, 1.0);
  Result<std::vector<double>> x = SolveSpd(a, {1.0, 2.0, 3.0});
  EXPECT_FALSE(x.ok());
  EXPECT_EQ(x.status().code(), StatusCode::kInvalidArgument);
}

TEST(VectorOpsTest, DotAndDistance) {
  EXPECT_DOUBLE_EQ(Dot({1, 2, 3}, {4, 5, 6}), 32.0);
  EXPECT_DOUBLE_EQ(SquaredDistance({0, 0}, {3, 4}), 25.0);
}

}  // namespace
}  // namespace dbtune
