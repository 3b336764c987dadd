#include "linalg/solve.h"

#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "common/rng.h"
#include "linalg/ops.h"

namespace spca::linalg {
namespace {

/// Random SPD matrix A = G'G + n*I.
DenseMatrix RandomSpd(size_t n, Rng* rng) {
  const DenseMatrix g = DenseMatrix::GaussianRandom(n, n, rng);
  DenseMatrix a = TransposeMultiply(g, g);
  a.AddScaledIdentity(static_cast<double>(n));
  return a;
}

TEST(SolveTest, CholeskyFactorReconstructs) {
  Rng rng(10);
  const DenseMatrix a = RandomSpd(6, &rng);
  auto l = CholeskyFactor(a);
  ASSERT_TRUE(l.ok());
  const DenseMatrix reconstructed = MultiplyTranspose(l.value(), l.value());
  EXPECT_LT(reconstructed.MaxAbsDiff(a), 1e-9);
  // L is lower triangular.
  for (size_t i = 0; i < 6; ++i) {
    for (size_t j = i + 1; j < 6; ++j) EXPECT_DOUBLE_EQ(l.value()(i, j), 0.0);
  }
}

TEST(SolveTest, CholeskyRejectsNonSpd) {
  DenseMatrix a(2, 2);
  a(0, 0) = 1.0;
  a(1, 1) = -1.0;
  EXPECT_FALSE(CholeskyFactor(a).ok());
  DenseMatrix rect(2, 3);
  EXPECT_FALSE(CholeskyFactor(rect).ok());
}

TEST(SolveTest, SolveSpdResidual) {
  Rng rng(11);
  const DenseMatrix a = RandomSpd(8, &rng);
  const DenseMatrix b = DenseMatrix::GaussianRandom(8, 3, &rng);
  auto x = SolveSpd(a, b);
  ASSERT_TRUE(x.ok());
  const DenseMatrix residual = Multiply(a, x.value());
  EXPECT_LT(residual.MaxAbsDiff(b), 1e-8);
}

TEST(SolveTest, SolveLuResidual) {
  Rng rng(12);
  const DenseMatrix a = DenseMatrix::GaussianRandom(9, 9, &rng);
  const DenseMatrix b = DenseMatrix::GaussianRandom(9, 4, &rng);
  auto x = SolveLu(a, b);
  ASSERT_TRUE(x.ok());
  const DenseMatrix residual = Multiply(a, x.value());
  EXPECT_LT(residual.MaxAbsDiff(b), 1e-8);
}

TEST(SolveTest, SolveLuRejectsSingular) {
  DenseMatrix a(3, 3);
  a(0, 0) = 1.0;
  a(1, 0) = 2.0;  // rank 1
  a(2, 0) = 3.0;
  const DenseMatrix b = DenseMatrix::Identity(3);
  EXPECT_FALSE(SolveLu(a, b).ok());
}

TEST(SolveTest, InverseTimesOriginalIsIdentity) {
  Rng rng(13);
  const DenseMatrix a = DenseMatrix::GaussianRandom(7, 7, &rng);
  auto inv = Inverse(a);
  ASSERT_TRUE(inv.ok());
  const DenseMatrix eye = Multiply(a, inv.value());
  EXPECT_LT(eye.MaxAbsDiff(DenseMatrix::Identity(7)), 1e-8);
}

TEST(SolveTest, SolveRightMatchesDefinition) {
  Rng rng(14);
  const DenseMatrix a = RandomSpd(5, &rng);
  const DenseMatrix b = DenseMatrix::GaussianRandom(12, 5, &rng);
  auto x = SolveRight(b, a);  // X * A = B
  ASSERT_TRUE(x.ok());
  const DenseMatrix residual = Multiply(x.value(), a);
  EXPECT_LT(residual.MaxAbsDiff(b), 1e-8);
}

TEST(SolveTest, SolveRightShapeChecks) {
  DenseMatrix square(3, 3);
  DenseMatrix wrong(4, 2);
  EXPECT_FALSE(SolveRight(wrong, square).ok());
}

// SolveRight substitutes rows of B against one factorization of A'. It
// must give the bits of the route it replaced, SolveLu(A', B')', for row
// counts on both sides of its four-row interleave.
TEST(SolveTest, SolveRightMatchesTransposedSolveLuBitwise) {
  Rng rng(15);
  // A whose transpose needs row swaps while it is factored.
  DenseMatrix pivoting(6, 6);
  for (size_t i = 0; i < 6; ++i) {
    for (size_t j = 0; j < 6; ++j) pivoting(i, j) = 0.01 * rng.NextGaussian();
    pivoting(i, (i + 1) % 6) = 1.0 + static_cast<double>(i);
  }
  const std::vector<DenseMatrix> as = {
      RandomSpd(5, &rng), DenseMatrix::GaussianRandom(50, 50, &rng), pivoting};
  for (const DenseMatrix& a : as) {
    for (size_t rows : {0, 1, 3, 4, 5, 7, 2001}) {
      const DenseMatrix b = DenseMatrix::GaussianRandom(rows, a.rows(), &rng);
      auto x = SolveRight(b, a);
      auto xt = SolveLu(a.Transpose(), b.Transpose());
      ASSERT_TRUE(x.ok());
      ASSERT_TRUE(xt.ok());
      const DenseMatrix expected = xt.value().Transpose();
      ASSERT_EQ(x.value().rows(), rows);
      ASSERT_EQ(x.value().cols(), a.rows());
      for (size_t r = 0; r < rows; ++r) {
        ASSERT_EQ(std::memcmp(x.value().RowPtr(r), expected.RowPtr(r),
                              a.rows() * sizeof(double)),
                  0)
            << a.rows() << "x" << a.rows() << " A, " << rows << " rows, row "
            << r;
      }
    }
  }
}

TEST(SolveTest, SolveRightRejectsSingular) {
  DenseMatrix a(3, 3);
  a(0, 0) = 1.0;
  a(0, 1) = 2.0;
  a(1, 0) = 2.0;  // row 1 = 2 * row 0
  a(1, 1) = 4.0;
  a(2, 2) = 1.0;
  Rng rng(16);
  auto x = SolveRight(DenseMatrix::GaussianRandom(5, 3, &rng), a);
  ASSERT_FALSE(x.ok());
  EXPECT_EQ(x.status().code(), StatusCode::kFailedPrecondition);
}

class SolveSizeSweep : public ::testing::TestWithParam<int> {};

TEST_P(SolveSizeSweep, SpdAndLuAgree) {
  const size_t n = static_cast<size_t>(GetParam());
  Rng rng(100 + n);
  const DenseMatrix a = RandomSpd(n, &rng);
  const DenseMatrix b = DenseMatrix::GaussianRandom(n, 2, &rng);
  auto x_spd = SolveSpd(a, b);
  auto x_lu = SolveLu(a, b);
  ASSERT_TRUE(x_spd.ok());
  ASSERT_TRUE(x_lu.ok());
  EXPECT_LT(x_spd.value().MaxAbsDiff(x_lu.value()), 1e-7);
}

INSTANTIATE_TEST_SUITE_P(Sizes, SolveSizeSweep,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34));

}  // namespace
}  // namespace spca::linalg
