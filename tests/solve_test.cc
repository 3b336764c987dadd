#include "linalg/solve.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <string>

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

TEST(SolveTest, InverseTimesOriginalIsIdentity) {
  Rng rng(13);
  const DenseMatrix a = RandomSpd(7, &rng);
  auto inv = Inverse(a);
  ASSERT_TRUE(inv.ok());
  const DenseMatrix eye = Multiply(a, inv.value());
  EXPECT_LT(eye.MaxAbsDiff(DenseMatrix::Identity(7)), 1e-8);
}

TEST(SolveTest, InverseIsExactlySymmetric) {
  Rng rng(17);
  for (size_t n : {1, 2, 5, 50}) {
    const DenseMatrix a = RandomSpd(n, &rng);
    auto inv = Inverse(a);
    ASSERT_TRUE(inv.ok());
    for (size_t i = 0; i < n; ++i) {
      for (size_t j = 0; j < i; ++j) {
        ASSERT_EQ(std::memcmp(&inv.value()(i, j), &inv.value()(j, i),
                              sizeof(double)),
                  0)
            << n << "x" << n << " (" << i << ", " << j << ")";
      }
    }
  }
}

TEST(SolveTest, InverseRejectsAsymmetric) {
  Rng rng(18);
  DenseMatrix a = RandomSpd(4, &rng);
  a(3, 1) = std::nextafter(a(3, 1), 1e300);  // one ulp off symmetric
  auto inv = Inverse(a);
  ASSERT_FALSE(inv.ok());
  EXPECT_EQ(inv.status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(Inverse(DenseMatrix(2, 3)).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(SolveTest, InverseRejectsNonSpd) {
  DenseMatrix indefinite(2, 2);  // eigenvalues 3 and -1
  indefinite(0, 0) = 1.0;
  indefinite(0, 1) = 2.0;
  indefinite(1, 0) = 2.0;
  indefinite(1, 1) = 1.0;
  auto inv = Inverse(indefinite);
  ASSERT_FALSE(inv.ok());
  EXPECT_EQ(inv.status().code(), StatusCode::kFailedPrecondition);
  EXPECT_EQ(Inverse(DenseMatrix(3, 3)).status().code(),
            StatusCode::kFailedPrecondition);
}

TEST(SolveTest, InverseRejectsNonFinite) {
  Rng rng(19);
  const double bad_values[] = {std::numeric_limits<double>::quiet_NaN(),
                               std::numeric_limits<double>::infinity()};
  for (const double bad : bad_values) {
    DenseMatrix diagonal = RandomSpd(4, &rng);
    diagonal(2, 2) = bad;
    DenseMatrix off_diagonal = RandomSpd(4, &rng);
    off_diagonal(3, 0) = bad;
    off_diagonal(0, 3) = bad;
    for (const DenseMatrix* a : {&diagonal, &off_diagonal}) {
      auto inv = Inverse(*a);
      ASSERT_FALSE(inv.ok()) << bad;
      EXPECT_EQ(inv.status().code(), StatusCode::kFailedPrecondition) << bad;
    }
  }
  // Finite and SPD, but the inverse overflows.
  DenseMatrix tiny = DenseMatrix::Identity(2);
  tiny.Scale(1e-310);
  auto inv = Inverse(tiny);
  ASSERT_FALSE(inv.ok());
  EXPECT_EQ(inv.status().code(), StatusCode::kFailedPrecondition);
}

/// The n x n Hilbert matrix 1 / (i + j + 1): SPD and ill-conditioned.
DenseMatrix Hilbert(size_t n) {
  DenseMatrix h(n, n);
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = 0; j < n; ++j) {
      h(i, j) = 1.0 / static_cast<double>(i + j + 1);
    }
  }
  return h;
}

TEST(SolveTest, CholeskyConditionEstimateIsTheSquaredDiagonalRatio) {
  DenseMatrix l = DenseMatrix::Identity(3);
  l(0, 0) = 4.0;
  l(1, 0) = -7.0;  // off-diagonal entries do not enter the estimate
  l(2, 2) = 0.5;
  EXPECT_EQ(CholeskyConditionEstimate(l), 64.0);
  l(2, 1) = std::numeric_limits<double>::quiet_NaN();
  EXPECT_EQ(CholeskyConditionEstimate(l),
            std::numeric_limits<double>::infinity());
}

TEST(SolveTest, InverseRejectsIllConditioned) {
  // SPD with pivots 1 and 1e-7: estimate 1e14, above the bound.
  DenseMatrix a = DenseMatrix::Identity(2);
  a(1, 1) = 1e-14;
  ASSERT_TRUE(CholeskyFactor(a).ok());
  auto inv = Inverse(a);
  ASSERT_FALSE(inv.ok());
  EXPECT_EQ(inv.status().code(), StatusCode::kFailedPrecondition);
  EXPECT_NE(inv.status().message().find("ill-conditioned"), std::string::npos)
      << inv.status().message();
  // Pivot 1e-5 (estimate 1e10) is still inverted.
  a(1, 1) = 1e-10;
  EXPECT_TRUE(Inverse(a).ok());
  // So is the n = 6 Hilbert matrix, whose estimate is 7e5.
  EXPECT_TRUE(Inverse(Hilbert(6)).ok());
}

// Why kInverseConditionBound is 1e12. C'C of an exactly rank-1 2 x 2
// loading matrix C = [a, 2a + 1]' * [1, k] is singular, but its last
// Cholesky pivot often rounds positive instead of to zero; that pivot is
// rounding noise, and an inverse built on it serves noise coordinates. On
// this 48-model grid every such factor has an estimate of at least 7e13
// on both kernel tiers, while the Hilbert matrices up to n = 6, the worst
// conditioned inputs the suite inverts, stay below 1e6: the bound sits
// well clear of either side.
TEST(SolveTest, ConditionBoundSeparatesRankDeficientFromIllConditioned) {
  size_t factored = 0;
  for (const double a : {0.1, 0.2, 0.3, 0.7, 1.0, 1.5, 3.0, 10.0}) {
    for (const double k : {0.1, 0.25, 1.0 / 3.0, 0.5, 3.0, 7.0}) {
      DenseMatrix c(2, 2);
      c(0, 0) = a;
      c(1, 0) = 2.0 * a + 1.0;
      c(0, 1) = a * k;
      c(1, 1) = (2.0 * a + 1.0) * k;
      const DenseMatrix gram = TransposeMultiply(c, c);
      EXPECT_FALSE(Inverse(gram).ok()) << "a = " << a << ", k = " << k;
      auto l = CholeskyFactor(gram);
      if (!l.ok()) continue;
      ++factored;
      EXPECT_GT(CholeskyConditionEstimate(l.value()),
                50.0 * kInverseConditionBound)
          << "a = " << a << ", k = " << k;
    }
  }
  // The grid does exercise positive last pivots.
  EXPECT_GT(factored, 10u);
  for (size_t n = 1; n <= 6; ++n) {
    auto l = CholeskyFactor(Hilbert(n));
    ASSERT_TRUE(l.ok()) << n;
    EXPECT_LT(CholeskyConditionEstimate(l.value()), 1e6) << n;
  }
}

// ssvd's Q = Y * R^-1 takes R^-1 from UpperTriangularInverse; R is the
// transposed Cholesky factor of its Gram matrix.
TEST(SolveTest, UpperTriangularInverseResidual) {
  Rng rng(20);
  for (size_t n : {1, 3, 8, 40}) {
    const DenseMatrix r =
        CholeskyFactor(RandomSpd(n, &rng)).value().Transpose();
    auto inv = UpperTriangularInverse(r);
    ASSERT_TRUE(inv.ok());
    EXPECT_LT(Multiply(r, inv.value()).MaxAbsDiff(DenseMatrix::Identity(n)),
              1e-10)
        << n;
    for (size_t i = 0; i < n; ++i) {
      for (size_t j = 0; j < i; ++j) EXPECT_EQ(inv.value()(i, j), 0.0);
    }
  }
  DenseMatrix singular = DenseMatrix::Identity(3);
  singular(1, 1) = 0.0;
  auto inv = UpperTriangularInverse(singular);
  ASSERT_FALSE(inv.ok());
  EXPECT_EQ(inv.status().code(), StatusCode::kFailedPrecondition);
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

// SolveRight(B, A) is Multiply(B, Inverse(A)) bit for bit, so the
// M-step's C' = YtX / A runs on the RowGemm kernel.
TEST(SolveTest, SolveRightIsMultiplyByInverseBitwise) {
  Rng rng(15);
  for (size_t n : {1, 5, 50}) {
    const DenseMatrix a = RandomSpd(n, &rng);
    const DenseMatrix inverse = Inverse(a).value();
    for (size_t rows : {0, 1, 3, 4, 5, 7, 2001}) {
      const DenseMatrix b = DenseMatrix::GaussianRandom(rows, n, &rng);
      auto x = SolveRight(b, a);
      ASSERT_TRUE(x.ok());
      const DenseMatrix expected = Multiply(b, inverse);
      ASSERT_EQ(x.value().rows(), rows);
      ASSERT_EQ(x.value().cols(), n);
      for (size_t r = 0; r < rows; ++r) {
        ASSERT_EQ(std::memcmp(x.value().RowPtr(r), expected.RowPtr(r),
                              n * sizeof(double)),
                  0)
            << n << "x" << n << " A, " << rows << " rows, row " << r;
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

TEST_P(SolveSizeSweep, SolveRightResidual) {
  const size_t n = static_cast<size_t>(GetParam());
  Rng rng(100 + n);
  const DenseMatrix a = RandomSpd(n, &rng);
  const DenseMatrix b = DenseMatrix::GaussianRandom(2, n, &rng);
  auto x = SolveRight(b, a);
  ASSERT_TRUE(x.ok());
  EXPECT_LT(Multiply(x.value(), a).MaxAbsDiff(b), 1e-7);
}

INSTANTIATE_TEST_SUITE_P(Sizes, SolveSizeSweep,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34));

}  // namespace
}  // namespace spca::linalg
