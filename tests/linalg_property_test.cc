// Randomized property tests for the linear-algebra substrate: algebraic
// identities that must hold for any input, checked over sweeps of shapes,
// conditioning, and structure.

#include <gtest/gtest.h>

#include <cmath>

#include "common/rng.h"
#include "linalg/eigen_sym.h"
#include "linalg/ops.h"
#include "linalg/qr.h"
#include "linalg/solve.h"
#include "linalg/svd.h"

namespace spca::linalg {
namespace {

DenseMatrix Random(size_t rows, size_t cols, uint64_t seed) {
  Rng rng(seed);
  return DenseMatrix::GaussianRandom(rows, cols, &rng);
}

class MatrixAlgebraSweep : public ::testing::TestWithParam<int> {
 protected:
  uint64_t seed() const { return 9000 + GetParam(); }
};

TEST_P(MatrixAlgebraSweep, TransposeIsInvolution) {
  Rng rng(seed());
  const size_t n = 1 + rng.NextUint64Below(12);
  const size_t m = 1 + rng.NextUint64Below(12);
  const DenseMatrix a = Random(n, m, seed());
  EXPECT_EQ(a.Transpose().Transpose().MaxAbsDiff(a), 0.0);
}

TEST_P(MatrixAlgebraSweep, MultiplicationDistributesOverAddition) {
  Rng rng(seed() + 1);
  const size_t n = 1 + rng.NextUint64Below(8);
  const size_t k = 1 + rng.NextUint64Below(8);
  const size_t m = 1 + rng.NextUint64Below(8);
  const DenseMatrix a = Random(n, k, seed() + 2);
  DenseMatrix b = Random(k, m, seed() + 3);
  const DenseMatrix c = Random(k, m, seed() + 4);
  // A*(B+C) == A*B + A*C.
  DenseMatrix b_plus_c = b;
  b_plus_c.Add(c);
  const DenseMatrix left = Multiply(a, b_plus_c);
  DenseMatrix right = Multiply(a, b);
  right.Add(Multiply(a, c));
  EXPECT_LT(left.MaxAbsDiff(right), 1e-10);
}

TEST_P(MatrixAlgebraSweep, TransposeOfProductReversesFactors) {
  Rng rng(seed() + 5);
  const size_t n = 1 + rng.NextUint64Below(8);
  const size_t k = 1 + rng.NextUint64Below(8);
  const size_t m = 1 + rng.NextUint64Below(8);
  const DenseMatrix a = Random(n, k, seed() + 6);
  const DenseMatrix b = Random(k, m, seed() + 7);
  const DenseMatrix left = Multiply(a, b).Transpose();
  const DenseMatrix right = Multiply(b.Transpose(), a.Transpose());
  EXPECT_LT(left.MaxAbsDiff(right), 1e-10);
}

TEST_P(MatrixAlgebraSweep, TraceOfProductIsCyclic) {
  Rng rng(seed() + 8);
  const size_t n = 1 + rng.NextUint64Below(8);
  const size_t m = 1 + rng.NextUint64Below(8);
  const DenseMatrix a = Random(n, m, seed() + 9);
  const DenseMatrix b = Random(m, n, seed() + 10);
  EXPECT_NEAR(Multiply(a, b).Trace(), Multiply(b, a).Trace(), 1e-9);
}

TEST_P(MatrixAlgebraSweep, FrobeniusNormEqualsSumOfSquaredSingularValues) {
  Rng rng(seed() + 11);
  const size_t n = 2 + rng.NextUint64Below(10);
  const size_t m = 2 + rng.NextUint64Below(10);
  const DenseMatrix a = Random(n, m, seed() + 12);
  auto svd = Svd(a);
  ASSERT_TRUE(svd.ok());
  double sum = 0.0;
  for (size_t i = 0; i < svd.value().singular_values.size(); ++i) {
    sum += svd.value().singular_values[i] * svd.value().singular_values[i];
  }
  EXPECT_NEAR(sum, a.FrobeniusNorm2(), 1e-8 * std::max(1.0, sum));
}

TEST_P(MatrixAlgebraSweep, InverseOfInverseIsIdentityMap) {
  Rng rng(seed() + 13);
  const size_t n = 1 + rng.NextUint64Below(8);
  const DenseMatrix g = Random(n, n, seed() + 14);
  DenseMatrix a = TransposeMultiply(g, g);
  a.AddScaledIdentity(static_cast<double>(n));  // SPD, well-conditioned
  auto inv = Inverse(a);
  ASSERT_TRUE(inv.ok());
  auto inv_inv = Inverse(inv.value());
  ASSERT_TRUE(inv_inv.ok());
  EXPECT_LT(inv_inv.value().MaxAbsDiff(a), 1e-6);
}

TEST_P(MatrixAlgebraSweep, SolveThenMultiplyRoundTrips) {
  Rng rng(seed() + 15);
  const size_t n = 1 + rng.NextUint64Below(10);
  const DenseMatrix g = Random(n, n, seed() + 16);
  DenseMatrix a = TransposeMultiply(g, g);
  a.AddScaledIdentity(static_cast<double>(n));
  const DenseMatrix x_truth = Random(3, n, seed() + 17);
  const DenseMatrix b = Multiply(x_truth, a);
  auto x = SolveRight(b, a);  // X * A = B
  ASSERT_TRUE(x.ok());
  EXPECT_LT(Multiply(x.value(), a).MaxAbsDiff(b), 1e-7);
}

TEST_P(MatrixAlgebraSweep, OrthonormalizationIsIdempotent) {
  Rng rng(seed() + 18);
  const size_t n = 4 + rng.NextUint64Below(12);
  const size_t m = 1 + rng.NextUint64Below(4);
  const DenseMatrix q = OrthonormalizeColumns(Random(n, m, seed() + 19));
  const DenseMatrix q2 = OrthonormalizeColumns(q);
  EXPECT_LT(q2.MaxAbsDiff(q), 1e-9);
}

TEST_P(MatrixAlgebraSweep, EigenvaluesOfSpdArePositiveAndSumToTrace) {
  Rng rng(seed() + 20);
  const size_t n = 2 + rng.NextUint64Below(12);
  const DenseMatrix g = Random(n, n, seed() + 21);
  DenseMatrix a = TransposeMultiply(g, g);
  a.AddScaledIdentity(0.5);
  auto eigen = SymmetricEigen(a);
  ASSERT_TRUE(eigen.ok());
  double sum = 0.0;
  for (size_t i = 0; i < n; ++i) {
    EXPECT_GT(eigen.value().values[i], 0.0);
    sum += eigen.value().values[i];
  }
  EXPECT_NEAR(sum, a.Trace(), 1e-8 * std::max(1.0, std::fabs(sum)));
}

TEST_P(MatrixAlgebraSweep, SingularValuesInvariantUnderTranspose) {
  Rng rng(seed() + 22);
  const size_t n = 2 + rng.NextUint64Below(10);
  const size_t m = 2 + rng.NextUint64Below(10);
  const DenseMatrix a = Random(n, m, seed() + 23);
  auto svd_a = Svd(a);
  auto svd_at = Svd(a.Transpose());
  ASSERT_TRUE(svd_a.ok());
  ASSERT_TRUE(svd_at.ok());
  const size_t k = std::min(n, m);
  for (size_t i = 0; i < k; ++i) {
    EXPECT_NEAR(svd_a.value().singular_values[i],
                svd_at.value().singular_values[i], 1e-9);
  }
}

INSTANTIATE_TEST_SUITE_P(Trials, MatrixAlgebraSweep,
                         ::testing::Range(0, 20));

// ---- Structured / adversarial inputs -------------------------------------

TEST(LinalgStructuredTest, IdentityDecompositions) {
  const DenseMatrix eye = DenseMatrix::Identity(6);
  auto svd = Svd(eye);
  ASSERT_TRUE(svd.ok());
  for (size_t i = 0; i < 6; ++i) {
    EXPECT_NEAR(svd.value().singular_values[i], 1.0, 1e-12);
  }
  auto eigen = SymmetricEigen(eye);
  ASSERT_TRUE(eigen.ok());
  for (size_t i = 0; i < 6; ++i) {
    EXPECT_NEAR(eigen.value().values[i], 1.0, 1e-12);
  }
}

TEST(LinalgStructuredTest, IllConditionedSolveStillAccurate) {
  // The Hilbert matrix: SPD and notoriously ill-conditioned; the residual
  // of its inverse (not the inverse itself) must still be small at n = 6.
  const size_t n = 6;
  DenseMatrix h(n, n);
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = 0; j < n; ++j) {
      h(i, j) = 1.0 / static_cast<double>(i + j + 1);
    }
  }
  auto x = Inverse(h);
  ASSERT_TRUE(x.ok());
  const DenseMatrix residual = Multiply(h, x.value());
  EXPECT_LT(residual.MaxAbsDiff(DenseMatrix::Identity(n)), 1e-6);
}

TEST(LinalgStructuredTest, ZeroMatrixSvd) {
  const DenseMatrix zero(5, 3);
  auto svd = SvdJacobi(zero);
  ASSERT_TRUE(svd.ok());
  for (size_t i = 0; i < 3; ++i) {
    EXPECT_DOUBLE_EQ(svd.value().singular_values[i], 0.0);
  }
}

TEST(LinalgStructuredTest, NegativeDefiniteEigenvalues) {
  Rng rng(77);
  const DenseMatrix g = DenseMatrix::GaussianRandom(5, 5, &rng);
  DenseMatrix a = TransposeMultiply(g, g);
  a.Scale(-1.0);
  auto eigen = SymmetricEigen(a);
  ASSERT_TRUE(eigen.ok());
  for (size_t i = 0; i < 5; ++i) {
    EXPECT_LE(eigen.value().values[i], 1e-9);
  }
  // Sorted descending even when all negative.
  for (size_t i = 0; i + 1 < 5; ++i) {
    EXPECT_GE(eigen.value().values[i], eigen.value().values[i + 1]);
  }
}

TEST(LinalgStructuredTest, CholeskyOnNearSingularSpd) {
  // G'G for a rank-deficient G, plus a tiny ridge: must factor.
  DenseMatrix g(4, 3);
  g(0, 0) = 1;
  g(1, 0) = 1;
  g(2, 0) = 1;
  g(3, 0) = 1;  // columns 1,2 zero -> rank 1
  DenseMatrix a = TransposeMultiply(g, g);
  a.AddScaledIdentity(1e-6);
  EXPECT_TRUE(CholeskyFactor(a).ok());
}

}  // namespace
}  // namespace spca::linalg
