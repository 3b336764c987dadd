#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <string>
#include <vector>

#include "common/rng.h"
#include "linalg/eigen_sym.h"
#include "linalg/lanczos.h"
#include "linalg/ops.h"
#include "linalg/qr.h"
#include "linalg/svd.h"

namespace spca::linalg {
namespace {

bool IsOrthonormalColumns(const DenseMatrix& q, double tol) {
  const DenseMatrix gram = TransposeMultiply(q, q);
  return gram.MaxAbsDiff(DenseMatrix::Identity(q.cols())) <= tol;
}

// ---- Symmetric eigendecomposition -------------------------------------

TEST(EigenSymTest, DiagonalMatrix) {
  DenseMatrix a(3, 3);
  a(0, 0) = 1.0;
  a(1, 1) = 5.0;
  a(2, 2) = 3.0;
  auto result = SymmetricEigen(a);
  ASSERT_TRUE(result.ok());
  EXPECT_NEAR(result.value().values[0], 5.0, 1e-12);
  EXPECT_NEAR(result.value().values[1], 3.0, 1e-12);
  EXPECT_NEAR(result.value().values[2], 1.0, 1e-12);
}

TEST(EigenSymTest, ReconstructsMatrix) {
  Rng rng(20);
  const DenseMatrix g = DenseMatrix::GaussianRandom(6, 6, &rng);
  DenseMatrix a = TransposeMultiply(g, g);  // symmetric PSD
  auto result = SymmetricEigen(a);
  ASSERT_TRUE(result.ok());
  const auto& v = result.value().vectors;
  EXPECT_TRUE(IsOrthonormalColumns(v, 1e-9));
  // A == V * diag(values) * V'.
  DenseMatrix scaled = v;
  for (size_t j = 0; j < 6; ++j) {
    for (size_t i = 0; i < 6; ++i) scaled(i, j) *= result.value().values[j];
  }
  const DenseMatrix reconstructed = MultiplyTranspose(scaled, v);
  EXPECT_LT(reconstructed.MaxAbsDiff(a), 1e-8);
}

TEST(EigenSymTest, EigenPairsSatisfyDefinition) {
  Rng rng(21);
  const DenseMatrix g = DenseMatrix::GaussianRandom(5, 5, &rng);
  DenseMatrix a = TransposeMultiply(g, g);
  auto result = SymmetricEigen(a);
  ASSERT_TRUE(result.ok());
  for (size_t j = 0; j < 5; ++j) {
    const DenseVector v = result.value().vectors.ColVector(j);
    const DenseVector av = MultiplyVector(a, v);
    for (size_t i = 0; i < 5; ++i) {
      EXPECT_NEAR(av[i], result.value().values[j] * v[i], 1e-8);
    }
  }
}

TEST(EigenSymTest, RejectsNonSquare) {
  DenseMatrix rect(3, 4);
  EXPECT_FALSE(SymmetricEigen(rect).ok());
  EXPECT_FALSE(SymmetricEigenJacobi(rect).ok());
  EXPECT_FALSE(SymmetricEigenTridiagonal(rect).ok());
}

class EigenImplementationSweep : public ::testing::TestWithParam<int> {};

TEST_P(EigenImplementationSweep, JacobiAndTridiagonalAgree) {
  const size_t n = static_cast<size_t>(GetParam());
  Rng rng(500 + n);
  const DenseMatrix g = DenseMatrix::GaussianRandom(n, n, &rng);
  DenseMatrix a = TransposeMultiply(g, g);
  a.AddScaledIdentity(0.1);
  auto jacobi = SymmetricEigenJacobi(a);
  auto tridiagonal = SymmetricEigenTridiagonal(a);
  ASSERT_TRUE(jacobi.ok());
  ASSERT_TRUE(tridiagonal.ok());
  for (size_t i = 0; i < n; ++i) {
    EXPECT_NEAR(jacobi.value().values[i], tridiagonal.value().values[i],
                1e-8 * std::max(1.0, jacobi.value().values[0]));
  }
  // Eigenvectors are orthonormal and satisfy A v = lambda v.
  EXPECT_TRUE(IsOrthonormalColumns(tridiagonal.value().vectors, 1e-8));
  for (size_t j = 0; j < n; ++j) {
    const DenseVector v = tridiagonal.value().vectors.ColVector(j);
    const DenseVector av = MultiplyVector(a, v);
    for (size_t i = 0; i < n; ++i) {
      EXPECT_NEAR(av[i], tridiagonal.value().values[j] * v[i],
                  1e-7 * std::max(1.0, jacobi.value().values[0]));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, EigenImplementationSweep,
                         ::testing::Values(1, 2, 3, 4, 8, 17, 33, 64, 100));

TEST(EigenSymTest, TridiagonalHandlesRepeatedEigenvalues) {
  // 2*I plus a rank-1 bump: eigenvalues {2+n, 2, 2, ..., 2}.
  const size_t n = 60;
  DenseMatrix a(n, n);
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = 0; j < n; ++j) a(i, j) = 1.0;
    a(i, i) += 2.0;
  }
  auto result = SymmetricEigenTridiagonal(a);
  ASSERT_TRUE(result.ok());
  EXPECT_NEAR(result.value().values[0], 2.0 + n, 1e-8);
  for (size_t i = 1; i < n; ++i) {
    EXPECT_NEAR(result.value().values[i], 2.0, 1e-8);
  }
  EXPECT_TRUE(IsOrthonormalColumns(result.value().vectors, 1e-8));
}

// ---- QR -----------------------------------------------------------------

TEST(QrTest, OrthonormalizeColumnsProperty) {
  Rng rng(23);
  const DenseMatrix a = DenseMatrix::GaussianRandom(12, 5, &rng);
  const DenseMatrix q = OrthonormalizeColumns(a);
  EXPECT_TRUE(IsOrthonormalColumns(q, 1e-10));
}

TEST(QrTest, OrthonormalizeHandlesRankDeficiency) {
  DenseMatrix a(4, 3);
  for (size_t i = 0; i < 4; ++i) {
    a(i, 0) = 1.0;
    a(i, 1) = 2.0;  // parallel to column 0
    a(i, 2) = static_cast<double>(i);
  }
  const DenseMatrix q = OrthonormalizeColumns(a);
  // Column 1 collapses to zero; columns 0 and 2 are orthonormal.
  double col1_norm = 0;
  for (size_t i = 0; i < 4; ++i) col1_norm += q(i, 1) * q(i, 1);
  EXPECT_NEAR(col1_norm, 0.0, 1e-12);
}

// Two-pass modified Gram–Schmidt down the columns of a row-major matrix:
// the column-strided loops OrthonormalizeColumns runs on contiguous rows,
// with the same relative rank test.
DenseMatrix ColumnStridedMgs2(const DenseMatrix& a) {
  const size_t n = a.rows();
  const size_t m = a.cols();
  DenseMatrix q = a;
  for (size_t j = 0; j < m; ++j) {
    double before = 0.0;
    for (size_t i = 0; i < n; ++i) before += q(i, j) * q(i, j);
    for (int pass = 0; pass < 2; ++pass) {
      for (size_t k = 0; k < j; ++k) {
        double dot = 0.0;
        for (size_t i = 0; i < n; ++i) dot += q(i, k) * q(i, j);
        for (size_t i = 0; i < n; ++i) q(i, j) -= dot * q(i, k);
      }
    }
    double norm = 0.0;
    for (size_t i = 0; i < n; ++i) norm += q(i, j) * q(i, j);
    norm = std::sqrt(norm);
    if (norm <= kRankTolerance * std::sqrt(before)) {
      for (size_t i = 0; i < n; ++i) q(i, j) = 0.0;
    } else {
      for (size_t i = 0; i < n; ++i) q(i, j) /= norm;
    }
  }
  return q;
}

void ExpectSameBits(const DenseMatrix& actual, const DenseMatrix& expected,
                    const std::string& context) {
  ASSERT_EQ(actual.rows(), expected.rows()) << context;
  ASSERT_EQ(actual.cols(), expected.cols()) << context;
  for (size_t i = 0; i < actual.rows(); ++i) {
    ASSERT_EQ(std::memcmp(actual.RowPtr(i), expected.RowPtr(i),
                          actual.cols() * sizeof(double)),
              0)
        << context << " row " << i;
  }
}

TEST(QrTest, OrthonormalizeColumnsMatchesColumnStridedMgs2Bitwise) {
  Rng rng(41);
  struct Case {
    const char* name;
    DenseMatrix a;
  };
  std::vector<Case> cases;
  cases.push_back(
      {"random 2000x50", DenseMatrix::GaussianRandom(2000, 50, &rng)});
  cases.push_back({"random 7x3", DenseMatrix::GaussianRandom(7, 3, &rng)});
  DenseMatrix duplicate = DenseMatrix::GaussianRandom(60, 5, &rng);
  for (size_t i = 0; i < 60; ++i) duplicate(i, 3) = -3.0 * duplicate(i, 1);
  cases.push_back({"duplicate column", duplicate});
  DenseMatrix zero_column = DenseMatrix::GaussianRandom(40, 4, &rng);
  for (size_t i = 0; i < 40; ++i) zero_column(i, 0) = 0.0;
  cases.push_back({"zero column", zero_column});
  cases.push_back({"wider than tall", DenseMatrix::GaussianRandom(4, 9, &rng)});
  cases.push_back({"empty", DenseMatrix(0, 3)});
  for (const Case& c : cases) {
    ExpectSameBits(OrthonormalizeColumns(c.a), ColumnStridedMgs2(c.a), c.name);
  }
}

// The rank test compares each residual with the column's own norm, so a
// duplicate column is dropped at every scale and genuine columns survive.
TEST(QrTest, OrthonormalizeRankTestIsScaleFree) {
  Rng rng(42);
  const DenseMatrix base = DenseMatrix::GaussianRandom(200, 3, &rng);
  for (double scale : {1e-14, 1.0, 1e6, 1e9}) {
    DenseMatrix a = base;
    for (size_t i = 0; i < 200; ++i) {
      a(i, 0) *= scale;
      a(i, 1) = 2.0 * a(i, 0);
      a(i, 2) *= scale;
    }
    const DenseMatrix q = OrthonormalizeColumns(a);
    for (size_t i = 0; i < 200; ++i) {
      ASSERT_EQ(q(i, 1), 0.0) << "scale " << scale << " row " << i;
    }
    double n0 = 0.0, n2 = 0.0, cross = 0.0;
    for (size_t i = 0; i < 200; ++i) {
      n0 += q(i, 0) * q(i, 0);
      n2 += q(i, 2) * q(i, 2);
      cross += q(i, 0) * q(i, 2);
    }
    EXPECT_NEAR(n0, 1.0, 1e-12) << "scale " << scale;
    EXPECT_NEAR(n2, 1.0, 1e-12) << "scale " << scale;
    EXPECT_NEAR(cross, 0.0, 1e-12) << "scale " << scale;
  }
}

// ---- SVD ----------------------------------------------------------------

TEST(SvdTest, JacobiReconstructsTall) {
  Rng rng(24);
  const DenseMatrix a = DenseMatrix::GaussianRandom(9, 4, &rng);
  auto svd = SvdJacobi(a);
  ASSERT_TRUE(svd.ok());
  EXPECT_TRUE(IsOrthonormalColumns(svd.value().u, 1e-9));
  EXPECT_TRUE(IsOrthonormalColumns(svd.value().v, 1e-9));
  // Descending singular values.
  for (size_t i = 0; i + 1 < 4; ++i) {
    EXPECT_GE(svd.value().singular_values[i],
              svd.value().singular_values[i + 1]);
  }
  // U * S * V' == A.
  DenseMatrix us = svd.value().u;
  for (size_t j = 0; j < 4; ++j) {
    for (size_t i = 0; i < 9; ++i) us(i, j) *= svd.value().singular_values[j];
  }
  const DenseMatrix reconstructed = MultiplyTranspose(us, svd.value().v);
  EXPECT_LT(reconstructed.MaxAbsDiff(a), 1e-9);
}

TEST(SvdTest, WideMatrixViaTranspose) {
  Rng rng(25);
  const DenseMatrix a = DenseMatrix::GaussianRandom(3, 8, &rng);
  auto svd = Svd(a);
  ASSERT_TRUE(svd.ok());
  DenseMatrix us = svd.value().u;
  for (size_t j = 0; j < us.cols(); ++j) {
    for (size_t i = 0; i < us.rows(); ++i) {
      us(i, j) *= svd.value().singular_values[j];
    }
  }
  const DenseMatrix reconstructed = MultiplyTranspose(us, svd.value().v);
  EXPECT_LT(reconstructed.MaxAbsDiff(a), 1e-9);
}

TEST(SvdTest, SingularValuesMatchEigenOfGram) {
  Rng rng(26);
  const DenseMatrix a = DenseMatrix::GaussianRandom(10, 5, &rng);
  auto svd = SvdJacobi(a);
  ASSERT_TRUE(svd.ok());
  auto eigen = SymmetricEigen(TransposeMultiply(a, a));
  ASSERT_TRUE(eigen.ok());
  for (size_t i = 0; i < 5; ++i) {
    EXPECT_NEAR(svd.value().singular_values[i] * svd.value().singular_values[i],
                eigen.value().values[i], 1e-8);
  }
}

TEST(SvdTest, WideViaGramMatchesJacobi) {
  Rng rng(27);
  const DenseMatrix a = DenseMatrix::GaussianRandom(4, 20, &rng);
  auto gram_svd = SvdWideViaGram(a);
  auto jacobi_svd = Svd(a);
  ASSERT_TRUE(gram_svd.ok());
  ASSERT_TRUE(jacobi_svd.ok());
  for (size_t i = 0; i < 4; ++i) {
    EXPECT_NEAR(gram_svd.value().singular_values[i],
                jacobi_svd.value().singular_values[i], 1e-7);
  }
  // Right singular vectors have orthonormal (nonzero) columns.
  EXPECT_TRUE(IsOrthonormalColumns(gram_svd.value().v, 1e-7));
}

TEST(SvdTest, RankDeficientInput) {
  // Rank-1 matrix: one nonzero singular value.
  DenseMatrix a(5, 3);
  for (size_t i = 0; i < 5; ++i) {
    for (size_t j = 0; j < 3; ++j) {
      a(i, j) = static_cast<double>(i + 1) * static_cast<double>(j + 1);
    }
  }
  auto svd = SvdJacobi(a);
  ASSERT_TRUE(svd.ok());
  EXPECT_GT(svd.value().singular_values[0], 1.0);
  EXPECT_NEAR(svd.value().singular_values[1], 0.0, 1e-9);
  EXPECT_NEAR(svd.value().singular_values[2], 0.0, 1e-9);
}

// ---- Bidiagonalization ----------------------------------------------------

TEST(BidiagonalizeTest, ReconstructsMatrix) {
  Rng rng(28);
  const DenseMatrix a = DenseMatrix::GaussianRandom(8, 5, &rng);
  auto bidiag = Bidiagonalize(a);
  ASSERT_TRUE(bidiag.ok());
  EXPECT_TRUE(IsOrthonormalColumns(bidiag.value().u, 1e-9));
  EXPECT_TRUE(IsOrthonormalColumns(bidiag.value().v, 1e-9));
  const DenseMatrix b =
      BidiagonalToDense(bidiag.value().diag, bidiag.value().superdiag);
  // A == U * B * V'.
  const DenseMatrix ub = Multiply(bidiag.value().u, b);
  const DenseMatrix reconstructed = MultiplyTranspose(ub, bidiag.value().v);
  EXPECT_LT(reconstructed.MaxAbsDiff(a), 1e-9);
}

TEST(BidiagonalizeTest, PreservesSingularValues) {
  Rng rng(29);
  const DenseMatrix a = DenseMatrix::GaussianRandom(7, 4, &rng);
  auto bidiag = Bidiagonalize(a);
  ASSERT_TRUE(bidiag.ok());
  const DenseMatrix b =
      BidiagonalToDense(bidiag.value().diag, bidiag.value().superdiag);
  auto svd_a = SvdJacobi(a);
  auto svd_b = SvdJacobi(b);
  ASSERT_TRUE(svd_a.ok());
  ASSERT_TRUE(svd_b.ok());
  for (size_t i = 0; i < 4; ++i) {
    EXPECT_NEAR(svd_a.value().singular_values[i],
                svd_b.value().singular_values[i], 1e-9);
  }
}

// ---- Lanczos ----------------------------------------------------------------

/// Dense-matrix operator for testing.
class DenseOperator : public LinearOperator {
 public:
  explicit DenseOperator(DenseMatrix a) : a_(std::move(a)) {}
  size_t rows() const override { return a_.rows(); }
  size_t cols() const override { return a_.cols(); }
  DenseVector Apply(const DenseVector& x) const override {
    return MultiplyVector(a_, x);
  }
  DenseVector ApplyTranspose(const DenseVector& x) const override {
    return TransposeMultiplyVector(a_, x);
  }

 private:
  DenseMatrix a_;
};

TEST(LanczosTest, TopSingularTripletsMatchExactSvd) {
  Rng rng(30);
  const DenseMatrix a = DenseMatrix::GaussianRandom(30, 12, &rng);
  DenseOperator op(a);
  auto lanczos = LanczosSvd(op, 3, 12, /*seed=*/5);
  auto exact = SvdJacobi(a);
  ASSERT_TRUE(lanczos.ok());
  ASSERT_TRUE(exact.ok());
  for (size_t i = 0; i < 3; ++i) {
    EXPECT_NEAR(lanczos.value().singular_values[i],
                exact.value().singular_values[i], 1e-6);
  }
  // Leading right singular vector matches up to sign.
  double dot = 0.0;
  for (size_t i = 0; i < 12; ++i) {
    dot += lanczos.value().v(i, 0) * exact.value().v(i, 0);
  }
  EXPECT_NEAR(std::fabs(dot), 1.0, 1e-6);
}

TEST(LanczosTest, InvalidArguments) {
  Rng rng(31);
  DenseOperator op(DenseMatrix::GaussianRandom(10, 6, &rng));
  EXPECT_FALSE(LanczosSvd(op, 0, 5, 1).ok());
  EXPECT_FALSE(LanczosSvd(op, 7, 10, 1).ok());  // k > min(n, m)
  EXPECT_FALSE(LanczosSvd(op, 5, 2, 1).ok());   // steps < k
}

TEST(LanczosTest, ZeroOperatorFails) {
  DenseOperator op(DenseMatrix(8, 4));
  EXPECT_FALSE(LanczosSvd(op, 2, 4, 1).ok());
}

class SvdShapeSweep
    : public ::testing::TestWithParam<std::pair<int, int>> {};

TEST_P(SvdShapeSweep, ReconstructionHolds) {
  const auto [rows, cols] = GetParam();
  Rng rng(1000 + rows * 37 + cols);
  const DenseMatrix a = DenseMatrix::GaussianRandom(rows, cols, &rng);
  auto svd = Svd(a);
  ASSERT_TRUE(svd.ok());
  const size_t k = std::min(rows, cols);
  DenseMatrix us = svd.value().u;
  for (size_t j = 0; j < k; ++j) {
    for (size_t i = 0; i < us.rows(); ++i) {
      us(i, j) *= svd.value().singular_values[j];
    }
  }
  const DenseMatrix reconstructed = MultiplyTranspose(us, svd.value().v);
  EXPECT_LT(reconstructed.MaxAbsDiff(a), 1e-8);
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, SvdShapeSweep,
    ::testing::Values(std::make_pair(1, 1), std::make_pair(2, 2),
                      std::make_pair(5, 2), std::make_pair(2, 5),
                      std::make_pair(16, 16), std::make_pair(20, 7),
                      std::make_pair(7, 20), std::make_pair(40, 3)));

}  // namespace
}  // namespace spca::linalg
