#include "linalg/ops.h"

#include <gtest/gtest.h>

#include <cstring>

#include "common/rng.h"
#include "linalg/dense_matrix.h"
#include "linalg/sparse_matrix.h"

namespace spca::linalg {
namespace {

DenseMatrix RandomMatrix(size_t rows, size_t cols, Rng* rng) {
  return DenseMatrix::GaussianRandom(rows, cols, rng);
}

TEST(OpsTest, MultiplySmallKnown) {
  DenseMatrix a(2, 2);
  a(0, 0) = 1;
  a(0, 1) = 2;
  a(1, 0) = 3;
  a(1, 1) = 4;
  DenseMatrix b(2, 2);
  b(0, 0) = 5;
  b(0, 1) = 6;
  b(1, 0) = 7;
  b(1, 1) = 8;
  const DenseMatrix c = Multiply(a, b);
  EXPECT_DOUBLE_EQ(c(0, 0), 19.0);
  EXPECT_DOUBLE_EQ(c(0, 1), 22.0);
  EXPECT_DOUBLE_EQ(c(1, 0), 43.0);
  EXPECT_DOUBLE_EQ(c(1, 1), 50.0);
}

TEST(OpsTest, TransposeMultiplyMatchesExplicitTranspose) {
  Rng rng(1);
  const DenseMatrix a = RandomMatrix(7, 4, &rng);
  const DenseMatrix b = RandomMatrix(7, 5, &rng);
  const DenseMatrix fast = TransposeMultiply(a, b);
  const DenseMatrix reference = Multiply(a.Transpose(), b);
  EXPECT_LT(fast.MaxAbsDiff(reference), 1e-12);
}

TEST(OpsTest, TransposeMultiplyGramPathMatchesTheGeneralPath) {
  // TransposeMultiply(a, a) takes the upper-triangle-and-mirror path; a
  // copy of `a` as the second operand takes the general rank-1 path. The
  // two must agree bit for bit on every entry, both triangles included.
  Rng rng(5);
  for (const size_t d : {1, 2, 3, 5, 13, 50}) {
    const size_t rows = 37;
    DenseMatrix a = RandomMatrix(rows, d, &rng);  // about half negative
    for (size_t r = 0; r < rows; ++r) {
      for (size_t j = 0; j < d; ++j) {
        if ((r + 2 * j) % 4 == 0) a(r, j) = 0.0;
      }
    }
    for (size_t j = 0; j < d; ++j) a(11, j) = 0.0;  // an all-zero row
    const DenseMatrix copy = a;
    const DenseMatrix gram = TransposeMultiply(a, a);
    const DenseMatrix general = TransposeMultiply(a, copy);
    ASSERT_EQ(gram.rows(), d);
    ASSERT_EQ(gram.cols(), d);
    for (size_t i = 0; i < d; ++i) {
      for (size_t j = 0; j < d; ++j) {
        EXPECT_EQ(std::memcmp(gram.RowPtr(i) + j, general.RowPtr(i) + j,
                              sizeof(double)),
                  0)
            << "d = " << d << ", (" << i << ", " << j << "): " << gram(i, j)
            << " vs " << general(i, j);
      }
    }
  }
}

TEST(OpsTest, MultiplyTransposeMatchesExplicitTranspose) {
  Rng rng(2);
  const DenseMatrix a = RandomMatrix(4, 6, &rng);
  const DenseMatrix b = RandomMatrix(5, 6, &rng);
  const DenseMatrix fast = MultiplyTranspose(a, b);
  const DenseMatrix reference = Multiply(a, b.Transpose());
  EXPECT_LT(fast.MaxAbsDiff(reference), 1e-12);
}

TEST(OpsTest, MatrixVectorProducts) {
  Rng rng(3);
  const DenseMatrix a = RandomMatrix(4, 3, &rng);
  DenseVector x(std::vector<double>{1.0, -2.0, 0.5});
  const DenseVector y = MultiplyVector(a, x);
  for (size_t i = 0; i < 4; ++i) {
    double expected = 0;
    for (size_t j = 0; j < 3; ++j) expected += a(i, j) * x[j];
    EXPECT_NEAR(y[i], expected, 1e-12);
  }
  DenseVector z(std::vector<double>{1.0, 2.0, 3.0, 4.0});
  const DenseVector w = TransposeMultiplyVector(a, z);
  for (size_t j = 0; j < 3; ++j) {
    double expected = 0;
    for (size_t i = 0; i < 4; ++i) expected += a(i, j) * z[i];
    EXPECT_NEAR(w[j], expected, 1e-12);
  }
}

// Every mean-propagation site (the E-step's Xm, the error sample, Transform,
// the baselines' and sketch's mean'·B) computes mean'·B through
// TransposeMultiplyVector. Its bits must be the plain multiply-then-add
// loop's on every kernel ISA: AVX2's AxpyRow fuses the two and rounds
// differently.
TEST(OpsTest, TransposeMultiplyVectorIsThePlainMeanProjectionLoop) {
  Rng rng(7);
  for (const size_t d : {1, 3, 4, 5, 13, 50}) {
    const size_t dim = 41;
    const DenseMatrix b = RandomMatrix(dim, d, &rng);
    DenseVector mean(dim);
    for (size_t k = 0; k < dim; ++k) {
      // Every third entry zero; the rest Gaussian, so about half negative.
      mean[k] = k % 3 == 0 ? 0.0 : rng.NextGaussian();
    }
    DenseVector expected(d);
    for (size_t k = 0; k < dim; ++k) {
      const double m = mean[k];
      if (m == 0.0) continue;
      for (size_t j = 0; j < d; ++j) expected[j] += m * b(k, j);
    }
    const DenseVector actual = TransposeMultiplyVector(b, mean);
    ASSERT_EQ(actual.size(), d);
    for (size_t j = 0; j < d; ++j) {
      EXPECT_EQ(std::memcmp(actual.data() + j, expected.data() + j,
                            sizeof(double)),
                0)
          << "d = " << d << ", j = " << j << ": " << actual[j] << " vs "
          << expected[j];
    }
  }
}

TEST(OpsTest, RowTimesMatrixMatchesMultiply) {
  Rng rng(4);
  const DenseMatrix b = RandomMatrix(5, 3, &rng);
  DenseVector row(5);
  for (size_t i = 0; i < 5; ++i) row[i] = rng.NextGaussian();
  const DenseVector out = RowTimesMatrix(row, b);
  for (size_t j = 0; j < 3; ++j) {
    double expected = 0;
    for (size_t k = 0; k < 5; ++k) expected += row[k] * b(k, j);
    EXPECT_NEAR(out[j], expected, 1e-12);
  }
}

TEST(OpsTest, SparseRowTimesMatrixMatchesDense) {
  Rng rng(5);
  const DenseMatrix b = RandomMatrix(6, 4, &rng);
  const SparseVector sv({{1, 2.0}, {4, -3.0}}, 6);
  const DenseVector sparse_result = SparseRowTimesMatrix(sv.View(), b);
  DenseVector dense_row(6);
  dense_row[1] = 2.0;
  dense_row[4] = -3.0;
  const DenseVector dense_result = RowTimesMatrix(dense_row, b);
  for (size_t j = 0; j < 4; ++j) {
    EXPECT_NEAR(sparse_result[j], dense_result[j], 1e-12);
  }
}

TEST(OpsTest, OuterProducts) {
  DenseVector a(std::vector<double>{1.0, 2.0});
  DenseVector b(std::vector<double>{3.0, 4.0, 5.0});
  DenseMatrix out(2, 3);
  AddOuterProduct(a, b, &out);
  EXPECT_DOUBLE_EQ(out(1, 2), 10.0);
  AddOuterProduct(a, b, &out);
  EXPECT_DOUBLE_EQ(out(1, 2), 20.0);
}

TEST(OpsTest, MeanCenterAndColumnMeans) {
  DenseMatrix a(3, 2);
  a(0, 0) = 1;
  a(1, 0) = 2;
  a(2, 0) = 3;
  a(0, 1) = 4;
  a(1, 1) = 6;
  a(2, 1) = 8;
  const DenseVector means = ColumnMeans(a);
  EXPECT_DOUBLE_EQ(means[0], 2.0);
  EXPECT_DOUBLE_EQ(means[1], 6.0);
  const DenseMatrix centered = MeanCenter(a, means);
  const DenseVector centered_means = ColumnMeans(centered);
  EXPECT_NEAR(centered_means[0], 0.0, 1e-12);
  EXPECT_NEAR(centered_means[1], 0.0, 1e-12);
}

TEST(OpsTest, MultiplyAssociativityProperty) {
  Rng rng(8);
  const DenseMatrix a = RandomMatrix(3, 4, &rng);
  const DenseMatrix b = RandomMatrix(4, 5, &rng);
  const DenseMatrix c = RandomMatrix(5, 2, &rng);
  const DenseMatrix left = Multiply(Multiply(a, b), c);
  const DenseMatrix right = Multiply(a, Multiply(b, c));
  EXPECT_LT(left.MaxAbsDiff(right), 1e-10);
}

}  // namespace
}  // namespace spca::linalg
