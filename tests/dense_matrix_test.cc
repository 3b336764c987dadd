#include "linalg/dense_matrix.h"

#include <gtest/gtest.h>

#include <cmath>

#include "common/rng.h"

namespace spca::linalg {
namespace {

TEST(DenseVectorTest, BasicOps) {
  DenseVector a(std::vector<double>{1.0, 2.0, 3.0});
  DenseVector b(std::vector<double>{4.0, -5.0, 6.0});
  EXPECT_EQ(a.size(), 3u);
  EXPECT_DOUBLE_EQ(a.Dot(b), 1.0 * 4 - 2 * 5 + 3 * 6);
  EXPECT_DOUBLE_EQ(a.SquaredNorm(), 14.0);
  EXPECT_DOUBLE_EQ(a.Norm2(), std::sqrt(14.0));

  a.Add(b);
  EXPECT_DOUBLE_EQ(a[0], 5.0);
  EXPECT_DOUBLE_EQ(a[1], -3.0);
  a.Subtract(b);
  EXPECT_DOUBLE_EQ(a[1], 2.0);
  a.AddScaled(2.0, b);
  EXPECT_DOUBLE_EQ(a[2], 15.0);
  a.Scale(0.0);
  EXPECT_DOUBLE_EQ(a.SquaredNorm(), 0.0);
}

TEST(DenseVectorTest, SetZeroKeepsSize) {
  DenseVector v(7);
  v[3] = 9.0;
  v.SetZero();
  EXPECT_EQ(v.size(), 7u);
  EXPECT_DOUBLE_EQ(v.SquaredNorm(), 0.0);
}

TEST(DenseMatrixTest, ConstructionAndIndexing) {
  DenseMatrix m(2, 3);
  EXPECT_EQ(m.rows(), 2u);
  EXPECT_EQ(m.cols(), 3u);
  EXPECT_EQ(m.size(), 6u);
  EXPECT_EQ(m.ByteSize(), 48u);
  m(1, 2) = 5.0;
  EXPECT_DOUBLE_EQ(m(1, 2), 5.0);
  EXPECT_DOUBLE_EQ(m.Row(1)[2], 5.0);
}

TEST(DenseMatrixTest, Identity) {
  const DenseMatrix eye = DenseMatrix::Identity(3);
  EXPECT_DOUBLE_EQ(eye.Trace(), 3.0);
  EXPECT_DOUBLE_EQ(eye.FrobeniusNorm2(), 3.0);
  EXPECT_DOUBLE_EQ(eye(0, 1), 0.0);
}

TEST(DenseMatrixTest, GaussianRandomIsDeterministic) {
  Rng rng1(42);
  Rng rng2(42);
  const DenseMatrix a = DenseMatrix::GaussianRandom(4, 5, &rng1);
  const DenseMatrix b = DenseMatrix::GaussianRandom(4, 5, &rng2);
  EXPECT_EQ(a.MaxAbsDiff(b), 0.0);
  Rng rng3(43);
  const DenseMatrix c = DenseMatrix::GaussianRandom(4, 5, &rng3);
  EXPECT_GT(a.MaxAbsDiff(c), 0.0);
}

TEST(DenseMatrixTest, AddSubtractScale) {
  DenseMatrix a(2, 2);
  a(0, 0) = 1;
  a(1, 1) = 2;
  DenseMatrix b(2, 2);
  b(0, 0) = 3;
  b(0, 1) = 4;
  a.Add(b);
  EXPECT_DOUBLE_EQ(a(0, 0), 4.0);
  a.Subtract(b);
  EXPECT_DOUBLE_EQ(a(0, 0), 1.0);
  a.AddScaled(-0.5, b);
  EXPECT_DOUBLE_EQ(a(0, 1), -2.0);
  a.Scale(2.0);
  EXPECT_DOUBLE_EQ(a(1, 1), 4.0);
  a.AddScaledIdentity(1.0);
  EXPECT_DOUBLE_EQ(a(1, 1), 5.0);
}

TEST(DenseMatrixTest, Transpose) {
  DenseMatrix m(2, 3);
  for (size_t i = 0; i < 2; ++i) {
    for (size_t j = 0; j < 3; ++j) m(i, j) = 10.0 * i + j;
  }
  const DenseMatrix t = m.Transpose();
  EXPECT_EQ(t.rows(), 3u);
  EXPECT_EQ(t.cols(), 2u);
  for (size_t i = 0; i < 2; ++i) {
    for (size_t j = 0; j < 3; ++j) EXPECT_DOUBLE_EQ(t(j, i), m(i, j));
  }
}

TEST(DenseMatrixTest, NormsAndTrace) {
  DenseMatrix m(2, 2);
  m(0, 0) = 3;
  m(0, 1) = -4;
  m(1, 0) = 1;
  m(1, 1) = 2;
  EXPECT_DOUBLE_EQ(m.FrobeniusNorm2(), 9 + 16 + 1 + 4);
  EXPECT_DOUBLE_EQ(m.Trace(), 5.0);
}

TEST(DenseMatrixTest, RowAndColVectors) {
  DenseMatrix m(3, 2);
  m(1, 0) = 7;
  m(1, 1) = 8;
  m(2, 1) = 9;
  const DenseVector row = m.RowVector(1);
  EXPECT_DOUBLE_EQ(row[0], 7.0);
  EXPECT_DOUBLE_EQ(row[1], 8.0);
  const DenseVector col = m.ColVector(1);
  EXPECT_DOUBLE_EQ(col[1], 8.0);
  EXPECT_DOUBLE_EQ(col[2], 9.0);
}

TEST(DenseMatrixTest, MaxAbsDiff) {
  DenseMatrix a(2, 2);
  DenseMatrix b(2, 2);
  b(1, 0) = -0.25;
  EXPECT_DOUBLE_EQ(a.MaxAbsDiff(b), 0.25);
  EXPECT_DOUBLE_EQ(a.MaxAbsDiff(a), 0.0);
}

}  // namespace
}  // namespace spca::linalg
