#include "linalg/sparse_matrix.h"

#include <gtest/gtest.h>

#include "common/rng.h"
#include "linalg/dense_matrix.h"

namespace spca::linalg {
namespace {

SparseMatrix SmallMatrix() {
  // [ 1 0 2 ]
  // [ 0 0 0 ]
  // [ 0 3 0 ]
  SparseMatrix m(3, 3);
  m.AppendRow(0, std::vector<SparseEntry>{{0, 1.0}, {2, 2.0}});
  m.AppendRow(1, std::vector<SparseEntry>{});
  m.AppendRow(2, std::vector<SparseEntry>{{1, 3.0}});
  return m;
}

TEST(SparseMatrixTest, BasicShapeAndNnz) {
  const SparseMatrix m = SmallMatrix();
  EXPECT_EQ(m.rows(), 3u);
  EXPECT_EQ(m.cols(), 3u);
  EXPECT_EQ(m.nnz(), 3u);
  EXPECT_NEAR(m.Density(), 3.0 / 9.0, 1e-12);
  EXPECT_EQ(m.Row(0).nnz(), 2u);
  EXPECT_EQ(m.Row(1).nnz(), 0u);
  EXPECT_EQ(m.Row(2).nnz(), 1u);
  EXPECT_DOUBLE_EQ(m.Row(2)[0].value, 3.0);
}

TEST(SparseMatrixTest, ToDenseRoundTrip) {
  const SparseMatrix m = SmallMatrix();
  const DenseMatrix dense = m.ToDense();
  EXPECT_DOUBLE_EQ(dense(0, 0), 1.0);
  EXPECT_DOUBLE_EQ(dense(0, 2), 2.0);
  EXPECT_DOUBLE_EQ(dense(2, 1), 3.0);
  EXPECT_DOUBLE_EQ(dense(1, 1), 0.0);
  const SparseMatrix back = SparseMatrix::FromDense(dense);
  EXPECT_EQ(back.nnz(), m.nnz());
  EXPECT_EQ(back.ToDense().MaxAbsDiff(dense), 0.0);
}

TEST(SparseMatrixTest, ColumnMeans) {
  const SparseMatrix m = SmallMatrix();
  const DenseVector means = m.ColumnMeans();
  EXPECT_DOUBLE_EQ(means[0], 1.0 / 3.0);
  EXPECT_DOUBLE_EQ(means[1], 1.0);
  EXPECT_DOUBLE_EQ(means[2], 2.0 / 3.0);
}

TEST(SparseMatrixTest, FrobeniusNorm2) {
  EXPECT_DOUBLE_EQ(SmallMatrix().FrobeniusNorm2(), 1.0 + 4.0 + 9.0);
}

TEST(SparseRowViewTest, DotProducts) {
  const SparseMatrix m = SmallMatrix();
  const DenseVector v(std::vector<double>{2.0, 3.0, 4.0});
  EXPECT_DOUBLE_EQ(m.Row(0).Dot(v), 1.0 * 2 + 2.0 * 4);
  EXPECT_DOUBLE_EQ(m.Row(1).Dot(v), 0.0);
  EXPECT_DOUBLE_EQ(m.Row(0).SquaredNorm(), 5.0);
}

TEST(SparseVectorTest, FromDenseFiltersZeros) {
  const DenseVector dense(std::vector<double>{0.0, 1.5, 0.0, -2.0, 1e-15});
  const SparseVector sv = SparseVector::FromDense(dense, 1e-12);
  EXPECT_EQ(sv.nnz(), 2u);
  EXPECT_EQ(sv.dim(), 5u);
  EXPECT_EQ(sv.entries()[0].index, 1u);
  EXPECT_DOUBLE_EQ(sv.entries()[1].value, -2.0);
}

TEST(SparseVectorTest, ViewMatchesEntries) {
  const SparseVector sv({{1, 2.0}, {4, 3.0}}, 6);
  const SparseRowView view = sv.View();
  EXPECT_EQ(view.nnz(), 2u);
  EXPECT_EQ(view.dim(), 6u);
  EXPECT_DOUBLE_EQ(view.SquaredNorm(), 13.0);
}

TEST(SparseMatrixTest, EmptyMatrix) {
  SparseMatrix m(0, 5);
  EXPECT_EQ(m.rows(), 0u);
  EXPECT_EQ(m.nnz(), 0u);
  EXPECT_DOUBLE_EQ(m.FrobeniusNorm2(), 0.0);
  const DenseVector means = m.ColumnMeans();
  EXPECT_EQ(means.size(), 5u);
}

TEST(SparseMatrixTest, RandomRoundTripProperty) {
  Rng rng(7);
  for (int trial = 0; trial < 10; ++trial) {
    const size_t rows = 1 + rng.NextUint64Below(20);
    const size_t cols = 1 + rng.NextUint64Below(20);
    DenseMatrix dense(rows, cols);
    for (size_t i = 0; i < rows; ++i) {
      for (size_t j = 0; j < cols; ++j) {
        if (rng.NextDouble() < 0.3) dense(i, j) = rng.NextGaussian();
      }
    }
    const SparseMatrix sparse = SparseMatrix::FromDense(dense);
    EXPECT_EQ(sparse.ToDense().MaxAbsDiff(dense), 0.0);
    EXPECT_DOUBLE_EQ(sparse.FrobeniusNorm2(), dense.FrobeniusNorm2());
  }
}

}  // namespace
}  // namespace spca::linalg
