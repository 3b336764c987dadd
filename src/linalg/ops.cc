#include "linalg/ops.h"

#include "linalg/kernels.h"

namespace spca::linalg {

// Every routine here but TransposeMultiplyVector is a thin loop over the
// contiguous-row micro-kernels in linalg/kernels.h. The kernels unroll
// only across output columns and keep reductions as single sequential
// chains, so each function produces bit-identical results to the scalar
// triple loops it replaced.

DenseMatrix Multiply(const DenseMatrix& a, const DenseMatrix& b) {
  SPCA_CHECK_EQ(a.cols(), b.rows());
  DenseMatrix c(a.rows(), b.cols());
  for (size_t i = 0; i < a.rows(); ++i) {
    kernels::RowGemm(a.RowPtr(i), a.cols(), b.data(), b.row_stride(),
                     b.cols(), c.RowPtr(i));
  }
  return c;
}

DenseMatrix TransposeMultiply(const DenseMatrix& a, const DenseMatrix& b) {
  SPCA_CHECK_EQ(a.rows(), b.rows());
  DenseMatrix c(a.cols(), b.cols());
  if (&a == &b) {
    // The Gram matrix A'A: the upper triangle row by row, then one mirror.
    // Each entry adds the same products in the same row order as the
    // general path (IEEE products commute; the +-0 products of the zeros
    // Rank1Update skips leave a sum that started at +0 unchanged), so the
    // bits match with half the multiply-adds.
    for (size_t r = 0; r < a.rows(); ++r) {
      kernels::SymRank1Update(a.RowPtr(r), a.cols(), c.data(), c.row_stride());
    }
    kernels::SymMirrorLower(c.data(), c.rows(), c.row_stride());
    return c;
  }
  // sum_r (A_r)' * B_r: stream one row of each operand at a time (the
  // paper's Equation 2) as a rank-1 update of C.
  for (size_t r = 0; r < a.rows(); ++r) {
    kernels::Rank1Update(a.RowPtr(r), a.cols(), b.RowPtr(r), b.cols(),
                         c.data(), c.row_stride());
  }
  return c;
}

DenseMatrix MultiplyTranspose(const DenseMatrix& a, const DenseMatrix& b) {
  SPCA_CHECK_EQ(a.cols(), b.cols());
  DenseMatrix c(a.rows(), b.rows());
  for (size_t i = 0; i < a.rows(); ++i) {
    const double* a_row = a.RowPtr(i);
    double* c_row = c.RowPtr(i);
    for (size_t j = 0; j < b.rows(); ++j) {
      c_row[j] = kernels::DotRow(a_row, b.RowPtr(j), a.cols());
    }
  }
  return c;
}

DenseVector MultiplyVector(const DenseMatrix& a, const DenseVector& x) {
  SPCA_CHECK_EQ(a.cols(), x.size());
  DenseVector y(a.rows());
  for (size_t i = 0; i < a.rows(); ++i) {
    y[i] = kernels::DotRow(a.RowPtr(i), x.data(), a.cols());
  }
  return y;
}

DenseVector TransposeMultiplyVector(const DenseMatrix& a,
                                    const DenseVector& x) {
  SPCA_CHECK_EQ(a.rows(), x.size());
  // A plain multiply-then-add loop, not the dispatched AxpyRow (whose AVX2
  // variant fuses the two), so every ISA gets the same bits.
  DenseVector y(a.cols());
  for (size_t k = 0; k < a.rows(); ++k) {
    const double xk = x[k];
    if (xk == 0.0) continue;
    const double* a_row = a.RowPtr(k);
    for (size_t j = 0; j < a.cols(); ++j) y[j] += xk * a_row[j];
  }
  return y;
}

DenseVector RowTimesMatrix(const DenseVector& row, const DenseMatrix& b) {
  SPCA_CHECK_EQ(row.size(), b.rows());
  DenseVector out(b.cols());
  kernels::RowGemm(row.data(), row.size(), b.data(), b.row_stride(), b.cols(),
                   out.data());
  return out;
}

DenseVector SparseRowTimesMatrix(const SparseRowView& row,
                                 const DenseMatrix& b) {
  SPCA_CHECK_EQ(row.dim(), b.rows());
  DenseVector out(b.cols());
  kernels::SparseRowGemv(row.begin(), row.nnz(), b.data(), b.row_stride(),
                         b.cols(), out.data());
  return out;
}

void AddOuterProduct(const DenseVector& a, const DenseVector& b,
                     DenseMatrix* out) {
  SPCA_CHECK_EQ(out->rows(), a.size());
  SPCA_CHECK_EQ(out->cols(), b.size());
  kernels::Rank1Update(a.data(), a.size(), b.data(), b.size(), out->data(),
                       out->row_stride());
}

DenseMatrix MeanCenter(const DenseMatrix& a, const DenseVector& mean) {
  SPCA_CHECK_EQ(a.cols(), mean.size());
  DenseMatrix c(a.rows(), a.cols());
  for (size_t i = 0; i < a.rows(); ++i) {
    const double* a_row = a.RowPtr(i);
    double* c_row = c.RowPtr(i);
    for (size_t j = 0; j < a.cols(); ++j) c_row[j] = a_row[j] - mean[j];
  }
  return c;
}

DenseVector ColumnMeans(const DenseMatrix& a) {
  DenseVector means(a.cols());
  for (size_t i = 0; i < a.rows(); ++i) {
    kernels::AddRow(a.RowPtr(i), a.cols(), means.data());
  }
  if (a.rows() > 0) means.Scale(1.0 / static_cast<double>(a.rows()));
  return means;
}

}  // namespace spca::linalg
