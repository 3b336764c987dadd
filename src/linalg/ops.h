#ifndef SPCA_LINALG_OPS_H_
#define SPCA_LINALG_OPS_H_

#include "linalg/dense_matrix.h"
#include "linalg/sparse_matrix.h"

namespace spca::linalg {

// The row-range forms below compute rows [begin, end) of a product, each
// entry with the whole product's operations in the whole product's order,
// so a product split into ranges (the engine's driver loops) has the bits
// of one call over all rows; the whole-matrix function is that call.

/// C = A * B. Shapes: (n x k) * (k x m) -> (n x m).
DenseMatrix Multiply(const DenseMatrix& a, const DenseMatrix& b);

/// Rows [begin, end) of C = A * B, written into the same rows of `c`
/// (n x m, those rows zero on entry).
void MultiplyRows(const DenseMatrix& a, const DenseMatrix& b, size_t begin,
                  size_t end, DenseMatrix* c);

/// C = A' * B. Shapes: (k x n)' * (k x m) -> (n x m). Computed row-by-row
/// as sum_r (A_r)' * B_r (the paper's Equation 2), no explicit transpose.
/// Called with one matrix twice (the Gram matrix A'A), it accumulates the
/// upper triangle and mirrors it: half the work, the same bits.
DenseMatrix TransposeMultiply(const DenseMatrix& a, const DenseMatrix& b);

/// Rows [begin, end) of C = A' * B added into `out`, product row `begin`
/// in row 0 (`out` is at least (end - begin) x m). Every row r of A and B
/// is still visited in order, so each entry sums over r as the whole
/// product does. For the Gram matrix (`a` and `b` one object) only the
/// upper triangle of those rows is formed (columns from the row's own
/// index on), and the caller mirrors once every row is in.
void TransposeMultiplyRows(const DenseMatrix& a, const DenseMatrix& b,
                           size_t begin, size_t end, DenseMatrix* out);

/// C = A * B'. Shapes: (n x k) * (m x k)' -> (n x m).
DenseMatrix MultiplyTranspose(const DenseMatrix& a, const DenseMatrix& b);

/// y = A * x. Shapes: (n x m) * (m) -> (n).
DenseVector MultiplyVector(const DenseMatrix& a, const DenseVector& x);

/// y = A' * x = (x' * A)'. Shapes: (n x m)' * (n) -> (m). The driver's
/// mean'·B (mean propagation's row offset): rows of A whose x_k is zero
/// are skipped, the rest add x_k * A_k in row order.
DenseVector TransposeMultiplyVector(const DenseMatrix& a,
                                    const DenseVector& x);

/// Row-vector times matrix: out = row * B where row has B.rows() elements
/// and out has B.cols(). This is the paper's in-memory multiplication
/// (A*B)_i = A_i * B with B broadcast to every worker.
DenseVector RowTimesMatrix(const DenseVector& row, const DenseMatrix& b);

/// Sparse-row times dense matrix: out = y_i * B, touching only the
/// non-zeros of y_i. Cost O(nnz * B.cols()) instead of O(D * B.cols()).
DenseVector SparseRowTimesMatrix(const SparseRowView& row,
                                 const DenseMatrix& b);

/// out += outer product a * b' where a has `rows` elements (column) and b'
/// has `cols` (row). out must be (a.size() x b.size()).
void AddOuterProduct(const DenseVector& a, const DenseVector& b,
                     DenseMatrix* out);

/// Returns A with each row mean-centered: A_i - mean (a dense result, the
/// eager centering that mean propagation avoids; tests use it as the
/// reference for the mean-propagated jobs).
DenseMatrix MeanCenter(const DenseMatrix& a, const DenseVector& mean);

/// Per-column means of a dense matrix.
DenseVector ColumnMeans(const DenseMatrix& a);

}  // namespace spca::linalg

#endif  // SPCA_LINALG_OPS_H_
