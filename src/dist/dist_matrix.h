#ifndef SPCA_DIST_DIST_MATRIX_H_
#define SPCA_DIST_DIST_MATRIX_H_

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "linalg/dense_matrix.h"
#include "linalg/sparse_matrix.h"

namespace spca::dist {

/// Contiguous range of global row indices [begin, end) forming one
/// partition of a distributed matrix.
struct RowRange {
  size_t begin = 0;
  size_t end = 0;
  size_t partition_index = 0;

  size_t size() const { return end - begin; }
};

/// A row-partitioned matrix — the simulator's analogue of an HDFS file /
/// cached Spark RDD holding the input matrix Y. Storage is either sparse
/// (CSR; the Tweets/Bio-Text/Diabetes shapes) or dense (the Images shape).
///
/// The matrix is immutable once built and cheap to copy (shared ownership
/// of the underlying storage), mirroring an immutable RDD.
class DistMatrix {
 public:
  enum class Storage { kSparse, kDense };

  DistMatrix() = default;

  /// Wraps a sparse matrix, splitting rows into `num_partitions` contiguous
  /// blocks (the last may be smaller).
  static DistMatrix FromSparse(linalg::SparseMatrix matrix,
                               size_t num_partitions);
  /// Wraps a dense matrix.
  static DistMatrix FromDense(linalg::DenseMatrix matrix,
                              size_t num_partitions);

  size_t rows() const { return rows_; }
  size_t cols() const { return cols_; }
  /// Total number of stored entries (nnz for sparse; rows*cols for dense).
  size_t StoredEntries() const;
  /// In-memory footprint in bytes; the simulated "input data size".
  size_t ByteSize() const;

  Storage storage() const { return storage_; }
  bool is_sparse() const { return storage_ == Storage::kSparse; }

  /// Identity of the underlying storage; two DistMatrix copies share a key
  /// iff they share storage. Used by the engine to model RDD caching. Every
  /// FromSparse / FromDense call (so every SampleRows and ConcatRows) draws
  /// a key no earlier matrix in the process had, so a matrix built where a
  /// freed one lived is still a new input.
  uint64_t StorageKey() const { return storage_key_; }

  size_t num_partitions() const { return partitions_.size(); }
  const RowRange& partition(size_t p) const { return partitions_[p]; }
  const std::vector<RowRange>& partitions() const { return partitions_; }

  /// Underlying storage (CHECKs on the storage kind).
  const linalg::SparseMatrix& sparse() const;
  const linalg::DenseMatrix& dense() const;

  /// Number of stored entries in row i (nnz for sparse, cols for dense).
  size_t RowNnz(size_t i) const;

  /// out = Y_i * B, exploiting sparsity of the row. B has cols() rows.
  /// `out` must be sized B.cols(); it is overwritten.
  void RowTimesMatrix(size_t i, const linalg::DenseMatrix& b,
                      linalg::DenseVector* out) const;

  /// out += Y_i' * x' (outer product of the row, as a D-dim column, with
  /// the d-dim row vector x). Touches only stored entries of the row.
  void AddRowOuterProduct(size_t i, const linalg::DenseVector& x,
                          linalg::DenseMatrix* out) const;

  /// Dot product of row i with a dense vector of size cols().
  double RowDot(size_t i, const linalg::DenseVector& v) const;

  /// Sum of squares of stored entries of row i.
  double RowSquaredNorm(size_t i) const;

  /// Calls fn(column_index, value) for each *stored* entry of row i.
  template <typename Fn>
  void ForEachEntry(size_t i, Fn&& fn) const {
    if (is_sparse()) {
      for (const auto& e : sparse_->Row(i)) fn(e.index, e.value);
    } else {
      const auto row = dense_->Row(i);
      for (size_t j = 0; j < row.size(); ++j) fn(j, row[j]);
    }
  }

  /// Per-column means (the distributed meanJob's result, computed locally).
  linalg::DenseVector ColumnMeans() const;

  /// Square of the Frobenius norm of the raw matrix.
  double FrobeniusNorm2() const;

  /// Materializes rows [begin, end) x all columns as a dense matrix
  /// (test/example helper; sensible only for small slices).
  linalg::DenseMatrix ToDenseSlice(size_t begin, size_t end) const;

  /// Builds a new DistMatrix from a subset of rows (used by the smart-guess
  /// sample fit and by the reconstruction-error row sample).
  DistMatrix SampleRows(std::span<const size_t> row_indices,
                        size_t num_partitions) const;

  /// Stacks several row-compatible matrices (same cols, same storage kind)
  /// into one, re-partitioned into `num_partitions` contiguous blocks. Used
  /// by Solver adapters that buffer mini-batches and finish with one batch
  /// fit. CHECK-fails on shape/storage mismatch or an empty list.
  static DistMatrix ConcatRows(std::span<const DistMatrix> parts,
                               size_t num_partitions);

 private:
  Storage storage_ = Storage::kSparse;
  size_t rows_ = 0;
  size_t cols_ = 0;
  std::shared_ptr<const linalg::SparseMatrix> sparse_;
  std::shared_ptr<const linalg::DenseMatrix> dense_;
  uint64_t storage_key_ = 0;
  std::vector<RowRange> partitions_;

  static uint64_t NextStorageKey();

  static std::vector<RowRange> MakePartitions(size_t rows,
                                              size_t num_partitions);
};

}  // namespace spca::dist

#endif  // SPCA_DIST_DIST_MATRIX_H_
