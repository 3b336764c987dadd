#ifndef SPCA_LINALG_SPARSE_MATRIX_H_
#define SPCA_LINALG_SPARSE_MATRIX_H_

#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "common/check.h"
#include "linalg/dense_matrix.h"

namespace spca::linalg {

/// One non-zero entry of a sparse row/vector.
struct SparseEntry {
  uint32_t index;
  double value;

  friend bool operator==(const SparseEntry& a, const SparseEntry& b) {
    return a.index == b.index && a.value == b.value;
  }
};

/// Immutable view over one row of a SparseMatrix (or a standalone sparse
/// vector): a span of (index, value) pairs sorted by index.
class SparseRowView {
 public:
  SparseRowView() = default;
  SparseRowView(const SparseEntry* entries, size_t count, size_t dim)
      : entries_(entries, count), dim_(dim) {}

  size_t nnz() const { return entries_.size(); }
  /// The logical dimensionality D of the row.
  size_t dim() const { return dim_; }
  const SparseEntry* begin() const { return entries_.data(); }
  const SparseEntry* end() const { return entries_.data() + entries_.size(); }
  const SparseEntry& operator[](size_t k) const { return entries_[k]; }

  /// Dot product with a dense vector of size dim().
  double Dot(const DenseVector& dense) const;
  /// Sum of squared values of the stored entries.
  double SquaredNorm() const;

 private:
  std::span<const SparseEntry> entries_;
  size_t dim_ = 0;
};

/// An owned sparse vector (sorted by index). Used for sparse driver-side
/// vectors such as C' * Y_i' in the ss3 job.
class SparseVector {
 public:
  SparseVector() = default;
  /// Entries must be sorted by index and within [0, dim).
  SparseVector(std::vector<SparseEntry> entries, size_t dim);

  /// Builds from a dense vector keeping entries with |value| > tolerance.
  static SparseVector FromDense(const DenseVector& dense,
                                double tolerance = 0.0);

  size_t nnz() const { return entries_.size(); }
  size_t dim() const { return dim_; }
  SparseRowView View() const {
    return SparseRowView(entries_.data(), entries_.size(), dim_);
  }
  const std::vector<SparseEntry>& entries() const { return entries_; }

 private:
  std::vector<SparseEntry> entries_;
  size_t dim_ = 0;
};

/// Compressed-sparse-row matrix of doubles. This is the storage format for
/// the large input matrix Y: the workloads in the paper (Tweets, Bio-Text)
/// are extremely sparse binary bag-of-words matrices.
class SparseMatrix {
 public:
  SparseMatrix() : rows_(0), cols_(0) { row_ptr_.push_back(0); }
  /// Empty matrix with the given shape (no non-zeros yet; use the builder
  /// interface AppendRow to fill rows in order).
  SparseMatrix(size_t rows, size_t cols);

  /// Appends the next row. Entries must be sorted by index, in [0, cols).
  /// Rows are appended in order; `row` must equal the number of rows appended
  /// so far (this guards against out-of-order construction).
  void AppendRow(size_t row, std::span<const SparseEntry> entries);

  size_t rows() const { return rows_; }
  size_t cols() const { return cols_; }
  size_t nnz() const { return entries_.size(); }
  /// Fraction of entries that are non-zero.
  double Density() const {
    if (rows_ == 0 || cols_ == 0) return 0.0;
    return static_cast<double>(nnz()) /
           (static_cast<double>(rows_) * static_cast<double>(cols_));
  }
  /// Approximate in-memory footprint in bytes (CSR arrays).
  size_t ByteSize() const {
    return entries_.size() * sizeof(SparseEntry) +
           row_ptr_.size() * sizeof(uint64_t);
  }

  /// The CSR arrays behind Row(): row i's entries are
  /// entries()[row_ptr()[i] .. row_ptr()[i + 1]), over rows() + 1 offsets.
  const uint64_t* row_ptr() const { return row_ptr_.data(); }
  const SparseEntry* entries() const { return entries_.data(); }

  /// View of row i.
  SparseRowView Row(size_t i) const {
    SPCA_CHECK_LT(i, rows_);
    const uint64_t begin = row_ptr_[i];
    const uint64_t end = row_ptr_[i + 1];
    return SparseRowView(entries_.data() + begin, end - begin, cols_);
  }

  /// Converts to a dense matrix (only sensible for small matrices; tests).
  DenseMatrix ToDense() const;
  /// Builds a sparse matrix from a dense one, keeping |value| > tolerance.
  static SparseMatrix FromDense(const DenseMatrix& dense,
                                double tolerance = 0.0);

  /// Per-column mean of the matrix values (the paper's columnMean(Y) = Ym).
  DenseVector ColumnMeans() const;
  /// Square of the Frobenius norm of the raw (not mean-centered) matrix.
  double FrobeniusNorm2() const;

 private:
  size_t rows_;
  size_t cols_;
  size_t appended_rows_ = 0;       // rows filled so far via AppendRow
  std::vector<uint64_t> row_ptr_;  // size rows_ + 1
  std::vector<SparseEntry> entries_;
};

}  // namespace spca::linalg

#endif  // SPCA_LINALG_SPARSE_MATRIX_H_
