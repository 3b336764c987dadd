#ifndef SPCA_LINALG_DENSE_MATRIX_H_
#define SPCA_LINALG_DENSE_MATRIX_H_

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "common/aligned.h"
#include "common/check.h"

namespace spca {

class Rng;

namespace linalg {

/// Dense column vector of doubles with the small set of operations the PCA
/// algorithms need. Semantically a D-dimensional point; also used for row
/// vectors where noted.
class DenseVector {
 public:
  DenseVector() = default;
  /// Zero vector of the given size.
  explicit DenseVector(size_t size) : data_(size, 0.0) {}
  /// Copies the given values into aligned storage.
  explicit DenseVector(const std::vector<double>& values)
      : data_(values.begin(), values.end()) {}

  size_t size() const { return data_.size(); }
  double operator[](size_t i) const { return data_[i]; }
  double& operator[](size_t i) { return data_[i]; }
  const double* data() const { return data_.data(); }
  double* data() { return data_.data(); }
  const AlignedDoubleBuffer& values() const { return data_; }

  /// this += other. Sizes must match.
  void Add(const DenseVector& other);
  /// this -= other. Sizes must match.
  void Subtract(const DenseVector& other);
  /// this += alpha * other. Sizes must match.
  void AddScaled(double alpha, const DenseVector& other);
  /// this *= alpha.
  void Scale(double alpha);
  /// Sets every element to zero, keeping the size.
  void SetZero();

  /// Inner product with another vector of the same size.
  double Dot(const DenseVector& other) const;
  /// Sum of squares of the elements.
  double SquaredNorm() const;
  /// Euclidean norm.
  double Norm2() const;

 private:
  AlignedDoubleBuffer data_;
};

/// Dense row-major matrix of doubles. This is the workhorse for all the
/// small driver-side matrices (C, M, XtX, ...) in the paper's algorithms.
/// Storage is one contiguous rows*cols buffer whose base is cache-line
/// (64-byte) aligned — the SIMD kernel layer's alignment contract: rows
/// are row_stride() == cols() doubles apart (no padding), kernels never
/// *require* alignment, but the aligned base keeps whole-matrix sweeps
/// and the common aligned-row case from splitting cache lines.
class DenseMatrix {
 public:
  DenseMatrix() : rows_(0), cols_(0) {}
  /// Zero matrix of the given shape.
  DenseMatrix(size_t rows, size_t cols)
      : rows_(rows), cols_(cols), data_(rows * cols, 0.0) {}

  /// d x d identity.
  static DenseMatrix Identity(size_t n);
  /// Matrix with i.i.d. Normal(0, stddev) entries; the paper's normrnd().
  static DenseMatrix GaussianRandom(size_t rows, size_t cols, Rng* rng,
                                    double stddev = 1.0);

  size_t rows() const { return rows_; }
  size_t cols() const { return cols_; }
  /// Number of stored doubles (rows * cols).
  size_t size() const { return data_.size(); }
  /// Serialized size in bytes; used by the communication accounting.
  size_t ByteSize() const { return data_.size() * sizeof(double); }

  double operator()(size_t i, size_t j) const {
    return data_[i * cols_ + j];
  }
  double& operator()(size_t i, size_t j) { return data_[i * cols_ + j]; }

  /// Contiguous view of row i.
  std::span<const double> Row(size_t i) const {
    return {data_.data() + i * cols_, cols_};
  }
  std::span<double> Row(size_t i) {
    return {data_.data() + i * cols_, cols_};
  }

  /// Raw pointer to the first element of row i; rows are contiguous and
  /// row_stride() doubles apart. This is what the linalg/kernels.h
  /// micro-kernels consume.
  const double* RowPtr(size_t i) const { return data_.data() + i * cols_; }
  double* RowPtr(size_t i) { return data_.data() + i * cols_; }
  /// Distance in doubles between consecutive rows (== cols()).
  size_t row_stride() const { return cols_; }

  const double* data() const { return data_.data(); }
  double* data() { return data_.data(); }

  /// this += other. Shapes must match.
  void Add(const DenseMatrix& other);
  /// this -= other. Shapes must match.
  void Subtract(const DenseMatrix& other);
  /// this += alpha * other. Shapes must match.
  void AddScaled(double alpha, const DenseMatrix& other);
  /// this *= alpha.
  void Scale(double alpha);
  /// Adds alpha to each diagonal element (this += alpha * I). Square only.
  void AddScaledIdentity(double alpha);
  /// Sets every element to zero, keeping the shape.
  void SetZero();

  /// Returns the transpose as a new matrix.
  DenseMatrix Transpose() const;
  /// Sum of diagonal elements. Square only.
  double Trace() const;
  /// Square of the Frobenius norm.
  double FrobeniusNorm2() const;
  /// Copy of row i as a vector.
  DenseVector RowVector(size_t i) const;
  /// Copy of column j as a vector.
  DenseVector ColVector(size_t j) const;
  /// Largest absolute difference against another matrix of the same shape.
  double MaxAbsDiff(const DenseMatrix& other) const;

 private:
  size_t rows_;
  size_t cols_;
  AlignedDoubleBuffer data_;
};

}  // namespace linalg
}  // namespace spca

#endif  // SPCA_LINALG_DENSE_MATRIX_H_
