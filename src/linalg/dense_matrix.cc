#include "linalg/dense_matrix.h"

#include <cmath>

#include "common/rng.h"

namespace spca::linalg {

void DenseVector::Add(const DenseVector& other) {
  SPCA_CHECK_EQ(size(), other.size());
  for (size_t i = 0; i < data_.size(); ++i) data_[i] += other.data_[i];
}

void DenseVector::Subtract(const DenseVector& other) {
  SPCA_CHECK_EQ(size(), other.size());
  for (size_t i = 0; i < data_.size(); ++i) data_[i] -= other.data_[i];
}

void DenseVector::AddScaled(double alpha, const DenseVector& other) {
  SPCA_CHECK_EQ(size(), other.size());
  for (size_t i = 0; i < data_.size(); ++i) data_[i] += alpha * other.data_[i];
}

void DenseVector::Scale(double alpha) {
  for (auto& v : data_) v *= alpha;
}

void DenseVector::SetZero() {
  std::fill(data_.begin(), data_.end(), 0.0);
}

double DenseVector::Dot(const DenseVector& other) const {
  SPCA_CHECK_EQ(size(), other.size());
  double sum = 0.0;
  for (size_t i = 0; i < data_.size(); ++i) sum += data_[i] * other.data_[i];
  return sum;
}

double DenseVector::SquaredNorm() const {
  double sum = 0.0;
  for (double v : data_) sum += v * v;
  return sum;
}

double DenseVector::Norm2() const { return std::sqrt(SquaredNorm()); }

DenseMatrix DenseMatrix::Identity(size_t n) {
  DenseMatrix m(n, n);
  for (size_t i = 0; i < n; ++i) m(i, i) = 1.0;
  return m;
}

DenseMatrix DenseMatrix::GaussianRandom(size_t rows, size_t cols, Rng* rng,
                                        double stddev) {
  DenseMatrix m(rows, cols);
  for (auto& v : m.data_) v = rng->NextGaussian(0.0, stddev);
  return m;
}

void DenseMatrix::Add(const DenseMatrix& other) {
  SPCA_CHECK_EQ(rows_, other.rows_);
  SPCA_CHECK_EQ(cols_, other.cols_);
  for (size_t i = 0; i < data_.size(); ++i) data_[i] += other.data_[i];
}

void DenseMatrix::Subtract(const DenseMatrix& other) {
  SPCA_CHECK_EQ(rows_, other.rows_);
  SPCA_CHECK_EQ(cols_, other.cols_);
  for (size_t i = 0; i < data_.size(); ++i) data_[i] -= other.data_[i];
}

void DenseMatrix::AddScaled(double alpha, const DenseMatrix& other) {
  SPCA_CHECK_EQ(rows_, other.rows_);
  SPCA_CHECK_EQ(cols_, other.cols_);
  for (size_t i = 0; i < data_.size(); ++i) data_[i] += alpha * other.data_[i];
}

void DenseMatrix::Scale(double alpha) {
  for (auto& v : data_) v *= alpha;
}

void DenseMatrix::AddScaledIdentity(double alpha) {
  SPCA_CHECK_EQ(rows_, cols_);
  for (size_t i = 0; i < rows_; ++i) data_[i * cols_ + i] += alpha;
}

void DenseMatrix::SetZero() {
  std::fill(data_.begin(), data_.end(), 0.0);
}

DenseMatrix DenseMatrix::Transpose() const {
  DenseMatrix t(cols_, rows_);
  for (size_t i = 0; i < rows_; ++i) {
    for (size_t j = 0; j < cols_; ++j) {
      t(j, i) = (*this)(i, j);
    }
  }
  return t;
}

double DenseMatrix::Trace() const {
  SPCA_CHECK_EQ(rows_, cols_);
  double sum = 0.0;
  for (size_t i = 0; i < rows_; ++i) sum += data_[i * cols_ + i];
  return sum;
}

double DenseMatrix::FrobeniusNorm2() const {
  double sum = 0.0;
  for (double v : data_) sum += v * v;
  return sum;
}

DenseVector DenseMatrix::RowVector(size_t i) const {
  SPCA_CHECK_LT(i, rows_);
  DenseVector v(cols_);
  for (size_t j = 0; j < cols_; ++j) v[j] = (*this)(i, j);
  return v;
}

DenseVector DenseMatrix::ColVector(size_t j) const {
  SPCA_CHECK_LT(j, cols_);
  DenseVector v(rows_);
  for (size_t i = 0; i < rows_; ++i) v[i] = (*this)(i, j);
  return v;
}

double DenseMatrix::MaxAbsDiff(const DenseMatrix& other) const {
  SPCA_CHECK_EQ(rows_, other.rows_);
  SPCA_CHECK_EQ(cols_, other.cols_);
  double max_diff = 0.0;
  for (size_t i = 0; i < data_.size(); ++i) {
    max_diff = std::max(max_diff, std::fabs(data_[i] - other.data_[i]));
  }
  return max_diff;
}

}  // namespace spca::linalg
