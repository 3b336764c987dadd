#include "linalg/sparse_matrix.h"

#include <cmath>

namespace spca::linalg {

double SparseRowView::Dot(const DenseVector& dense) const {
  SPCA_CHECK_EQ(dim_, dense.size());
  double sum = 0.0;
  for (const auto& e : entries_) sum += e.value * dense[e.index];
  return sum;
}

double SparseRowView::SquaredNorm() const {
  double sum = 0.0;
  for (const auto& e : entries_) sum += e.value * e.value;
  return sum;
}

SparseVector::SparseVector(std::vector<SparseEntry> entries, size_t dim)
    : entries_(std::move(entries)), dim_(dim) {
  for (size_t k = 0; k < entries_.size(); ++k) {
    SPCA_CHECK_LT(entries_[k].index, dim_);
    if (k > 0) SPCA_CHECK_LT(entries_[k - 1].index, entries_[k].index);
  }
}

SparseVector SparseVector::FromDense(const DenseVector& dense,
                                     double tolerance) {
  std::vector<SparseEntry> entries;
  for (size_t i = 0; i < dense.size(); ++i) {
    if (std::fabs(dense[i]) > tolerance) {
      entries.push_back({static_cast<uint32_t>(i), dense[i]});
    }
  }
  return SparseVector(std::move(entries), dense.size());
}

SparseMatrix::SparseMatrix(size_t rows, size_t cols)
    : rows_(rows), cols_(cols) {
  row_ptr_.assign(rows + 1, 0);
  appended_rows_ = 0;
}

void SparseMatrix::AppendRow(size_t row, std::span<const SparseEntry> entries) {
  SPCA_CHECK_EQ(row, appended_rows_);
  SPCA_CHECK_LT(row, rows_);
  for (size_t k = 0; k < entries.size(); ++k) {
    SPCA_CHECK_LT(entries[k].index, cols_);
    if (k > 0) SPCA_CHECK_LT(entries[k - 1].index, entries[k].index);
    entries_.push_back(entries[k]);
  }
  row_ptr_[row + 1] = entries_.size();
  ++appended_rows_;
}

DenseMatrix SparseMatrix::ToDense() const {
  DenseMatrix dense(rows_, cols_);
  for (size_t i = 0; i < rows_; ++i) {
    for (const auto& e : Row(i)) dense(i, e.index) = e.value;
  }
  return dense;
}

SparseMatrix SparseMatrix::FromDense(const DenseMatrix& dense,
                                     double tolerance) {
  SparseMatrix sparse(dense.rows(), dense.cols());
  std::vector<SparseEntry> row;
  for (size_t i = 0; i < dense.rows(); ++i) {
    row.clear();
    for (size_t j = 0; j < dense.cols(); ++j) {
      if (std::fabs(dense(i, j)) > tolerance) {
        row.push_back({static_cast<uint32_t>(j), dense(i, j)});
      }
    }
    sparse.AppendRow(i, row);
  }
  return sparse;
}

DenseVector SparseMatrix::ColumnMeans() const {
  DenseVector means(cols_);
  for (const auto& e : entries_) means[e.index] += e.value;
  if (rows_ > 0) means.Scale(1.0 / static_cast<double>(rows_));
  return means;
}

double SparseMatrix::FrobeniusNorm2() const {
  double sum = 0.0;
  for (const auto& e : entries_) sum += e.value * e.value;
  return sum;
}

}  // namespace spca::linalg
