#include "dist/dist_matrix.h"

#include <algorithm>
#include <atomic>
#include <cstring>

#include "linalg/kernels.h"
#include "linalg/ops.h"

namespace spca::dist {

using linalg::DenseMatrix;
using linalg::DenseVector;
using linalg::SparseEntry;
using linalg::SparseMatrix;

std::vector<RowRange> DistMatrix::MakePartitions(size_t rows,
                                                 size_t num_partitions) {
  SPCA_CHECK_GT(num_partitions, 0u);
  num_partitions = std::min(num_partitions, std::max<size_t>(rows, 1));
  std::vector<RowRange> partitions;
  const size_t base = rows / num_partitions;
  const size_t extra = rows % num_partitions;
  size_t begin = 0;
  for (size_t p = 0; p < num_partitions; ++p) {
    const size_t size = base + (p < extra ? 1 : 0);
    partitions.push_back(RowRange{begin, begin + size, p});
    begin += size;
  }
  SPCA_CHECK_EQ(begin, rows);
  return partitions;
}

uint64_t DistMatrix::NextStorageKey() {
  static std::atomic<uint64_t> next{1};
  return next.fetch_add(1, std::memory_order_relaxed);
}

DistMatrix DistMatrix::FromSparse(SparseMatrix matrix, size_t num_partitions) {
  DistMatrix dm;
  dm.storage_ = Storage::kSparse;
  dm.storage_key_ = NextStorageKey();
  dm.rows_ = matrix.rows();
  dm.cols_ = matrix.cols();
  dm.sparse_ = std::make_shared<const SparseMatrix>(std::move(matrix));
  dm.partitions_ = MakePartitions(dm.rows_, num_partitions);
  return dm;
}

DistMatrix DistMatrix::FromDense(DenseMatrix matrix, size_t num_partitions) {
  DistMatrix dm;
  dm.storage_ = Storage::kDense;
  dm.storage_key_ = NextStorageKey();
  dm.rows_ = matrix.rows();
  dm.cols_ = matrix.cols();
  dm.dense_ = std::make_shared<const DenseMatrix>(std::move(matrix));
  dm.partitions_ = MakePartitions(dm.rows_, num_partitions);
  return dm;
}

size_t DistMatrix::StoredEntries() const {
  return is_sparse() ? sparse_->nnz() : dense_->size();
}

size_t DistMatrix::ByteSize() const {
  return is_sparse() ? sparse_->ByteSize() : dense_->ByteSize();
}

const SparseMatrix& DistMatrix::sparse() const {
  SPCA_CHECK(is_sparse());
  return *sparse_;
}

const DenseMatrix& DistMatrix::dense() const {
  SPCA_CHECK(!is_sparse());
  return *dense_;
}

size_t DistMatrix::RowNnz(size_t i) const {
  return is_sparse() ? sparse_->Row(i).nnz() : cols_;
}

void DistMatrix::RowTimesMatrix(size_t i, const DenseMatrix& b,
                                DenseVector* out) const {
  SPCA_CHECK_EQ(b.rows(), cols_);
  SPCA_CHECK_EQ(out->size(), b.cols());
  out->SetZero();
  if (is_sparse()) {
    const auto row = sparse_->Row(i);
    linalg::kernels::SparseRowGemv(row.begin(), row.nnz(), b.data(),
                                   b.row_stride(), b.cols(), out->data());
  } else {
    linalg::kernels::RowGemm(dense_->RowPtr(i), cols_, b.data(),
                             b.row_stride(), b.cols(), out->data());
  }
}

void DistMatrix::AddRowOuterProduct(size_t i, const DenseVector& x,
                                    DenseMatrix* out) const {
  SPCA_CHECK_EQ(out->rows(), cols_);
  SPCA_CHECK_EQ(out->cols(), x.size());
  if (is_sparse()) {
    for (const auto& e : sparse_->Row(i)) {
      linalg::kernels::AxpyRow(e.value, x.data(), x.size(),
                               out->RowPtr(e.index));
    }
  } else {
    linalg::kernels::Rank1Update(dense_->RowPtr(i), cols_, x.data(), x.size(),
                                 out->data(), out->row_stride());
  }
}

double DistMatrix::RowDot(size_t i, const DenseVector& v) const {
  SPCA_CHECK_EQ(v.size(), cols_);
  if (is_sparse()) return sparse_->Row(i).Dot(v);
  return linalg::kernels::DotRow(dense_->RowPtr(i), v.data(), cols_);
}

double DistMatrix::RowSquaredNorm(size_t i) const {
  if (is_sparse()) return sparse_->Row(i).SquaredNorm();
  const double* row = dense_->RowPtr(i);
  return linalg::kernels::DotRow(row, row, cols_);
}

DenseVector DistMatrix::ColumnMeans() const {
  return is_sparse() ? sparse_->ColumnMeans() : linalg::ColumnMeans(*dense_);
}

double DistMatrix::FrobeniusNorm2() const {
  return is_sparse() ? sparse_->FrobeniusNorm2() : dense_->FrobeniusNorm2();
}

DenseMatrix DistMatrix::ToDenseSlice(size_t begin, size_t end) const {
  SPCA_CHECK_LE(begin, end);
  SPCA_CHECK_LE(end, rows_);
  DenseMatrix slice(end - begin, cols_);
  if (is_sparse()) {
    for (size_t i = begin; i < end; ++i) {
      ForEachEntry(i, [&](size_t j, double v) { slice(i - begin, j) = v; });
    }
  } else {
    for (size_t i = begin; i < end; ++i) {
      std::memcpy(slice.RowPtr(i - begin), dense_->RowPtr(i),
                  cols_ * sizeof(double));
    }
  }
  return slice;
}

DistMatrix DistMatrix::SampleRows(std::span<const size_t> row_indices,
                                  size_t num_partitions) const {
  if (is_sparse()) {
    SparseMatrix sample(row_indices.size(), cols_);
    std::vector<SparseEntry> row;
    for (size_t out = 0; out < row_indices.size(); ++out) {
      const size_t i = row_indices[out];
      SPCA_CHECK_LT(i, rows_);
      const auto view = sparse_->Row(i);
      row.assign(view.begin(), view.end());
      sample.AppendRow(out, row);
    }
    return FromSparse(std::move(sample), num_partitions);
  }
  DenseMatrix sample(row_indices.size(), cols_);
  for (size_t out = 0; out < row_indices.size(); ++out) {
    const size_t i = row_indices[out];
    SPCA_CHECK_LT(i, rows_);
    std::memcpy(sample.RowPtr(out), dense_->RowPtr(i),
                cols_ * sizeof(double));
  }
  return FromDense(std::move(sample), num_partitions);
}

DistMatrix DistMatrix::ConcatRows(std::span<const DistMatrix> parts,
                                  size_t num_partitions) {
  SPCA_CHECK_GT(parts.size(), 0u);
  const size_t cols = parts[0].cols();
  const Storage storage = parts[0].storage();
  size_t total_rows = 0;
  for (const DistMatrix& part : parts) {
    SPCA_CHECK_EQ(part.cols(), cols);
    SPCA_CHECK(part.storage() == storage);
    total_rows += part.rows();
  }
  if (storage == Storage::kSparse) {
    SparseMatrix stacked(total_rows, cols);
    std::vector<SparseEntry> row;
    size_t out = 0;
    for (const DistMatrix& part : parts) {
      for (size_t i = 0; i < part.rows(); ++i) {
        const auto view = part.sparse().Row(i);
        row.assign(view.begin(), view.end());
        stacked.AppendRow(out++, row);
      }
    }
    return FromSparse(std::move(stacked), num_partitions);
  }
  DenseMatrix stacked(total_rows, cols);
  size_t out = 0;
  for (const DistMatrix& part : parts) {
    for (size_t i = 0; i < part.rows(); ++i) {
      std::memcpy(stacked.RowPtr(out++), part.dense().RowPtr(i),
                  cols * sizeof(double));
    }
  }
  return FromDense(std::move(stacked), num_partitions);
}

}  // namespace spca::dist
