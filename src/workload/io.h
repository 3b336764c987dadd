#ifndef SPCA_WORKLOAD_IO_H_
#define SPCA_WORKLOAD_IO_H_

#include <string>

#include "common/status.h"
#include "linalg/dense_matrix.h"
#include "linalg/sparse_matrix.h"

namespace spca::workload {

/// Writes a sparse matrix in a simple binary format (magic, shape, CSR
/// arrays). The on-disk size is what a real deployment would store in HDFS.
Status SaveSparseBinary(const linalg::SparseMatrix& matrix,
                        const std::string& path);

/// Reads a matrix written by SaveSparseBinary. A header claiming more than
/// 2^32 columns is InvalidArgument, refused before the matrix is built.
StatusOr<linalg::SparseMatrix> LoadSparseBinary(const std::string& path);

/// Writes a dense matrix in a simple binary format.
Status SaveDenseBinary(const linalg::DenseMatrix& matrix,
                       const std::string& path);

/// Reads a matrix written by SaveDenseBinary.
StatusOr<linalg::DenseMatrix> LoadDenseBinary(const std::string& path);

/// Writes a dense matrix as text: one row per line, space-separated
/// values. Human-inspectable; convenient for handing components to other
/// tools (numpy.loadtxt reads it directly).
Status SaveDenseText(const linalg::DenseMatrix& matrix,
                     const std::string& path);

/// Reads a matrix written by SaveDenseText (all rows must have the same
/// number of values).
StatusOr<linalg::DenseMatrix> LoadDenseText(const std::string& path);

/// Writes a sparse matrix as text, one row per line: "index:value" pairs
/// separated by spaces (libsvm-style, without labels). Human-inspectable.
Status SaveSparseText(const linalg::SparseMatrix& matrix,
                      const std::string& path);

/// Reads a matrix written by SaveSparseText. `cols` must be supplied (the
/// text format does not record trailing empty columns); more than 2^32 is
/// InvalidArgument, refused before the file is read.
StatusOr<linalg::SparseMatrix> LoadSparseText(const std::string& path,
                                              size_t cols);

}  // namespace spca::workload

#endif  // SPCA_WORKLOAD_IO_H_
