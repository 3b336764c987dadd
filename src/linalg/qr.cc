#include "linalg/qr.h"

#include <cmath>

namespace spca::linalg {

DenseMatrix OrthonormalizeColumns(const DenseMatrix& a) {
  // Two-pass modified Gram–Schmidt on the rows of A' — the columns of A,
  // made contiguous — in the operation order of the column-strided loops.
  // Column j's second pass runs in lockstep with column j + 1's first
  // pass, which needs the same finished rows q_0..q_{j-1}: two independent
  // dot-product chains share each load of q_k. Plain loops rather than the
  // dispatched kernels, so every ISA gets the same bits.
  const size_t n = a.rows();
  const size_t m = a.cols();
  DenseMatrix qt = a.Transpose();
  const auto squared_norm = [n](const double* q) {
    double sum = 0.0;
    for (size_t i = 0; i < n; ++i) sum += q[i] * q[i];
    return sum;
  };
  const auto project_out = [n](const double* qk, double* q) {
    double dot = 0.0;
    for (size_t i = 0; i < n; ++i) dot += qk[i] * q[i];
    for (size_t i = 0; i < n; ++i) q[i] -= dot * qk[i];
  };
  // Squared norm of column j before any projection, for the rank test.
  double before = m > 0 ? squared_norm(qt.RowPtr(0)) : 0.0;
  for (size_t j = 0; j < m; ++j) {
    double* qj = qt.RowPtr(j);  // first pass done in step j - 1
    double* next = j + 1 < m ? qt.RowPtr(j + 1) : nullptr;
    const double before_j = before;
    if (next != nullptr) before = squared_norm(next);
    for (size_t k = 0; k < j; ++k) {
      const double* qk = qt.RowPtr(k);
      if (next == nullptr) {
        project_out(qk, qj);
        continue;
      }
      double dot_j = 0.0;
      double dot_next = 0.0;
      for (size_t i = 0; i < n; ++i) {
        dot_j += qk[i] * qj[i];
        dot_next += qk[i] * next[i];
      }
      for (size_t i = 0; i < n; ++i) {
        qj[i] -= dot_j * qk[i];
        next[i] -= dot_next * qk[i];
      }
    }
    const double norm = std::sqrt(squared_norm(qj));
    // Rank test relative to the column's own norm, so it does not depend
    // on the scale of A; an all-zero column (0 <= 0) stays zero.
    if (norm <= kRankTolerance * std::sqrt(before_j)) {
      for (size_t i = 0; i < n; ++i) qj[i] = 0.0;
    } else {
      for (size_t i = 0; i < n; ++i) qj[i] /= norm;
    }
    if (next != nullptr) project_out(qj, next);  // its first pass, k = j
  }
  return qt.Transpose();
}

}  // namespace spca::linalg
