#include "linalg/qr.h"

#include <cmath>
#include <vector>

namespace spca::linalg {

StatusOr<QrResult> QrDecompose(const DenseMatrix& a) {
  const size_t n = a.rows();
  const size_t m = a.cols();
  if (n < m) {
    return Status::InvalidArgument("QrDecompose requires rows >= cols");
  }

  // Householder vectors are stored below the diagonal of `work`; R on/above.
  DenseMatrix work = a;
  std::vector<double> betas(m, 0.0);

  for (size_t k = 0; k < m; ++k) {
    // Compute the Householder reflector for column k below the diagonal.
    double norm2 = 0.0;
    for (size_t i = k; i < n; ++i) norm2 += work(i, k) * work(i, k);
    const double norm = std::sqrt(norm2);
    if (norm == 0.0) {
      betas[k] = 0.0;
      continue;
    }
    const double alpha = (work(k, k) >= 0.0) ? -norm : norm;
    const double vkk = work(k, k) - alpha;
    // v = (0..0, vkk, work(k+1..n-1, k)); beta = 2 / (v'v)
    double vtv = vkk * vkk;
    for (size_t i = k + 1; i < n; ++i) vtv += work(i, k) * work(i, k);
    const double beta = (vtv == 0.0) ? 0.0 : 2.0 / vtv;
    betas[k] = beta;

    // Apply the reflector to the remaining columns: A -= beta * v (v'A).
    for (size_t j = k + 1; j < m; ++j) {
      double dot = vkk * work(k, j);
      for (size_t i = k + 1; i < n; ++i) dot += work(i, k) * work(i, j);
      const double scale = beta * dot;
      work(k, j) -= scale * vkk;
      for (size_t i = k + 1; i < n; ++i) work(i, j) -= scale * work(i, k);
    }
    work(k, k) = alpha;
    // Store v (normalized so v_k = 1) below the diagonal.
    if (vkk != 0.0) {
      for (size_t i = k + 1; i < n; ++i) work(i, k) /= vkk;
      betas[k] = beta * vkk * vkk;
    } else {
      betas[k] = 0.0;
    }
  }

  QrResult result;
  result.r = DenseMatrix(m, m);
  for (size_t i = 0; i < m; ++i) {
    for (size_t j = i; j < m; ++j) result.r(i, j) = work(i, j);
  }

  // Form thin Q by applying the reflectors to the first m columns of I.
  result.q = DenseMatrix(n, m);
  for (size_t j = 0; j < m; ++j) result.q(j, j) = 1.0;
  for (size_t k = m; k-- > 0;) {
    if (betas[k] == 0.0) continue;
    for (size_t j = 0; j < m; ++j) {
      double dot = result.q(k, j);
      for (size_t i = k + 1; i < n; ++i) dot += work(i, k) * result.q(i, j);
      const double scale = betas[k] * dot;
      result.q(k, j) -= scale;
      for (size_t i = k + 1; i < n; ++i) {
        result.q(i, j) -= scale * work(i, k);
      }
    }
  }
  return result;
}

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
