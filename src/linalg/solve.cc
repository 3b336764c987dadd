#include "linalg/solve.h"

#include <cmath>
#include <vector>

namespace spca::linalg {

StatusOr<DenseMatrix> CholeskyFactor(const DenseMatrix& a) {
  if (a.rows() != a.cols()) {
    return Status::InvalidArgument("Cholesky requires a square matrix");
  }
  const size_t n = a.rows();
  DenseMatrix l(n, n);
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = 0; j <= i; ++j) {
      double sum = a(i, j);
      for (size_t k = 0; k < j; ++k) sum -= l(i, k) * l(j, k);
      if (i == j) {
        if (sum <= 0.0) {
          return Status::FailedPrecondition(
              "matrix is not positive definite");
        }
        l(i, i) = std::sqrt(sum);
      } else {
        l(i, j) = sum / l(j, j);
      }
    }
  }
  return l;
}

StatusOr<DenseMatrix> SolveSpd(const DenseMatrix& a, const DenseMatrix& b) {
  if (a.rows() != b.rows()) {
    return Status::InvalidArgument("SolveSpd: shape mismatch");
  }
  auto factor = CholeskyFactor(a);
  if (!factor.ok()) return factor.status();
  const DenseMatrix& l = factor.value();
  const size_t n = a.rows();
  DenseMatrix x = b;
  // Forward substitution: L * Z = B.
  for (size_t col = 0; col < b.cols(); ++col) {
    for (size_t i = 0; i < n; ++i) {
      double sum = x(i, col);
      for (size_t k = 0; k < i; ++k) sum -= l(i, k) * x(k, col);
      x(i, col) = sum / l(i, i);
    }
    // Backward substitution: L' * X = Z.
    for (size_t ii = n; ii-- > 0;) {
      double sum = x(ii, col);
      for (size_t k = ii + 1; k < n; ++k) sum -= l(k, ii) * x(k, col);
      x(ii, col) = sum / l(ii, ii);
    }
  }
  return x;
}

namespace {

/// LU factorization with partial pivoting of the square matrix in `lu`, in
/// place: unit-lower L below the diagonal, U on and above it. `perm[i]` is
/// the original row now at row i.
Status LuFactor(DenseMatrix* lu_matrix, std::vector<size_t>* perm) {
  DenseMatrix& lu = *lu_matrix;
  const size_t n = lu.rows();
  perm->resize(n);
  for (size_t i = 0; i < n; ++i) (*perm)[i] = i;

  for (size_t k = 0; k < n; ++k) {
    // Partial pivoting.
    size_t pivot = k;
    double max_abs = std::fabs(lu(k, k));
    for (size_t i = k + 1; i < n; ++i) {
      const double v = std::fabs(lu(i, k));
      if (v > max_abs) {
        max_abs = v;
        pivot = i;
      }
    }
    if (max_abs < 1e-300) {
      return Status::FailedPrecondition("matrix is numerically singular");
    }
    if (pivot != k) {
      for (size_t j = 0; j < n; ++j) std::swap(lu(k, j), lu(pivot, j));
      std::swap((*perm)[k], (*perm)[pivot]);
    }
    for (size_t i = k + 1; i < n; ++i) {
      lu(i, k) /= lu(k, k);
      const double lik = lu(i, k);
      if (lik == 0.0) continue;
      for (size_t j = k + 1; j < n; ++j) lu(i, j) -= lik * lu(k, j);
    }
  }
  return Status::Ok();
}

/// Solves row r of X * A = B from the LU factors of A' (the row of B is
/// the right-hand side, the row of X the solution) with SolveLu's permuted
/// forward and backward substitution, in SolveLu's operation order.
void SubstituteRow(const DenseMatrix& lu, const std::vector<size_t>& perm,
                   const DenseMatrix& b, size_t r, DenseMatrix* x) {
  const size_t n = lu.rows();
  const double* b_row = b.RowPtr(r);
  double* x_row = x->RowPtr(r);
  for (size_t i = 0; i < n; ++i) {
    const double* l = lu.RowPtr(i);
    double sum = b_row[perm[i]];
    for (size_t k = 0; k < i; ++k) sum -= l[k] * x_row[k];
    x_row[i] = sum;
  }
  for (size_t i = n; i-- > 0;) {
    const double* u = lu.RowPtr(i);
    double sum = x_row[i];
    for (size_t k = i + 1; k < n; ++k) sum -= u[k] * x_row[k];
    x_row[i] = sum / u[i];
  }
}

/// SubstituteRow for rows r..r+3 at once: four independent chains, each
/// in SubstituteRow's order, share every load of the factors.
void SubstituteFourRows(const DenseMatrix& lu, const std::vector<size_t>& perm,
                        const DenseMatrix& b, size_t r, DenseMatrix* x) {
  const size_t n = lu.rows();
  const double* b0 = b.RowPtr(r);
  const double* b1 = b.RowPtr(r + 1);
  const double* b2 = b.RowPtr(r + 2);
  const double* b3 = b.RowPtr(r + 3);
  double* x0 = x->RowPtr(r);
  double* x1 = x->RowPtr(r + 1);
  double* x2 = x->RowPtr(r + 2);
  double* x3 = x->RowPtr(r + 3);
  for (size_t i = 0; i < n; ++i) {
    const double* l = lu.RowPtr(i);
    const size_t p = perm[i];
    double s0 = b0[p], s1 = b1[p], s2 = b2[p], s3 = b3[p];
    for (size_t k = 0; k < i; ++k) {
      s0 -= l[k] * x0[k];
      s1 -= l[k] * x1[k];
      s2 -= l[k] * x2[k];
      s3 -= l[k] * x3[k];
    }
    x0[i] = s0;
    x1[i] = s1;
    x2[i] = s2;
    x3[i] = s3;
  }
  for (size_t i = n; i-- > 0;) {
    const double* u = lu.RowPtr(i);
    double s0 = x0[i], s1 = x1[i], s2 = x2[i], s3 = x3[i];
    for (size_t k = i + 1; k < n; ++k) {
      s0 -= u[k] * x0[k];
      s1 -= u[k] * x1[k];
      s2 -= u[k] * x2[k];
      s3 -= u[k] * x3[k];
    }
    x0[i] = s0 / u[i];
    x1[i] = s1 / u[i];
    x2[i] = s2 / u[i];
    x3[i] = s3 / u[i];
  }
}

}  // namespace

StatusOr<DenseMatrix> SolveLu(const DenseMatrix& a, const DenseMatrix& b) {
  if (a.rows() != a.cols()) {
    return Status::InvalidArgument("SolveLu requires a square matrix");
  }
  if (a.rows() != b.rows()) {
    return Status::InvalidArgument("SolveLu: shape mismatch");
  }
  const size_t n = a.rows();
  DenseMatrix lu = a;
  std::vector<size_t> perm;
  if (Status status = LuFactor(&lu, &perm); !status.ok()) return status;

  DenseMatrix x(n, b.cols());
  for (size_t col = 0; col < b.cols(); ++col) {
    // Apply permutation, then forward substitution with unit-lower L.
    for (size_t i = 0; i < n; ++i) {
      double sum = b(perm[i], col);
      for (size_t k = 0; k < i; ++k) sum -= lu(i, k) * x(k, col);
      x(i, col) = sum;
    }
    // Backward substitution with U.
    for (size_t ii = n; ii-- > 0;) {
      double sum = x(ii, col);
      for (size_t k = ii + 1; k < n; ++k) sum -= lu(ii, k) * x(k, col);
      x(ii, col) = sum / lu(ii, ii);
    }
  }
  return x;
}

StatusOr<DenseMatrix> Inverse(const DenseMatrix& a) {
  return SolveLu(a, DenseMatrix::Identity(a.rows()));
}

StatusOr<DenseMatrix> SolveRight(const DenseMatrix& b, const DenseMatrix& a) {
  if (a.rows() != a.cols() || b.cols() != a.rows()) {
    return Status::InvalidArgument("SolveRight: shape mismatch");
  }
  // X * A = B  <=>  A' * X' = B'. Factor A' once; row r of B is the
  // right-hand side SolveLu(A', B') would take as column r, so each row of
  // X is solved straight from its row of B, with no B' or X' transposes.
  DenseMatrix lu = a.Transpose();
  std::vector<size_t> perm;
  if (Status status = LuFactor(&lu, &perm); !status.ok()) return status;
  DenseMatrix x(b.rows(), b.cols());
  size_t r = 0;
  for (; r + 4 <= b.rows(); r += 4) SubstituteFourRows(lu, perm, b, r, &x);
  for (; r < b.rows(); ++r) SubstituteRow(lu, perm, b, r, &x);
  return x;
}

}  // namespace spca::linalg
