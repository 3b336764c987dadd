#include "linalg/solve.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <limits>

#include "linalg/ops.h"

namespace spca::linalg {

namespace {

bool AllFinite(const DenseMatrix& a) {
  for (size_t i = 0; i < a.rows(); ++i) {
    const double* row = a.RowPtr(i);
    for (size_t j = 0; j < a.cols(); ++j) {
      if (!std::isfinite(row[j])) return false;
    }
  }
  return true;
}

}  // namespace

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

StatusOr<DenseMatrix> UpperTriangularInverse(const DenseMatrix& r) {
  if (r.rows() != r.cols()) {
    return Status::InvalidArgument(
        "UpperTriangularInverse requires a square matrix");
  }
  const size_t n = r.rows();
  DenseMatrix x(n, n);
  for (size_t col = 0; col < n; ++col) {
    for (size_t i = n; i-- > 0;) {
      double sum = i == col ? 1.0 : 0.0;
      for (size_t k = i + 1; k < n; ++k) sum -= r(i, k) * x(k, col);
      x(i, col) = sum / r(i, i);
    }
  }
  if (!AllFinite(x)) {
    return Status::FailedPrecondition(
        "triangular matrix is singular or its inverse is not finite");
  }
  return x;
}

StatusOr<DenseMatrix> CholeskyInverse(const DenseMatrix& l) {
  if (!AllFinite(l)) {
    return Status::FailedPrecondition("Cholesky factor is not finite");
  }
  // A = L * L', so A^-1 = V * V' with V = (L')^-1 upper triangular, and
  // V * V' = W' * W for W = V': TransposeMultiply's Gram path forms its
  // upper triangle and mirrors it, so the inverse is exactly symmetric.
  auto v = UpperTriangularInverse(l.Transpose());
  if (!v.ok()) return v.status();
  const DenseMatrix w = v.value().Transpose();
  DenseMatrix inverse = TransposeMultiply(w, w);
  if (!AllFinite(inverse)) {
    return Status::FailedPrecondition("inverse is not finite");
  }
  return inverse;
}

double CholeskyConditionEstimate(const DenseMatrix& l) {
  double max_diag = 0.0;
  double min_diag = std::numeric_limits<double>::infinity();
  for (size_t i = 0; i < l.rows(); ++i) {
    for (size_t j = 0; j <= i; ++j) {
      if (!std::isfinite(l(i, j))) {
        return std::numeric_limits<double>::infinity();
      }
    }
    max_diag = std::max(max_diag, l(i, i));
    min_diag = std::min(min_diag, l(i, i));
  }
  const double ratio = max_diag / min_diag;
  return ratio * ratio;
}

StatusOr<DenseMatrix> Inverse(const DenseMatrix& a) {
  if (a.rows() != a.cols()) {
    return Status::InvalidArgument("Inverse requires a square matrix");
  }
  // CholeskyFactor reads only the lower triangle; an asymmetric A would
  // have some other matrix inverted in its place.
  for (size_t i = 0; i < a.rows(); ++i) {
    for (size_t j = 0; j <= i; ++j) {
      if (!std::isfinite(a(i, j))) {
        return Status::FailedPrecondition("matrix is not finite");
      }
      if (a(i, j) != a(j, i)) {
        return Status::InvalidArgument("Inverse requires a symmetric matrix");
      }
    }
  }
  auto factor = CholeskyFactor(a);
  if (!factor.ok()) return factor.status();
  const double condition = CholeskyConditionEstimate(factor.value());
  if (!(condition <= kInverseConditionBound)) {
    char message[128];
    std::snprintf(message, sizeof(message),
                  "matrix is ill-conditioned or its Cholesky factor is not "
                  "finite (condition estimate %.3g)",
                  condition);
    return Status::FailedPrecondition(message);
  }
  return CholeskyInverse(factor.value());
}

StatusOr<DenseMatrix> SolveRight(const DenseMatrix& b, const DenseMatrix& a) {
  if (a.rows() != a.cols() || b.cols() != a.rows()) {
    return Status::InvalidArgument("SolveRight: shape mismatch");
  }
  auto inverse = Inverse(a);
  if (!inverse.ok()) return inverse.status();
  return Multiply(b, inverse.value());
}

}  // namespace spca::linalg
