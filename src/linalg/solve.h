#ifndef SPCA_LINALG_SOLVE_H_
#define SPCA_LINALG_SOLVE_H_

#include "common/status.h"
#include "linalg/dense_matrix.h"

namespace spca::linalg {

// The d x d solves of the library are all of symmetric positive-definite
// (SPD) matrices: M = C'C + ss*I and XtX + ss*M^-1 in the PPCA EM
// iteration, and the Gram matrix C'C of the error sample. The one
// triangular routine serves their Cholesky factors and ssvd's R.

/// Cholesky factorization of a symmetric positive-definite matrix:
/// A = L * L' with L lower triangular. Reads only the lower triangle of
/// A. Fails if A is not SPD (within numerical tolerance).
StatusOr<DenseMatrix> CholeskyFactor(const DenseMatrix& a);

/// R^-1 of an upper-triangular R by back substitution, one column of
/// R * X = I at a time. Reads only the upper triangle of R. Fails when the
/// inverse is not finite (a zero or tiny diagonal entry).
StatusOr<DenseMatrix> UpperTriangularInverse(const DenseMatrix& r);

/// A^-1 from A's Cholesky factor L, exactly symmetric. Fails when L or the
/// inverse is not finite.
StatusOr<DenseMatrix> CholeskyInverse(const DenseMatrix& l);

/// (max L_ii / min L_ii)^2 of the Cholesky factor L of A = L * L': a lower
/// bound on the 2-norm condition number of A, read off the factor alone.
/// +infinity when L is not finite.
double CholeskyConditionEstimate(const DenseMatrix& l);

/// The largest CholeskyConditionEstimate Inverse accepts. An exactly
/// rank-deficient A whose last Cholesky pivot rounds positive instead of
/// to zero leaves a pivot of rounding size and an estimate near
/// 1 / epsilon; the ill-conditioned but regular inputs of the library
/// (the n = 6 Hilbert matrix, every EM iteration) stay orders of magnitude
/// below the bound.
inline constexpr double kInverseConditionBound = 1e12;

/// Inverse of an SPD matrix: one Cholesky factorization, then
/// CholeskyInverse, so the result is exactly symmetric. InvalidArgument
/// when A is not square or not exactly symmetric; FailedPrecondition when
/// A is not finite or not positive definite, when its factor's
/// CholeskyConditionEstimate exceeds kInverseConditionBound, or when its
/// inverse is not finite.
StatusOr<DenseMatrix> Inverse(const DenseMatrix& a);

/// Solves X * A = B, i.e. X = B * A^{-1} — the paper's `B / A` notation
/// (line "C = YtX / XtX" in Algorithm 1) — as Multiply(B, Inverse(A)).
/// A is SPD (d x d); B is (n x d). Fails as Inverse does.
StatusOr<DenseMatrix> SolveRight(const DenseMatrix& b, const DenseMatrix& a);

}  // namespace spca::linalg

#endif  // SPCA_LINALG_SOLVE_H_
