#ifndef SPCA_LINALG_QR_H_
#define SPCA_LINALG_QR_H_

#include "linalg/dense_matrix.h"

namespace spca::linalg {

/// A column of OrthonormalizeColumns counts as dependent on the columns
/// before it when its residual norm after projection is at most this
/// fraction of its norm before projection.
inline constexpr double kRankTolerance = 1e-12;

/// Gram–Schmidt orthonormalization of the *columns* of A (two passes of
/// modified Gram–Schmidt). Returns the orthonormalized matrix. Columns that
/// fail the kRankTolerance test, and all-zero columns, are replaced with
/// zeros. Used for orthonormalizing the principal-component basis C before
/// computing reconstruction error.
DenseMatrix OrthonormalizeColumns(const DenseMatrix& a);

}  // namespace spca::linalg

#endif  // SPCA_LINALG_QR_H_
