#ifndef SPCA_BASELINES_SVD_BIDIAG_PCA_H_
#define SPCA_BASELINES_SVD_BIDIAG_PCA_H_

#include <string_view>

#include "common/status.h"
#include "core/solver.h"
#include "dist/dist_matrix.h"
#include "dist/engine.h"

namespace spca::baselines {

/// Options for SvdBidiagPca.
struct SvdBidiagOptions {
  size_t num_components = 50;
};

/// The SVD-Bidiag method of Section 2.2 (Demmel–Kahan; implemented by
/// RScaLAPACK): (i) QR-decompose the mean-centered input, (ii) reduce R to
/// bidiagonal form, (iii) SVD the bidiagonal matrix. O(ND^2 + D^3) time
/// and O(max((N+D)d, D^2)) communication (Table 1) — only viable for small
/// D, which is why it appears in the analysis benchmark rather than the
/// headline comparisons.
///
/// The distributed QR is realized as Cholesky-QR (R from the D x D Gram);
/// steps (ii) and (iii) run on the driver using the library's Householder
/// bidiagonalization and Jacobi SVD.
///
/// One pass, so SolveResult::iterations_run is 1. core::FitOptions is
/// ignored: no warm start, and no span of its own to route.
class SvdBidiagPca : public core::BatchSolver {
 public:
  /// `engine` must outlive this object.
  SvdBidiagPca(dist::Engine* engine, const SvdBidiagOptions& options)
      : engine_(engine), options_(options) {}

  StatusOr<core::SolveResult> Solve(
      const dist::DistMatrix& y,
      const core::FitOptions& fit = {}) const override;

  std::string_view name() const override { return "bidiag"; }

 private:
  dist::Engine* engine_;
  SvdBidiagOptions options_;
};

}  // namespace spca::baselines

#endif  // SPCA_BASELINES_SVD_BIDIAG_PCA_H_
