#ifndef SPCA_BASELINES_BASELINE_SOLVERS_H_
#define SPCA_BASELINES_BASELINE_SOLVERS_H_

#include <memory>

#include "baselines/cov_eig_pca.h"
#include "baselines/lanczos_pca.h"
#include "baselines/ssvd_pca.h"
#include "baselines/svd_bidiag_pca.h"
#include "core/solver.h"
#include "dist/engine.h"

namespace spca::baselines {

/// Solver-surface adapters for the batch baselines: each factory wraps the
/// baseline's single-shot Fit in a core::FitFnSolver, so spca_cli and the
/// benches can drive every algorithm — sPCA, streaming, and baselines —
/// through the one core::Solver interface. `engine` must outlive the
/// returned solver. The baselines ignore FitOptions warm starts (none of
/// them supports one); the registry routing is theirs already via the
/// engine.

/// MLlib-PCA stand-in: D x D covariance + driver eigendecomposition.
std::unique_ptr<core::Solver> MakeCovEigSolver(dist::Engine* engine,
                                               const CovEigOptions& options);

/// Mahout-SSVD stand-in: randomized sketch + power iterations.
std::unique_ptr<core::Solver> MakeSsvdSolver(dist::Engine* engine,
                                             const SsvdOptions& options);

/// Mahout/Lanczos stand-in.
std::unique_ptr<core::Solver> MakeLanczosSolver(dist::Engine* engine,
                                                const LanczosOptions& options);

/// Golub-Kahan bidiagonalization SVD stand-in.
std::unique_ptr<core::Solver> MakeSvdBidiagSolver(
    dist::Engine* engine, const SvdBidiagOptions& options);

}  // namespace spca::baselines

#endif  // SPCA_BASELINES_BASELINE_SOLVERS_H_
