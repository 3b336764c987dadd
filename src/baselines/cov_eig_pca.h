#ifndef SPCA_BASELINES_COV_EIG_PCA_H_
#define SPCA_BASELINES_COV_EIG_PCA_H_

#include <string_view>

#include "common/status.h"
#include "core/solver.h"
#include "dist/dist_matrix.h"
#include "dist/engine.h"

namespace spca::baselines {

/// Options for CovEigPca.
struct CovEigOptions {
  size_t num_components = 50;
  uint64_t seed = 3;
  /// Iteration cap for the matrix-free subspace iteration that stands in
  /// for the dense eigensolver (it exits earlier once converged).
  int subspace_iterations = 200;
  /// Modeled driver-memory blow-up factor for the D x D covariance: the
  /// paper observes MLlib-PCA consuming ~26 GB at D = 6,000 (Figure 8),
  /// i.e. ~90x the raw 8-byte matrix (JVM object headers, working copies,
  /// the eigensolver's workspace). Failure past D ~ 6,000 on a 32 GB
  /// driver falls out of this factor.
  double driver_memory_factor = 90.0;
};

/// The covariance-eigendecomposition PCA of Section 2.1 — the algorithm in
/// MLlib-PCA (Spark) and RScaLAPACK. One distributed pass accumulates the
/// D x D Gram/covariance matrix on the driver, which then eigendecomposes
/// it locally. Deterministic (no iterations), O(ND*min(N,D)) time and
/// O(D^2) communication (Table 1); fails with OUT_OF_MEMORY when the
/// driver cannot hold the covariance matrix — exactly MLlib-PCA's failure
/// mode for D > ~6,000 on 32 GB machines (Figures 7 and 8).
///
/// Simulation note: time/memory/communication are charged for the
/// materialized D x D covariance and the full local eigendecomposition
/// (what MLlib really does); the numerical result itself is produced with
/// an equivalent matrix-free subspace iteration so the benchmark suite
/// stays runnable at large D on one machine.
///
/// One pass, so SolveResult::iterations_run is 1; SolveResult::driver_bytes
/// is the modeled peak driver-resident bytes (Figure 8's y-axis). Warm
/// starts in core::FitOptions are ignored.
class CovEigPca : public core::BatchSolver {
 public:
  /// `engine` must outlive this object.
  CovEigPca(dist::Engine* engine, const CovEigOptions& options)
      : engine_(engine), options_(options) {}

  StatusOr<core::SolveResult> Solve(
      const dist::DistMatrix& y,
      const core::FitOptions& fit = {}) const override;

  std::string_view name() const override { return "mllib"; }

 private:
  dist::Engine* engine_;
  CovEigOptions options_;
};

}  // namespace spca::baselines

#endif  // SPCA_BASELINES_COV_EIG_PCA_H_
