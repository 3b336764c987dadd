#ifndef SPCA_BASELINES_SSVD_PCA_H_
#define SPCA_BASELINES_SSVD_PCA_H_

#include <string_view>

#include "common/status.h"
#include "core/solver.h"
#include "dist/dist_matrix.h"
#include "dist/engine.h"

namespace spca::baselines {

/// Options for SsvdPca.
struct SsvdOptions {
  size_t num_components = 50;
  /// Oversampling columns p: the random projection uses k = d + p columns.
  size_t oversampling = 15;
  /// Maximum power-iteration refinement rounds (the algorithm's accuracy
  /// knob; each round improves the randomized range approximation).
  int max_power_iterations = 10;
  /// Stop once this fraction of the ideal accuracy is reached (like the
  /// paper's 95% target); set above 1.0 to always run all rounds.
  double target_accuracy_fraction = 0.95;
  size_t error_sample_rows = 256;
  uint64_t seed = 2;
  /// Record the accuracy/time trace after every refinement round. Each
  /// trace point requires a B job + local SVD, which is charged to the
  /// simulated time (Mahout really pays this to produce output).
  bool compute_accuracy_trace = true;

  /// Ideal-accuracy anchor shared across algorithms (see
  /// core::SpcaOptions::ideal_error_override); 0 = compute automatically
  /// via a hidden converged PPCA fit.
  double ideal_error_override = 0.0;
};

/// Stochastic SVD PCA (Section 2.3) — the algorithm behind Mahout-PCA.
/// Randomized range finding (Halko): Y0 = Yc * Omega, Q = qr(Y0), optional
/// power iterations Y <- Yc * (Yc' * Q), then B = Q' * Yc and an SVD of the
/// small B. Like Mahout's PCA option, the mean is kept separate from the
/// sparse input and propagated through the products.
///
/// Its scalability problem, which the paper measures, is intermediate
/// data: Y0 and Q are N x k *dense* matrices materialized between phases,
/// and the Bt job's mappers emit k x D dense partials — 961 GB for the
/// Tweets dataset versus sPCA's 131 MB.
///
/// Each refinement round is one trace point (see core::AccuracyTracker).
/// Warm starts in core::FitOptions are ignored: the algorithm has none.
class SsvdPca : public core::BatchSolver {
 public:
  /// `engine` must outlive this object.
  SsvdPca(dist::Engine* engine, const SsvdOptions& options)
      : engine_(engine), options_(options) {}

  StatusOr<core::SolveResult> Solve(
      const dist::DistMatrix& y,
      const core::FitOptions& fit = {}) const override;

  std::string_view name() const override { return "mahout"; }

 private:
  dist::Engine* engine_;
  SsvdOptions options_;
};

}  // namespace spca::baselines

#endif  // SPCA_BASELINES_SSVD_PCA_H_
