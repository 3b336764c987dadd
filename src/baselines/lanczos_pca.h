#ifndef SPCA_BASELINES_LANCZOS_PCA_H_
#define SPCA_BASELINES_LANCZOS_PCA_H_

#include <string_view>

#include "common/status.h"
#include "core/solver.h"
#include "dist/dist_matrix.h"
#include "dist/engine.h"

namespace spca::baselines {

/// Options for LanczosPca.
struct LanczosOptions {
  size_t num_components = 50;
  /// Krylov subspace size; defaults to 2 * num_components when 0.
  size_t lanczos_steps = 0;
  uint64_t seed = 5;
};

/// SVD-Lanczos PCA (Section 2.2; implemented by Mahout and GraphLab):
/// Golub–Kahan–Lanczos bidiagonalization where each step multiplies the
/// *mean-centered* matrix (and its transpose) with a vector. The paper's
/// criticism — which this implementation models — is that mean-centering
/// destroys sparsity: every matrix–vector product is charged at dense cost
/// O(N*D) because Yc is dense even when Y is sparse, giving O(N*D^2)-class
/// total cost for PCA. (The arithmetic itself is evaluated with mean
/// propagation so results are exact and the benchmarks stay runnable.)
///
/// One Krylov run, so SolveResult::iterations_run is 1. Warm starts in
/// core::FitOptions are ignored.
class LanczosPca : public core::BatchSolver {
 public:
  /// `engine` must outlive this object.
  LanczosPca(dist::Engine* engine, const LanczosOptions& options)
      : engine_(engine), options_(options) {}

  StatusOr<core::SolveResult> Solve(
      const dist::DistMatrix& y,
      const core::FitOptions& fit = {}) const override;

  std::string_view name() const override { return "lanczos"; }

 private:
  dist::Engine* engine_;
  LanczosOptions options_;
};

}  // namespace spca::baselines

#endif  // SPCA_BASELINES_LANCZOS_PCA_H_
