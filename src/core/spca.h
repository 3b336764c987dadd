#ifndef SPCA_CORE_SPCA_H_
#define SPCA_CORE_SPCA_H_

#include <functional>
#include <string_view>

#include "common/status.h"
#include "core/pca_model.h"
#include "core/solver.h"
#include "core/spca_options.h"
#include "dist/dist_matrix.h"
#include "dist/engine.h"
#include "linalg/dense_matrix.h"
#include "obs/registry.h"

namespace spca::core {

/// sPCA: scalable distributed Probabilistic PCA (the paper's Algorithm 4).
///
/// The driver program runs on a single machine and launches distributed
/// jobs for the operations that touch the full data — the mean job, the
/// Frobenius-norm job, and the per-iteration consolidated YtX job. With
/// SpcaOptions::driver_moments off, every iteration also runs the ss3 job,
/// exactly the decomposition of Figure 3; on (the default), ss3 comes
/// from YtX on the driver, and so does XtX on inputs of at least 2 * D
/// rows. All other algebra is d x d or D x d and executes on the driver.
///
/// Typical use:
///   dist::Engine engine(spec, dist::EngineMode::kSpark);
///   core::Spca spca(&engine, options);
///   auto result = spca.Solve(matrix);
///   result->model.components;  // D x d principal components
///
/// Warm starts and telemetry routing go through FitOptions:
///   FitOptions fit;
///   fit.components = previous.model.components;
///   fit.noise_variance = previous.model.noise_variance;
///   auto refit = spca.Solve(matrix, fit);
///
/// With SpcaOptions::l1_threshold > 0 every M-step also soft-thresholds C
/// (sparse loadings: interpretable components and proportionally fewer
/// serve-time Projector QueryFlops), and the solver is named
/// "spca_sparse".
///
/// Spca implements the incremental core::Solver surface through
/// BatchSolver: Step buffers batches and Result runs one Solve over
/// everything ingested.
class Spca : public BatchSolver {
 public:
  /// `engine` must outlive this object.
  Spca(dist::Engine* engine, const SpcaOptions& options)
      : engine_(engine), options_(options) {}

  /// Fits a PPCA model to the rows of `y`. Fails on degenerate input
  /// (fewer columns than components, an all-zero matrix, a warm start of
  /// the wrong shape, ...). `fit` carries the optional warm start and the
  /// optional telemetry registry; the default is a cold start.
  StatusOr<SolveResult> Solve(const dist::DistMatrix& y,
                              const FitOptions& fit = {}) const override;

  std::string_view name() const override {
    return options_.l1_threshold > 0.0 ? "spca_sparse" : "spca";
  }

  /// Restores a checkpoint written by FitOptions::on_checkpoint during a
  /// previous (possibly killed) solve: the checkpointed model becomes the
  /// warm start of the next Solve/Result. Because the warm-start path
  /// consumes no RNG draws and each EM iteration is a pure function of
  /// (C, ss, Y), running the remaining iterations from the checkpoint is
  /// bit-identical to the uninterrupted run. Iteration numbering restarts
  /// at 1; callers wanting global numbering offset by checkpoint.step.
  Status Restore(const PcaModel& model,
                 const SolverCheckpoint& checkpoint) override;

  const SpcaOptions& options() const { return options_; }

 private:
  /// The EM loop proper (Algorithm 4 lines 3-14) from a concrete starting
  /// point, emitting one spca.em_iteration span per pass. `on_checkpoint`
  /// (possibly empty) is invoked after every iteration with the current
  /// model; the smart-guess pre-fit passes an empty callback so sample
  /// fits are never checkpointed.
  StatusOr<SolveResult> RunEm(
      const dist::DistMatrix& y, linalg::DenseMatrix initial_components,
      double initial_ss, obs::Registry* registry,
      const std::function<Status(const PcaModel&, const SolverCheckpoint&)>&
          on_checkpoint = {}) const;

  dist::Engine* engine_;
  SpcaOptions options_;
};

}  // namespace spca::core

#endif  // SPCA_CORE_SPCA_H_
