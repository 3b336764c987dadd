#ifndef SPCA_STREAM_STREAM_SOLVER_H_
#define SPCA_STREAM_STREAM_SOLVER_H_

#include <cstdint>
#include <functional>
#include <string_view>
#include <vector>

#include "common/rng.h"
#include "common/status.h"
#include "common/stopwatch.h"
#include "core/solver.h"
#include "dist/comm_stats.h"
#include "dist/dist_matrix.h"
#include "dist/engine.h"
#include "linalg/dense_matrix.h"
#include "obs/registry.h"

namespace spca::stream {

/// Options shared by the streaming solvers.
struct StreamSolverOptions {
  size_t num_components = 50;
  uint64_t seed = 1;
  /// EMA weight for the running sufficient statistics (mini-batch EM) and
  /// the running residual estimates (Oja). 0 selects the flat average
  /// rho_t = 1/t — the right choice for a stationary stream; a fixed
  /// rho in (0, 1] forgets exponentially and tracks drifting streams.
  double decay = 0.2;
  /// Oja learning-rate schedule eta_t = eta0 / (1 + t / tau). The default
  /// is sized so a random orthonormal init separates signal from noise
  /// directions within a handful of unit-variance mini-batches; halving it
  /// roughly doubles the steps to convergence.
  double eta0 = 2.0;
  double tau = 50.0;
  /// Lazy reorthonormalization period, in mini-batch steps, for the Oja
  /// solver: the basis is allowed to shear for this many gradient steps
  /// before one QR pass restores orthonormality ("lazy" per Lazy
  /// stochastic PCA). Snapshot() always returns an orthonormal basis
  /// regardless. Mini-batch EM ignores this — its M-step solve keeps C
  /// conditioned without explicit reorthogonalization.
  size_t reorth_every = 8;
};

/// The Solver surface both streaming solvers share: Init's reset and warm
/// start, the first-batch shape checks and seeded cold start, the
/// `stream.step` span around each Step with its running exact mean, the
/// per-step trace point, `stream.*` metrics and checkpoint callback, and
/// the Snapshot/Checkpoint/Restore/Result preconditions. A solver supplies
/// only its update rule and its own state through the protected hooks.
class StreamSolver : public core::Solver {
 public:
  Status Init(const core::FitOptions& options) final;
  Status Step(const dist::DistMatrix& batch) final;
  StatusOr<core::PcaModel> Snapshot() const final;
  StatusOr<core::SolveResult> Result() final;

  /// Full resume state: the shared step/row counters and exact mean
  /// accumulator plus the solver's own fields. Restoring (Snapshot(),
  /// Checkpoint()) into a freshly Init()ed solver makes subsequent Steps
  /// bit-identical to the uninterrupted run.
  StatusOr<core::SolverCheckpoint> Checkpoint() const final;
  Status Restore(const core::PcaModel& model,
                 const core::SolverCheckpoint& checkpoint) final;

  size_t steps() const { return steps_; }
  uint64_t rows_seen() const { return rows_seen_; }

 protected:
  /// `engine` must outlive this object.
  StreamSolver(dist::Engine* engine, const StreamSolverOptions& options)
      : engine_(engine), options_(options) {}

  /// Resets the solver's own state on Init; c_ already holds the warm
  /// start (D x d), or is empty for a cold start.
  virtual Status ResetState(const core::FitOptions& options) = 0;
  /// Finishes a cold start: c_ holds a D x d Gaussian draw from `rng`,
  /// seeded with options_.seed; later draws continue from `rng`.
  virtual void ColdStart(Rng* rng) = 0;
  /// Applies one batch; the running mean_ already includes it and steps_
  /// still counts the steps before it.
  virtual Status Update(const dist::DistMatrix& batch) = 0;
  /// The published noise variance (also the per-step traced ss).
  virtual double NoiseVariance() const = 0;
  /// The published D x d basis.
  virtual linalg::DenseMatrix Components() const = 0;
  /// Appends the solver's own scalars and matrices to a checkpoint.
  virtual void SaveState(core::SolverCheckpoint* checkpoint) const = 0;
  /// Validates and installs the solver's own checkpoint fields (including
  /// c_) for input dimensionality `dim`; changes nothing on error.
  virtual Status RestoreState(const core::PcaModel& model,
                              const core::SolverCheckpoint& checkpoint,
                              size_t dim) = 0;

  dist::Engine* engine_;
  StreamSolverOptions options_;
  obs::Registry* registry_ = nullptr;
  size_t dim_ = 0;  // fixed by the first batch
  size_t steps_ = 0;
  uint64_t rows_seen_ = 0;
  linalg::DenseVector mean_;
  linalg::DenseMatrix c_;  // D x d

 private:
  std::function<Status(const core::PcaModel&, const core::SolverCheckpoint&)>
      on_checkpoint_;
  linalg::DenseVector mean_sum_;  // running column sums (exact mean)
  std::vector<core::IterationTrace> trace_;
  dist::CommStats stats_before_;
  double sim_before_ = 0.0;
  size_t first_job_index_ = 0;
  Stopwatch wall_;
};

/// Mini-batch stochastic EM for PPCA on an unbounded row stream.
///
/// State between batches is exactly the servable triple (mean, C, ss) plus
/// EMA-blended per-row sufficient statistics (E[x x'], E[y' x], E||yc||^2).
/// Each Step runs the batch solver's EM iteration (core/jobs.h: the same
/// driver algebra and distributed jobs, hence the same cost accounting and
/// replayable traces) with the current batch's statistics blended into the
/// running ones before the M-step. A first Step over all rows is therefore
/// one batch EM iteration, up to the rounding of the per-row rescaling.
/// Its checkpoint carries the EMA-blended sufficient statistics.
class MiniBatchEmSolver : public StreamSolver {
 public:
  /// `engine` must outlive this object.
  MiniBatchEmSolver(dist::Engine* engine, const StreamSolverOptions& options)
      : StreamSolver(engine, options) {}

  std::string_view name() const override { return "minibatch_em"; }
  double noise_variance() const { return ss_; }

 private:
  Status ResetState(const core::FitOptions& options) override;
  void ColdStart(Rng* rng) override;
  Status Update(const dist::DistMatrix& batch) override;
  double NoiseVariance() const override { return ss_; }
  linalg::DenseMatrix Components() const override { return c_; }
  void SaveState(core::SolverCheckpoint* checkpoint) const override;
  Status RestoreState(const core::PcaModel& model,
                      const core::SolverCheckpoint& checkpoint,
                      size_t dim) override;

  double ss_ = 1.0;
  // EMA-blended per-row sufficient statistics.
  linalg::DenseMatrix s_xtx_;  // d x d
  linalg::DenseMatrix s_ytx_;  // D x d
  double s_ss1_ = 0.0;
  double s_ss3_ = 0.0;
};

/// Oja / streaming power iteration with lazy reorthonormalization.
///
/// Each Step takes one gradient step C += eta_t * Yc' (Yc C) / b on the
/// mini-batch (a consolidated distributed job; mean-propagated so sparse
/// rows stay sparse) and reorthonormalizes only every reorth_every steps.
/// The running mean is exact; ss is estimated from the EMA of the residual
/// energy per row, so Snapshot() yields a complete servable PPCA model.
/// Its checkpoint carries the *raw* (possibly sheared) basis — the
/// published model's orthonormalized components are not sufficient to
/// continue the lazy-reorthonormalization schedule bit-identically.
class OjaSolver : public StreamSolver {
 public:
  /// `engine` must outlive this object.
  OjaSolver(dist::Engine* engine, const StreamSolverOptions& options)
      : StreamSolver(engine, options) {}

  std::string_view name() const override { return "oja"; }

 private:
  Status ResetState(const core::FitOptions& options) override;
  void ColdStart(Rng* rng) override;
  Status Update(const dist::DistMatrix& batch) override;
  double NoiseVariance() const override;
  linalg::DenseMatrix Components() const override;
  void SaveState(core::SolverCheckpoint* checkpoint) const override;
  Status RestoreState(const core::PcaModel& model,
                      const core::SolverCheckpoint& checkpoint,
                      size_t dim) override;

  size_t steps_since_reorth_ = 0;
  // EMA of per-row total and projected energy, for the ss estimate.
  double s_norm_ = 0.0;
  double s_proj_ = 0.0;
};

}  // namespace spca::stream

#endif  // SPCA_STREAM_STREAM_SOLVER_H_
