#ifndef SPCA_CORE_SOLVER_H_
#define SPCA_CORE_SOLVER_H_

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/status.h"
#include "core/pca_model.h"
#include "dist/comm_stats.h"
#include "dist/dist_matrix.h"
#include "linalg/dense_matrix.h"
#include "obs/registry.h"

namespace spca::core {

/// One solver iteration's worth of progress measurements. For the batch EM
/// solver an iteration is one full pass over Y; for streaming solvers it is
/// one mini-batch step.
struct IterationTrace {
  int iteration = 0;
  /// Sampled relative 1-norm reconstruction error after this iteration.
  double error = 0.0;
  /// Percentage of the ideal accuracy achieved (the paper's y-axis in
  /// Figures 4 and 5).
  double accuracy_percent = 0.0;
  /// Cumulative simulated cluster seconds when this iteration finished.
  double simulated_seconds = 0.0;
  /// Cumulative wall-clock seconds in this process.
  double wall_seconds = 0.0;
  /// Noise variance ss after this iteration.
  double ss = 0.0;
  /// Number of engine job traces recorded when this iteration finished
  /// (lets benchmarks replay per-iteration timings under other cluster
  /// specs or data scales).
  size_t jobs_completed = 0;
};

/// The outcome of a solve, common to every Solver implementation. Batch
/// solvers that track accuracy fill `trace` / `ideal_error`; streaming
/// solvers fill `trace` with per-step ss/time points.
struct SolveResult {
  PcaModel model;
  std::vector<IterationTrace> trace;
  /// Best achievable error on the evaluation sample with d components.
  double ideal_error = 0.0;
  int iterations_run = 0;
  bool reached_target = false;
  /// Engine statistics accumulated by this solve only.
  dist::CommStats stats;
  /// Number of engine job traces that existed when the (final, full-data)
  /// fit started; with smart-guess initialization, traces before this
  /// index belong to the sample pre-fit.
  size_t first_job_index = 0;
  /// Peak driver-resident bytes, for solvers that report it (the MLlib
  /// baseline's D x D covariance); 0 when not tracked.
  uint64_t driver_bytes = 0;
};

/// Iteration-granular solver state beyond the servable PcaModel: the
/// sufficient statistics and counters a solver needs to continue a fit
/// exactly where it stopped. Serialized by serve::SaveCheckpoint as a
/// sidecar next to the SPCM model file; restoring (model, checkpoint) into
/// a fresh solver makes subsequent steps bit-identical to a run that was
/// never interrupted. Named scalars/matrices keep the format
/// solver-agnostic; keys are the solver's own (stable) names.
struct SolverCheckpoint {
  /// Solver that produced the checkpoint (Solver::name()). Restore()
  /// rejects a checkpoint from a different solver.
  std::string solver;
  /// Steps completed: EM iterations for the batch solver, mini-batch steps
  /// for streaming solvers.
  uint64_t step = 0;
  /// Rows ingested when the checkpoint was taken.
  uint64_t rows_seen = 0;
  /// Named scalar state, in a stable serialization order.
  std::vector<std::pair<std::string, double>> scalars;
  /// Named matrix state (vectors are n x 1 matrices).
  std::vector<std::pair<std::string, linalg::DenseMatrix>> matrices;

  void SetScalar(const std::string& key, double value) {
    scalars.emplace_back(key, value);
  }
  void SetMatrix(const std::string& key, linalg::DenseMatrix value) {
    matrices.emplace_back(key, std::move(value));
  }
  const double* FindScalar(std::string_view key) const {
    for (const auto& [k, v] : scalars) {
      if (k == key) return &v;
    }
    return nullptr;
  }
  const linalg::DenseMatrix* FindMatrix(std::string_view key) const {
    for (const auto& [k, v] : matrices) {
      if (k == key) return &v;
    }
    return nullptr;
  }
  /// The Restore() guard: InvalidArgument unless `expected` wrote this.
  Status ExpectSolver(std::string_view expected) const {
    if (solver == expected) return Status::Ok();
    return Status::InvalidArgument("checkpoint was written by solver '" +
                                   solver + "', not '" +
                                   std::string(expected) + "'");
  }
};

/// Optional inputs common to every solver: the warm start and telemetry
/// routing. Default-constructed it means "cold start": random initial
/// components and noise variance, smart-guess pre-fit if the solver's
/// options ask for it, telemetry into the engine's registry.
struct FitOptions {
  /// Warm-start components (D x d). When set, the random initialization
  /// AND the smart-guess pre-fit are both skipped — the caller's model is
  /// the starting point (re-fits, checkpoint restarts, the smart-guess
  /// sample fit itself, a streaming Snapshot() handed to a batch refit).
  std::optional<linalg::DenseMatrix> components;
  /// Warm-start noise variance; must be positive when set. Defaults to a
  /// seeded random draw on cold start and to 1.0 when only `components`
  /// is supplied.
  std::optional<double> noise_variance;
  /// Registry for the solver's spans and counters. Null means the engine's
  /// own registry, which keeps algorithm spans and engine job spans nested
  /// in one timeline.
  obs::Registry* registry = nullptr;
  /// When set, invoked after every completed step — each EM iteration of
  /// the batch solver, each mini-batch Step of a streaming solver — with
  /// the current servable model and the solver's resume state. A non-OK
  /// return aborts the solve with that status (which is also how tests
  /// simulate a driver crash at iteration k). Writing the pair to disk is
  /// serve::SaveCheckpoint.
  std::function<Status(const PcaModel&, const SolverCheckpoint&)>
      on_checkpoint;
};

/// The common solver surface. Lifecycle:
///
///   Init(options)   — accept warm start / telemetry routing; resets state.
///   Step(batch)*    — ingest one row batch (a DistMatrix). Batch solvers
///                     buffer; streaming solvers update (mean, C, ss) now.
///   Snapshot()      — a serveable PcaModel of the current state, callable
///                     between Steps (feeds serve::SaveModel / hot swaps).
///   Result()        — finish and return the full SolveResult.
///
/// Single-shot use is `RunSolver(&solver, y, options)` = Init + Step +
/// Result. Implementations are not thread-safe; external synchronization
/// is required if Snapshot() races Step() (see stream::StreamPipeline).
class Solver {
 public:
  virtual ~Solver() = default;

  /// Stable identifier ("spca", "minibatch_em", "oja", "mllib", ...).
  virtual std::string_view name() const = 0;

  /// Resets solver state and stores warm start + telemetry options.
  virtual Status Init(const FitOptions& options) = 0;

  /// Ingests one batch of rows. All batches must agree on cols().
  virtual Status Step(const dist::DistMatrix& batch) = 0;

  /// Current model estimate without ending the solve. Fails if no rows
  /// have been ingested yet.
  virtual StatusOr<PcaModel> Snapshot() const = 0;

  /// Finishes the solve over everything ingested so far.
  virtual StatusOr<SolveResult> Result() = 0;

  /// Resume state for checkpoint/restart (see SolverCheckpoint). Solvers
  /// without restart support keep the UNIMPLEMENTED default.
  virtual StatusOr<SolverCheckpoint> Checkpoint() const {
    return Status::Unimplemented(std::string(name()) +
                                 " does not support checkpointing");
  }

  /// Restores the state captured by Checkpoint(). Call Init() first (to
  /// set telemetry routing and options), then Restore(); subsequent Steps
  /// are bit-identical to the run that wrote the checkpoint.
  virtual Status Restore(const PcaModel& model,
                         const SolverCheckpoint& checkpoint) {
    (void)model;
    (void)checkpoint;
    return Status::Unimplemented(std::string(name()) +
                                 " does not support checkpoint restore");
  }
};

/// The Solver surface of a batch solver: Step() buffers batches and
/// Snapshot()/Result() run the single-shot Solve() over everything
/// ingested. A single Step() hands its DistMatrix through unchanged — same
/// partitioning, same bits — so RunSolver is bit-identical to a direct
/// Solve call.
class BatchSolver : public Solver {
 public:
  /// The single-shot fit: `options` carries the warm start and telemetry
  /// routing.
  virtual StatusOr<SolveResult> Solve(const dist::DistMatrix& y,
                                      const FitOptions& options) const = 0;

  Status Init(const FitOptions& options) override;
  Status Step(const dist::DistMatrix& batch) override;
  StatusOr<PcaModel> Snapshot() const override;
  StatusOr<SolveResult> Result() override;

 protected:
  /// The options Init() stored, which every buffered solve runs with;
  /// Restore() implementations install their warm start here.
  FitOptions& fit_options() { return options_; }

 private:
  StatusOr<SolveResult> SolveBuffered() const;

  FitOptions options_;
  std::vector<dist::DistMatrix> batches_;
};

/// Init + Step + Result in one call — the batch entry point for any solver.
StatusOr<SolveResult> RunSolver(Solver* solver, const dist::DistMatrix& y,
                                const FitOptions& options = {});

/// Concatenated view over buffered batches: one batch passes through
/// unchanged (preserving its partitioning, hence its bits); several are
/// concatenated by rows with `num_partitions` equal to the sum of the
/// batches' partition counts.
StatusOr<dist::DistMatrix> ConcatBatches(
    const std::vector<dist::DistMatrix>& batches);

}  // namespace spca::core

#endif  // SPCA_CORE_SOLVER_H_
