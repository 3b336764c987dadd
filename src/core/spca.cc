#include "core/spca.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "common/rng.h"
#include "core/jobs.h"
#include "core/reconstruction_error.h"

namespace spca::core {

using dist::CommStats;
using dist::DistMatrix;
using linalg::DenseMatrix;
using linalg::DenseVector;

StatusOr<SolveResult> Spca::Solve(const DistMatrix& y,
                                  const FitOptions& init) const {
  if (options_.num_components == 0) {
    return Status::InvalidArgument("num_components must be positive");
  }
  if (y.cols() < options_.num_components) {
    return Status::InvalidArgument(
        "num_components exceeds the input dimensionality");
  }
  if (y.rows() < 2) {
    return Status::InvalidArgument("need at least 2 rows");
  }
  if (!(options_.l1_threshold >= 0.0)) {
    return Status::InvalidArgument("l1_threshold must be non-negative");
  }

  obs::Registry* registry =
      init.registry != nullptr ? init.registry : engine_->registry();
  obs::Span fit_span(registry, "spca.fit", "algorithm");
  fit_span.SetAttribute("rows", static_cast<uint64_t>(y.rows()));
  fit_span.SetAttribute("cols", static_cast<uint64_t>(y.cols()));
  fit_span.SetAttribute("components",
                        static_cast<uint64_t>(options_.num_components));
  if (options_.l1_threshold > 0.0) {
    fit_span.SetAttribute("l1_threshold", options_.l1_threshold);
  }

  // RunEm's driver budget, checked (reserved and released at once) before
  // the D x d draw of C: a D the driver cannot hold then ends in
  // OUT_OF_MEMORY rather than in a failed allocation.
  SPCA_RETURN_IF_ERROR(
      engine_
          ->ReserveDriverMemory("sPCA driver state",
                                dist::LinearDriverStateBytes(
                                    engine_->spec(), y.cols(),
                                    options_.num_components))
          .status());

  const bool warm_start = init.components.has_value();
  DenseMatrix c;
  double ss;
  if (warm_start) {
    c = *init.components;
    ss = init.noise_variance.value_or(1.0);
  } else {
    // Cold start: seeded random C, then ss = |normrnd(1,1)| (a variance).
    // The draw order matches the original single-method Fit exactly so
    // seeded runs stay bit-for-bit reproducible.
    Rng rng(options_.seed);
    c = DenseMatrix::GaussianRandom(y.cols(), options_.num_components, &rng);
    ss = init.noise_variance.value_or(std::fabs(rng.NextGaussian(1.0, 1.0)) +
                                      1e-3);
  }

  CommStats guess_stats;
  if (!warm_start && options_.smart_guess &&
      y.rows() > options_.smart_guess_rows * 2) {
    // sPCA-SG (Section 5.2): fit on a small random row sample first; its
    // C and ss seed the full run. Works because C is D x d — independent
    // of the number of rows (unlike Mahout-PCA's N-row random matrix).
    obs::Span guess_span(registry, "spca.smart_guess", "algorithm");
    guess_span.SetAttribute("sample_rows",
                            static_cast<uint64_t>(options_.smart_guess_rows));
    const auto indices = SampleRowIndices(y.rows(), options_.smart_guess_rows,
                                          options_.seed + 101);
    const DistMatrix sample =
        y.SampleRows(indices, std::max<size_t>(1, y.num_partitions() / 4));
    SpcaOptions sample_options = options_;
    sample_options.smart_guess = false;
    sample_options.max_iterations = options_.smart_guess_iterations;
    sample_options.compute_accuracy_trace = false;
    sample_options.target_accuracy_fraction = 2.0;  // run all iterations
    Spca sample_fit(engine_, sample_options);
    auto guess = sample_fit.RunEm(sample, std::move(c), ss, registry);
    if (!guess.ok()) return guess.status();
    c = std::move(guess.value().model.components);
    ss = guess.value().model.noise_variance;
    guess_stats = guess.value().stats;
  }

  auto result = RunEm(y, std::move(c), ss, registry, init.on_checkpoint);
  if (result.ok() && guess_stats.simulated_seconds > 0.0) {
    // The sample pre-fit is part of sPCA-SG's cost: shift the trace so
    // accuracy-vs-time curves (Figure 5) include the initialization delay.
    for (auto& point : result.value().trace) {
      point.simulated_seconds += guess_stats.simulated_seconds;
      point.wall_seconds += guess_stats.wall_seconds;
    }
    result.value().stats.Add(guess_stats);
  }
  if (result.ok()) {
    fit_span.SetAttribute(
        "iterations", static_cast<uint64_t>(result.value().iterations_run));
  }
  return result;
}

Status Spca::Restore(const PcaModel& model,
                     const SolverCheckpoint& checkpoint) {
  SPCA_RETURN_IF_ERROR(checkpoint.ExpectSolver(name()));
  if (model.components.rows() == 0 || model.components.cols() == 0) {
    return Status::InvalidArgument("checkpoint model has no components");
  }
  if (!(model.noise_variance > 0.0)) {
    return Status::InvalidArgument("checkpoint noise variance must be > 0");
  }
  fit_options().components = model.components;
  fit_options().noise_variance = model.noise_variance;
  return Status::Ok();
}

StatusOr<SolveResult> Spca::RunEm(
    const DistMatrix& y, DenseMatrix initial_components, double initial_ss,
    obs::Registry* registry,
    const std::function<Status(const PcaModel&, const SolverCheckpoint&)>&
        on_checkpoint) const {
  const size_t d = options_.num_components;
  const size_t dim = y.cols();
  const size_t n = y.rows();
  if (initial_components.rows() != dim || initial_components.cols() != d) {
    return Status::InvalidArgument("initial components have the wrong shape");
  }
  if (!(initial_ss > 0.0)) {
    return Status::InvalidArgument("initial ss must be positive");
  }

  // Driver-resident working set: C, CM, YtX and the merged partials.
  const auto driver_memory = engine_->ReserveDriverMemory(
      "sPCA driver state",
      dist::LinearDriverStateBytes(engine_->spec(), dim, d));
  if (!driver_memory.ok()) return driver_memory.status();

  AccuracyTracker tracker(
      engine_, {.compute_trace = options_.compute_accuracy_trace,
                .target_fraction = options_.target_accuracy_fraction,
                .sample_rows = options_.error_sample_rows,
                .ideal_error_override = options_.ideal_error_override,
                .seed = options_.seed,
                .ideal_fit_iterations = options_.ideal_fit_iterations});

  JobToggles toggles;
  toggles.mean_propagation = options_.mean_propagation;
  toggles.minimize_intermediate_data = options_.minimize_intermediate_data;
  toggles.consolidate_jobs = options_.consolidate_jobs;
  toggles.ss3_associativity = options_.ss3_associativity;
  toggles.driver_moments = options_.driver_moments;

  SolveResult result;
  result.model.components = std::move(initial_components);
  result.model.noise_variance = initial_ss;

  // The two lightweight pre-loop jobs (Algorithm 4 lines 3-4).
  result.model.mean = MeanJob(engine_, y);
  const double ss1 =
      FrobeniusNormJob(engine_, y, result.model.mean, options_.efficient_frobenius);
  if (!(ss1 > 0.0)) {
    return Status::FailedPrecondition(
        "input matrix is constant (zero variance)");
  }

  // Evaluation sample and anchor for the stop condition / accuracy trace.
  SPCA_RETURN_IF_ERROR(tracker.Anchor(y, d));

  DenseMatrix& c = result.model.components;
  double& ss = result.model.noise_variance;
  const DenseVector& ym = result.model.mean;
  // C'C of the current C: formed here for the first iteration, then taken
  // from each M-step by the next E-step and by the error sample.
  DenseMatrix ctc = DriverTransposeMultiply(engine_, c, c);

  for (int iteration = 1; iteration <= options_.max_iterations; ++iteration) {
    obs::Span iter_span(registry, "spca.em_iteration", "iteration");
    iter_span.SetAttribute("iteration", static_cast<uint64_t>(iteration));
    registry->counter("spca.em_iterations")->Increment();

    // Driver-side small algebra (Algorithm 4 lines 6-8).
    auto e_step = PrepareEStep(engine_, c, ctc, ss, ym);
    if (!e_step.ok()) return e_step.status();
    const DenseMatrix& cm = e_step->cm;
    const DenseVector& xm = e_step->xm;

    // The unoptimized path materializes X once per iteration and feeds it
    // to the consumer jobs (Figure 1); the optimized path regenerates X on
    // demand inside each job (Figure 3).
    DenseMatrix materialized_x;
    const DenseMatrix* x_ptr = nullptr;
    if (!toggles.minimize_intermediate_data) {
      materialized_x = MaterializeXJob(engine_, y, ym, xm, cm, toggles);
      x_ptr = &materialized_x;
    }

    // Distributed YtXJob (line 9), then the driver's M-step (lines 10-12).
    const YtXResult stats = YtXJob(engine_, y, ym, xm, cm, x_ptr, toggles);
    auto m_step = SolveMStep(engine_, *e_step, stats, options_.l1_threshold);
    if (!m_step.ok()) return m_step.status();

    // ss3 on the new C (line 13), then the variance update (line 14).
    const double ss3 =
        toggles.driver_moments
            ? Ss3FromYtX(engine_, m_step->c, stats.ytx)
            : Ss3Job(engine_, y, ym, xm, cm, m_step->c, x_ptr, toggles);
    ss = m_step->NoiseVariance(ss1, ss3, static_cast<double>(n));
    c = std::move(m_step->c);
    ctc = std::move(m_step->ctc);
    result.iterations_run = iteration;
    iter_span.SetAttribute("ss", ss);
    if (options_.l1_threshold > 0.0) {
      const uint64_t nnz = m_step->nnz_loadings;
      iter_span.SetAttribute("nnz_loadings", nnz);
      registry->counter("sketch.sparse_ppca.zeroed_loadings")
          ->Add(static_cast<double>(static_cast<uint64_t>(dim) * d - nnz));
      registry->gauge("sketch.sparse_ppca.nnz_loadings")
          ->Set(static_cast<double>(nnz));
    }

    if (on_checkpoint) {
      // result.model already aliases (C, ss, mean) — the complete resume
      // state: warm-starting from it re-runs the remaining iterations
      // bit-identically (each iteration is pure in the model and Y).
      SolverCheckpoint checkpoint;
      checkpoint.solver = std::string(name());
      checkpoint.step = static_cast<uint64_t>(iteration);
      checkpoint.rows_seen = n;
      SPCA_RETURN_IF_ERROR(on_checkpoint(result.model, checkpoint));
    }

    if (tracker.Record(iteration, result.model, &iter_span, &ctc)) break;
  }

  tracker.Finish(&result);
  return result;
}

}  // namespace spca::core
