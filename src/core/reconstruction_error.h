#ifndef SPCA_CORE_RECONSTRUCTION_ERROR_H_
#define SPCA_CORE_RECONSTRUCTION_ERROR_H_

#include <cstdint>
#include <vector>

#include "common/stopwatch.h"
#include "core/solver.h"
#include "dist/cluster_spec.h"
#include "dist/dist_matrix.h"
#include "dist/engine.h"
#include "linalg/dense_matrix.h"

namespace spca::core {

/// Every algorithm measures its reconstruction error on the same random
/// row subset, drawn with this fixed seed, so accuracy numbers (and the
/// shared "ideal accuracy" anchor) are directly comparable across methods.
inline constexpr uint64_t kErrorSampleSeed = 777;

/// Draws `count` distinct row indices uniformly at random (sorted).
/// This is the random row subset Yr on which the paper measures the
/// reconstruction error (Section 5, "Performance Metrics").
std::vector<size_t> SampleRowIndices(size_t total_rows, size_t count,
                                     uint64_t seed);

/// The paper's accuracy metric on a (small) sampled matrix:
///   e = ||Yr - Xr * B'||_1 / ||Yr||_1,
/// computed row by row so the dense reconstruction is never materialized.
/// `components` is the (not necessarily orthonormal) D x d basis C, and
/// the reconstruction is the model mean plus the orthogonal projection of
/// Yr - mean onto span(C): mean + (Yr - mean) * C * G^-1 * C' through the
/// Gram matrix G = C'C. When G's Cholesky factor fails, is not finite or
/// puts cond(G) above about 1e8, the projector is B * B' with B the
/// two-pass MGS orthonormalization of C instead. Returns 0 when ||Yr||_1
/// is 0 (AccuracyTracker refuses such a sample).
double SampledReconstructionError(const dist::DistMatrix& sample,
                                  const linalg::DenseMatrix& components,
                                  const linalg::DenseVector& mean);

/// The paper's ideal-accuracy anchor (Section 5: "the ideal accuracy that
/// can be achieved with 50 principal components after a large number of
/// iterations"): fits PPCA on `y` for `iterations` EM iterations on a
/// throwaway engine (same cluster spec, so numerics match; no cost is
/// charged to the caller's engine) and returns its sampled reconstruction
/// error on `sample`. Fails with the fit's own status when PPCA cannot fit
/// `y` (FAILED_PRECONDITION for a constant matrix).
StatusOr<double> ConvergedIdealError(const dist::ClusterSpec& spec,
                                     const dist::DistMatrix& y, size_t d,
                                     const dist::DistMatrix& sample,
                                     int iterations = 15, uint64_t seed = 1);

/// The paper plots "percentage of the ideal accuracy achieved". Defined
/// here as 100 * ideal_error / error, clamped to [0, 100]: it reaches 100%
/// exactly when the algorithm's error matches the best achievable error,
/// and stays meaningful even when the relative 1-norm error exceeds 1
/// (which genuinely happens for very sparse binary matrices, where low-rank
/// reconstructions smear mass over the zero entries).
double AccuracyPercent(double error, double ideal_error);

/// One batch solve's accuracy settings, copied from the matching fields of
/// SpcaOptions, sketch::RandSvdOptions or baselines::SsvdOptions (see
/// SpcaOptions for each).
struct AccuracyPolicy {
  bool compute_trace = false;
  /// Stop once accuracy reaches this fraction of ideal; > 1 never stops.
  double target_fraction = 2.0;
  size_t sample_rows = 0;
  /// The anchor when > 0; else ConvergedIdealError(seed, iterations).
  double ideal_error_override = 0.0;
  uint64_t seed = 1;
  int ideal_fit_iterations = 15;
};

/// The one home of what a batch solve measures (Section 5 "Performance
/// Metrics") and of Algorithm 4's STOP_CONDITION. Construction starts the
/// clock (engine stats, a wall stopwatch, the next job-trace index);
/// Anchor() draws the error-row sample with kErrorSampleSeed and fixes the
/// ideal-error anchor; Record() appends one IterationTrace per iteration,
/// puts error / accuracy_percent / sim_seconds / wall_seconds on the
/// iteration span and applies the target stop; Finish() fills the
/// SolveResult. One-pass solvers measure nothing and use only the clock.
class AccuracyTracker {
 public:
  /// `engine` must outlive the tracker.
  explicit AccuracyTracker(dist::Engine* engine,
                           const AccuracyPolicy& policy = {});

  /// Draws the sample from `y` and fixes the anchor for `d` components, if
  /// the policy measures anything. Call after the solver's input checks.
  /// An empty sample is INVALID_ARGUMENT, a sample whose rows hold no
  /// non-zero value FAILED_PRECONDITION (no error is relative to a zero
  /// norm); a failed anchor fit returns its status.
  Status Anchor(const dist::DistMatrix& y, size_t d);

  /// Measures `model` (read in place) after `iteration`, annotating
  /// `span`. `gram`, when given, is linalg::TransposeMultiply of
  /// model.components with itself (the M-step's C'C), which the error
  /// sample then does not form again. Returns true once the target is
  /// reached: stop iterating. Does nothing and returns false when the
  /// policy measures nothing.
  bool Record(int iteration, const PcaModel& model, obs::Span* span,
              const linalg::DenseMatrix* gram = nullptr);

  /// Moves the trace, ideal_error, reached_target, first_job_index and
  /// the engine statistics since construction into `result`.
  void Finish(SolveResult* result);

 private:
  dist::Engine* engine_;
  AccuracyPolicy policy_;
  bool measures_;
  dist::CommStats stats_before_;
  Stopwatch wall_;
  size_t first_job_index_;
  dist::DistMatrix sample_;
  double ideal_error_ = 0.0;
  std::vector<IterationTrace> trace_;
  bool reached_target_ = false;
};

}  // namespace spca::core

#endif  // SPCA_CORE_RECONSTRUCTION_ERROR_H_
