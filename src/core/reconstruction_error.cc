#include "core/reconstruction_error.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "common/check.h"
#include "common/rng.h"
#include "core/spca.h"
#include "dist/engine.h"
#include "linalg/kernels.h"
#include "linalg/ops.h"
#include "linalg/qr.h"

namespace spca::core {

using linalg::DenseMatrix;
using linalg::DenseVector;

std::vector<size_t> SampleRowIndices(size_t total_rows, size_t count,
                                     uint64_t seed) {
  count = std::min(count, total_rows);
  // Floyd's algorithm for a uniform sample without replacement.
  Rng rng(seed);
  std::vector<size_t> sample;
  std::vector<bool> chosen(total_rows, false);
  for (size_t j = total_rows - count; j < total_rows; ++j) {
    const size_t t = rng.NextUint64Below(j + 1);
    if (!chosen[t]) {
      chosen[t] = true;
      sample.push_back(t);
    } else {
      chosen[j] = true;
      sample.push_back(j);
    }
  }
  std::sort(sample.begin(), sample.end());
  return sample;
}

double SampledReconstructionError(const dist::DistMatrix& sample,
                                  const DenseMatrix& components,
                                  const DenseVector& mean) {
  SPCA_CHECK_EQ(sample.cols(), components.rows());
  const DenseMatrix basis = linalg::OrthonormalizeColumns(components);
  const size_t d = basis.cols();
  const size_t dim = sample.cols();

  // mean' * B (so each row's projection uses mean propagation).
  const DenseVector mean_projection =
      linalg::TransposeMultiplyVector(basis, mean);

  double error_norm = 0.0;
  double data_norm = 0.0;
  const DenseMatrix basis_t = basis.Transpose();
  DenseVector projected(d);
  DenseVector reconstructed(dim);
  for (size_t i = 0; i < sample.rows(); ++i) {
    sample.RowTimesMatrix(i, basis, &projected);
    projected.Subtract(mean_projection);
    // Reconstruction (dense row): mean + projected * B', one row product
    // over the contiguous rows of B'. Under scalar dispatch each element
    // adds its products left to right after mean[k], like one dot product
    // per entry would; the zero products RowGemm skips could only change
    // the sign of a zero, which the 1-norm below does not see.
    std::copy(mean.data(), mean.data() + dim, reconstructed.data());
    linalg::kernels::RowGemm(projected.data(), d, basis_t.data(),
                             basis_t.row_stride(), dim, reconstructed.data());
    // 1-norm of (row - reconstruction) without materializing the dense row:
    // stored entries contribute |v - rec|, absent entries |0 - rec|.
    double absent = 0.0;
    for (size_t k = 0; k < dim; ++k) absent += std::fabs(reconstructed[k]);
    double present = 0.0;
    double row_norm = 0.0;
    sample.ForEachEntry(i, [&](size_t k, double v) {
      present += std::fabs(v - reconstructed[k]) - std::fabs(reconstructed[k]);
      row_norm += std::fabs(v);
    });
    error_norm += absent + present;
    data_norm += row_norm;
  }
  if (data_norm == 0.0) return 0.0;
  return error_norm / data_norm;
}

StatusOr<double> ConvergedIdealError(const dist::ClusterSpec& spec,
                                     const dist::DistMatrix& y, size_t d,
                                     const dist::DistMatrix& sample,
                                     int iterations, uint64_t seed) {
  dist::Engine shadow(spec, dist::EngineMode::kSpark);
  SpcaOptions options;
  options.num_components = d;
  options.max_iterations = iterations;
  options.target_accuracy_fraction = 2.0;   // run all iterations
  options.compute_accuracy_trace = false;   // no nested ideal computation
  options.seed = seed;
  auto fit = Spca(&shadow, options).Solve(y);
  if (!fit.ok()) return fit.status();
  return SampledReconstructionError(sample, fit.value().model.components,
                                    fit.value().model.mean);
}

double AccuracyPercent(double error, double ideal_error) {
  if (error <= 0.0) return 100.0;
  const double pct = 100.0 * ideal_error / error;
  return std::clamp(pct, 0.0, 100.0);
}

AccuracyTracker::AccuracyTracker(dist::Engine* engine,
                                 const AccuracyPolicy& policy)
    : engine_(engine),
      policy_(policy),
      measures_(policy.compute_trace || policy.target_fraction <= 1.0),
      stats_before_(engine->stats()),
      first_job_index_(engine->traces().size()) {}

Status AccuracyTracker::Anchor(const dist::DistMatrix& y, size_t d) {
  if (!measures_) return Status::Ok();
  sample_ = y.SampleRows(
      SampleRowIndices(y.rows(), policy_.sample_rows, kErrorSampleSeed), 1);
  if (policy_.ideal_error_override > 0.0) {
    ideal_error_ = policy_.ideal_error_override;
    return Status::Ok();
  }
  auto ideal = ConvergedIdealError(engine_->spec(), y, d, sample_,
                                   policy_.ideal_fit_iterations, policy_.seed);
  if (!ideal.ok()) return ideal.status();
  ideal_error_ = ideal.value();
  return Status::Ok();
}

bool AccuracyTracker::Record(int iteration, const PcaModel& model,
                             obs::Span* span) {
  if (!measures_) return false;
  IterationTrace trace;
  trace.iteration = iteration;
  trace.error =
      SampledReconstructionError(sample_, model.components, model.mean);
  trace.accuracy_percent = AccuracyPercent(trace.error, ideal_error_);
  trace.simulated_seconds =
      engine_->SimulatedSeconds() - stats_before_.simulated_seconds;
  trace.wall_seconds = wall_.ElapsedSeconds();
  trace.ss = model.noise_variance;
  trace.jobs_completed = engine_->traces().size();
  trace_.push_back(trace);
  span->SetAttribute("error", trace.error);
  span->SetAttribute("accuracy_percent", trace.accuracy_percent);
  // Written so trace files alone can regenerate the accuracy-vs-time
  // tables (tools/trace_report) without rerunning the benchmark.
  span->SetAttribute("sim_seconds", trace.simulated_seconds);
  span->SetAttribute("wall_seconds", trace.wall_seconds);
  if (policy_.target_fraction <= 1.0 &&
      trace.accuracy_percent >= policy_.target_fraction * 100.0) {
    reached_target_ = true;
  }
  return reached_target_;
}

void AccuracyTracker::Finish(SolveResult* result) {
  result->trace = std::move(trace_);
  result->ideal_error = ideal_error_;
  result->reached_target = reached_target_;
  result->first_job_index = first_job_index_;
  result->stats = dist::StatsDiff(engine_->stats(), stats_before_);
  result->stats.wall_seconds = wall_.ElapsedSeconds();
}

}  // namespace spca::core
