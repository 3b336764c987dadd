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
#include "linalg/solve.h"

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

namespace {

/// The Gram route hands the error sample over to MGS2 when the
/// CholeskyConditionEstimate of G's factor exceeds this. It is a lower
/// bound on cond(G), and the route's relative error grows like cond(G)
/// times the machine epsilon.
constexpr double kGramConditionBound = 1e8;

/// sum_k |v[k]| over [0, n) in four interleaved partial sums, so the adds
/// do not run as one chain of n dependent steps.
double AbsSum(const double* v, size_t n) {
  double s0 = 0.0, s1 = 0.0, s2 = 0.0, s3 = 0.0;
  size_t k = 0;
  for (; k + 4 <= n; k += 4) {
    s0 += std::fabs(v[k]);
    s1 += std::fabs(v[k + 1]);
    s2 += std::fabs(v[k + 2]);
    s3 += std::fabs(v[k + 3]);
  }
  for (; k < n; ++k) s0 += std::fabs(v[k]);
  return (s0 + s1) + (s2 + s3);
}

/// Sample rows rebuilt together, and the columns of basis' they share at
/// a time: a d x kBlockCols slice of basis' stays in L1 across the block's
/// rows, where a whole row product would stream all of basis' from L2 for
/// every row. kBlockCols is the widest AVX2 RowGemm stripe.
constexpr size_t kBlockRows = 16;
constexpr size_t kBlockCols = 48;

/// The relative 1-norm error when each sample row Y_i is rebuilt as
///   mean + ((Y_i - mean) * basis * middle) * basis',
/// with middle = I when null: G^-1 for the Gram route, where basis = C;
/// nothing for MGS2, where basis is orthonormal.
double ProjectionError(const dist::DistMatrix& sample,
                       const DenseMatrix& basis, const DenseMatrix* middle,
                       const DenseVector& mean) {
  const size_t d = basis.cols();
  const size_t dim = sample.cols();

  // mean' * basis (so each row's projection uses mean propagation).
  const DenseVector mean_projection =
      linalg::TransposeMultiplyVector(basis, mean);

  double error_norm = 0.0;
  double data_norm = 0.0;
  const DenseMatrix basis_t = basis.Transpose();
  DenseVector projected(d);
  DenseMatrix coefficients(kBlockRows, d);
  DenseMatrix reconstructed(kBlockRows, dim);
  for (size_t first = 0; first < sample.rows(); first += kBlockRows) {
    const size_t rows = std::min(kBlockRows, sample.rows() - first);
    for (size_t r = 0; r < rows; ++r) {
      sample.RowTimesMatrix(first + r, basis, &projected);
      projected.Subtract(mean_projection);
      double* z = coefficients.RowPtr(r);
      if (middle != nullptr) {
        std::fill(z, z + d, 0.0);
        linalg::kernels::RowGemm(projected.data(), d, middle->data(),
                                 middle->row_stride(), d, z);
      } else {
        std::copy(projected.data(), projected.data() + d, z);
      }
      std::copy(mean.data(), mean.data() + dim, reconstructed.RowPtr(r));
    }
    // Reconstruction (dense rows): mean + z * basis', row products over the
    // contiguous rows of basis', one column slice at a time. Under scalar
    // dispatch each entry adds its d products left to right after mean[k];
    // the zero products RowGemm skips could only change the sign of a
    // zero, which the 1-norm below does not see.
    for (size_t col = 0; col < dim; col += kBlockCols) {
      const size_t width = std::min(kBlockCols, dim - col);
      for (size_t r = 0; r < rows; ++r) {
        linalg::kernels::RowGemm(coefficients.RowPtr(r), d,
                                 basis_t.data() + col, basis_t.row_stride(),
                                 width, reconstructed.RowPtr(r) + col);
      }
    }
    // 1-norm of (row - reconstruction) without materializing the dense
    // rows: stored entries contribute |v - rec|, absent entries |0 - rec|.
    for (size_t r = 0; r < rows; ++r) {
      const double* rec = reconstructed.RowPtr(r);
      const double absent = AbsSum(rec, dim);
      double present = 0.0;
      double row_norm = 0.0;
      sample.ForEachEntry(first + r, [&](size_t k, double v) {
        present += std::fabs(v - rec[k]) - std::fabs(rec[k]);
        row_norm += std::fabs(v);
      });
      error_norm += absent + present;
      data_norm += row_norm;
    }
  }
  if (data_norm == 0.0) return 0.0;
  return error_norm / data_norm;
}

/// SampledReconstructionError with `gram` = C'C of `components` handed
/// in, or formed here when null. The projector C * G^-1 * C' needs no
/// orthonormal basis; MGS2 builds one only when G's factor fails or its
/// condition estimate exceeds kGramConditionBound (C rank-deficient,
/// nearly so, or not finite).
double ErrorThroughGram(const dist::DistMatrix& sample,
                        const DenseMatrix& components,
                        const DenseVector& mean, const DenseMatrix* gram) {
  SPCA_CHECK_EQ(sample.cols(), components.rows());
  DenseMatrix own_gram;
  if (gram == nullptr) {
    own_gram = linalg::TransposeMultiply(components, components);
    gram = &own_gram;
  }
  SPCA_CHECK_EQ(gram->rows(), components.cols());
  const auto factor = linalg::CholeskyFactor(*gram);
  if (factor.ok() && linalg::CholeskyConditionEstimate(factor.value()) <=
                         kGramConditionBound) {
    // One d x d inverse per call: solving through the factor row by row
    // would put two serial triangular chains in every sample row.
    const auto inverse = linalg::CholeskyInverse(factor.value());
    if (inverse.ok()) {
      return ProjectionError(sample, components, &inverse.value(), mean);
    }
  }
  return ProjectionError(sample, linalg::OrthonormalizeColumns(components),
                         nullptr, mean);
}

}  // namespace

double SampledReconstructionError(const dist::DistMatrix& sample,
                                  const DenseMatrix& components,
                                  const DenseVector& mean) {
  return ErrorThroughGram(sample, components, mean, /*gram=*/nullptr);
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
      stats_before_(engine->StatsSnapshot()),
      first_job_index_(engine->traces().size()) {}

Status AccuracyTracker::Anchor(const dist::DistMatrix& y, size_t d) {
  if (!measures_) return Status::Ok();
  sample_ = y.SampleRows(
      SampleRowIndices(y.rows(), policy_.sample_rows, kErrorSampleSeed), 1);
  // The error is relative to ||Yr||_1, and SampledReconstructionError
  // reads 0 (100 % accuracy) when there is nothing to divide by.
  if (sample_.rows() == 0) {
    return Status::InvalidArgument("the error sample has no rows");
  }
  double sample_norm = 0.0;
  for (size_t i = 0; i < sample_.rows(); ++i) {
    sample_.ForEachEntry(
        i, [&](size_t, double v) { sample_norm += std::fabs(v); });
  }
  if (sample_norm == 0.0) {
    return Status::FailedPrecondition(
        "the error sample's rows hold no non-zero value");
  }
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
                             obs::Span* span, const DenseMatrix* gram) {
  if (!measures_) return false;
  IterationTrace trace;
  trace.iteration = iteration;
  trace.error =
      ErrorThroughGram(sample_, model.components, model.mean, gram);
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
  result->stats = dist::StatsDiff(engine_->StatsSnapshot(), stats_before_);
  result->stats.wall_seconds = wall_.ElapsedSeconds();
}

}  // namespace spca::core
