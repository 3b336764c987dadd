#include "baselines/cov_eig_pca.h"

#include <cmath>

#include "common/rng.h"
#include "core/jobs.h"
#include "core/reconstruction_error.h"
#include "linalg/dense_matrix.h"
#include "linalg/ops.h"
#include "linalg/qr.h"

namespace spca::baselines {

using dist::DistMatrix;
using dist::RowRange;
using dist::TaskContext;
using linalg::DenseMatrix;
using linalg::DenseVector;

StatusOr<core::SolveResult> CovEigPca::Solve(
    const DistMatrix& y, const core::FitOptions& fit) const {
  const size_t d = options_.num_components;
  const size_t dim = y.cols();
  const size_t n = y.rows();
  if (d == 0 || d > dim) {
    return Status::InvalidArgument("invalid num_components");
  }
  if (n < 2) return Status::InvalidArgument("need at least 2 rows");

  core::SolveResult result;
  core::AccuracyTracker tracker(engine_);
  obs::Registry* registry =
      fit.registry != nullptr ? fit.registry : engine_->registry();
  obs::Span fit_span(registry, "mllib.fit", "algorithm");
  fit_span.SetAttribute("rows", static_cast<uint64_t>(n));
  fit_span.SetAttribute("cols", static_cast<uint64_t>(dim));
  fit_span.SetAttribute("components", static_cast<uint64_t>(d));

  // The D x D covariance matrix lives in the driver's memory, on top of
  // the JVM/runtime baseline; this is the allocation that kills MLlib-PCA
  // for high-dimensional inputs.
  const uint64_t covariance_bytes =
      static_cast<uint64_t>(static_cast<double>(dim) * dim * sizeof(double) *
                            options_.driver_memory_factor) +
      static_cast<uint64_t>(engine_->spec().driver_baseline_bytes);
  result.driver_bytes = covariance_bytes;
  const auto driver_memory =
      engine_->ReserveDriverMemory("covariance matrix", covariance_bytes);
  if (!driver_memory.ok()) return driver_memory.status();

  result.model.mean = core::MeanJob(engine_, y);

  // Distributed Gram job: every partition accumulates a D x D partial and
  // ships it — the O(D^2) communication of Table 1. Compute is sparse
  // outer products (nnz^2 per row).
  engine_->RunMap<int>(
      dist::JobDesc{"gramJob", "covariance"}, y,
      [&](const RowRange& range, TaskContext* ctx) {
        uint64_t flops = 0;
        for (size_t i = range.begin; i < range.end; ++i) {
          const uint64_t nnz = y.RowNnz(i);
          flops += nnz * nnz;
        }
        ctx->CountFlops(flops);
        ctx->EmitResult(static_cast<uint64_t>(dim) * dim * sizeof(double));
        return 0;
      });

  // Local dense symmetric eigendecomposition of the covariance: ~9*D^3
  // flops (LAPACK dsyevd-class cost), plus assembling the covariance.
  engine_->CountDriverFlops(9ull * dim * dim * dim + 3ull * dim * dim);

  // ---- Real numerics (outside the cost accounting): matrix-free subspace
  // iteration on Cov = Y'Y/n - mean*mean'. Converges to the same dominant
  // eigenvectors the dense eigensolver would return.
  Rng rng(options_.seed);
  DenseMatrix basis = DenseMatrix::GaussianRandom(dim, d, &rng);
  basis = linalg::OrthonormalizeColumns(basis);
  const DenseVector& mean = result.model.mean;

  DenseVector scratch(d);
  DenseMatrix next(dim, d);
  double previous_delta = 1e300;
  for (int iteration = 0; iteration < options_.subspace_iterations;
       ++iteration) {
    // next = (Y' * (Y * basis)) / n - mean * (mean' * basis).
    next.SetZero();
    for (size_t i = 0; i < n; ++i) {
      y.RowTimesMatrix(i, basis, &scratch);
      y.AddRowOuterProduct(i, scratch, &next);
    }
    next.Scale(1.0 / static_cast<double>(n));
    const DenseVector mean_proj = linalg::TransposeMultiplyVector(basis, mean);
    for (size_t k = 0; k < dim; ++k) {
      const double m = mean[k];
      if (m == 0.0) continue;
      for (size_t j = 0; j < d; ++j) next(k, j) -= m * mean_proj[j];
    }
    const DenseMatrix orthonormal = linalg::OrthonormalizeColumns(next);
    const double delta = orthonormal.MaxAbsDiff(basis);
    basis = orthonormal;
    // Sign flips make MaxAbsDiff unreliable as an absolute criterion; stop
    // when the change stabilizes at a tiny value.
    if (delta < 1e-10 || (iteration > 30 && delta >= previous_delta &&
                          delta < 1e-6)) {
      break;
    }
    previous_delta = delta;
  }
  result.model.components = std::move(basis);
  result.model.noise_variance = 0.0;
  result.iterations_run = 1;
  tracker.Finish(&result);
  return result;
}

}  // namespace spca::baselines
