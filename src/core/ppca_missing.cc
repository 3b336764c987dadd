#include "core/ppca_missing.h"

#include <cmath>

#include "core/spca.h"
#include "linalg/ops.h"

namespace spca::core {

using linalg::DenseMatrix;
using linalg::DenseVector;

StatusOr<MissingValueResult> FitWithMissing(
    dist::Engine* engine, const DenseMatrix& y,
    const std::vector<uint8_t>& observed, const MissingValueOptions& options) {
  const size_t n = y.rows();
  const size_t dim = y.cols();
  if (observed.size() != n * dim) {
    return Status::InvalidArgument("observed mask has the wrong size");
  }
  if (options.outer_iterations < 1) {
    return Status::InvalidArgument("outer_iterations must be >= 1");
  }

  // Initial imputation: column means over observed entries.
  DenseVector col_sum(dim);
  DenseVector col_count(dim);
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = 0; j < dim; ++j) {
      if (observed[i * dim + j]) {
        col_sum[j] += y(i, j);
        col_count[j] += 1.0;
      }
    }
  }
  DenseMatrix completed = y;
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = 0; j < dim; ++j) {
      if (!observed[i * dim + j]) {
        completed(i, j) = col_count[j] > 0.0 ? col_sum[j] / col_count[j] : 0.0;
      }
    }
  }

  MissingValueResult result;
  for (int round = 0; round < options.outer_iterations; ++round) {
    const dist::DistMatrix dist_matrix =
        dist::DistMatrix::FromDense(completed, options.num_partitions);
    Spca spca(engine, options.spca);
    auto fit = spca.Solve(dist_matrix);
    if (!fit.ok()) return fit.status();
    result.model = std::move(fit.value().model);

    // Re-impute missing entries from the model reconstruction.
    const DenseMatrix basis = result.model.OrthonormalBasis();
    const size_t d = basis.cols();
    const DenseVector mean_projection =
        linalg::TransposeMultiplyVector(basis, result.model.mean);
    double delta2 = 0.0;
    size_t missing_count = 0;
    DenseVector projected(d);
    for (size_t i = 0; i < n; ++i) {
      // Project the completed row, reconstruct, update missing cells.
      projected.SetZero();
      for (size_t k = 0; k < dim; ++k) {
        const double v = completed(i, k);
        if (v == 0.0) continue;
        for (size_t j = 0; j < d; ++j) projected[j] += v * basis(k, j);
      }
      projected.Subtract(mean_projection);
      for (size_t k = 0; k < dim; ++k) {
        if (observed[i * dim + k]) continue;
        double value = result.model.mean[k];
        for (size_t j = 0; j < d; ++j) value += basis(k, j) * projected[j];
        const double diff = value - completed(i, k);
        delta2 += diff * diff;
        ++missing_count;
        completed(i, k) = value;
      }
    }
    result.final_delta =
        missing_count > 0 ? std::sqrt(delta2 / missing_count) : 0.0;
  }
  result.imputed = std::move(completed);
  return result;
}

}  // namespace spca::core
