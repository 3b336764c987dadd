#include "core/pca_model.h"

#include "linalg/eigen_sym.h"
#include "linalg/ops.h"
#include "linalg/qr.h"

namespace spca::core {

using linalg::DenseMatrix;
using linalg::DenseVector;

DenseMatrix PcaModel::OrthonormalBasis() const {
  return linalg::OrthonormalizeColumns(components);
}

DenseVector PcaModel::ExplainedVariances(dist::Engine* engine,
                                         const dist::DistMatrix& y) const {
  SPCA_CHECK_EQ(y.cols(), input_dim());
  const DenseMatrix basis = OrthonormalBasis();
  const size_t d = num_components();

  // mean' * B, so each row's projection can use mean propagation.
  const DenseVector mean_projection =
      linalg::TransposeMultiplyVector(basis, mean);
  engine->Broadcast(basis.ByteSize() + mean.size() * sizeof(double));

  // Accumulate the d x d second-moment matrix of the centered projections;
  // its eigenvalues are the variances along the principal directions
  // *within* the model's subspace (PPCA's stored C is an arbitrary
  // rotation of the principal axes, so per-column sums would come out in
  // no particular order).
  auto partials = engine->RunMap<DenseMatrix>(
      dist::JobDesc{"explainedVarianceJob"}, y,
      [&](const dist::RowRange& range, dist::TaskContext* ctx) {
        DenseMatrix moment(d, d);
        DenseVector projected(d);
        uint64_t flops = 0;
        for (size_t i = range.begin; i < range.end; ++i) {
          y.RowTimesMatrix(i, basis, &projected);
          projected.Subtract(mean_projection);
          for (size_t a = 0; a < d; ++a) {
            const double pa = projected[a];
            for (size_t b = 0; b < d; ++b) moment(a, b) += pa * projected[b];
          }
          flops += 2ull * y.RowNnz(i) * d + 2ull * d * d;
        }
        ctx->CountFlops(flops);
        ctx->EmitResult(d * d * sizeof(double));
        return moment;
      });
  DenseMatrix moment(d, d);
  for (const auto& partial : partials) moment.Add(partial);
  if (y.rows() > 0) moment.Scale(1.0 / static_cast<double>(y.rows()));
  auto eigen = linalg::SymmetricEigen(moment);
  SPCA_CHECK(eigen.ok());
  engine->CountDriverFlops(partials.size() * d * d + 9ull * d * d * d);
  return eigen.value().values;
}

DenseMatrix PcaModel::Transform(dist::Engine* engine,
                                const dist::DistMatrix& y) const {
  SPCA_CHECK_EQ(y.cols(), input_dim());
  const DenseMatrix basis = OrthonormalBasis();
  const size_t d = num_components();
  // mean' * B, subtracted from every projected row (mean propagation: the
  // input rows stay sparse).
  const DenseVector mean_projection =
      linalg::TransposeMultiplyVector(basis, mean);
  engine->Broadcast(basis.ByteSize() + mean.size() * sizeof(double));

  DenseMatrix x(y.rows(), d);
  engine->RunMap<int>(
      dist::JobDesc{"transform"}, y,
      [&](const dist::RowRange& range, dist::TaskContext* ctx) {
        DenseVector projected(d);
        uint64_t flops = 0;
        for (size_t i = range.begin; i < range.end; ++i) {
          y.RowTimesMatrix(i, basis, &projected);
          flops += 2ull * y.RowNnz(i) * d;
          for (size_t j = 0; j < d; ++j) {
            x(i, j) = projected[j] - mean_projection[j];
          }
        }
        ctx->CountFlops(flops);
        ctx->EmitResult(range.size() * d * sizeof(double));
        return 0;
      });
  return x;
}

DenseVector PcaModel::ReconstructRow(const DenseMatrix& basis,
                                     const DenseVector& x) const {
  SPCA_CHECK_EQ(basis.rows(), input_dim());
  SPCA_CHECK_EQ(x.size(), basis.cols());
  DenseVector row(input_dim());
  for (size_t k = 0; k < input_dim(); ++k) {
    double value = mean[k];
    for (size_t j = 0; j < x.size(); ++j) value += basis(k, j) * x[j];
    row[k] = value;
  }
  return row;
}

}  // namespace spca::core
