#include "serve/projector.h"

#include <cstring>
#include <utility>

#include "core/jobs.h"
#include "linalg/kernels.h"
#include "linalg/ops.h"

namespace spca::serve {

using linalg::DenseVector;

StatusOr<Projector> Projector::Create(core::PcaModel model) {
  if (model.input_dim() == 0 || model.num_components() == 0) {
    return Status::InvalidArgument("projector needs a non-empty model");
  }
  if (model.mean.size() != model.input_dim()) {
    return Status::InvalidArgument("model mean/components shape mismatch");
  }
  const linalg::DenseMatrix& c = model.components;
  auto e_step = core::MakeEStep(c, linalg::TransposeMultiply(c, c),
                                model.noise_variance, model.mean);
  if (!e_step.ok()) {
    return Status::InvalidArgument(
        "model is not servable: C'C + ss*I is not positive definite, "
        "ill-conditioned or not finite (" +
        e_step.status().message() + ")");
  }

  Projector projector;
  projector.cm_ = std::move(e_step->cm);
  projector.xm_ = std::move(e_step->xm);
  uint64_t component_nnz = 0;
  for (size_t k = 0; k < c.rows(); ++k) {
    for (size_t j = 0; j < c.cols(); ++j) {
      if (c(k, j) != 0.0) ++component_nnz;
    }
  }
  projector.component_nnz_ = component_nnz;
  projector.model_ = std::move(model);
  return projector;
}

// Both entry points are DistMatrix::RowTimesMatrix over CM followed by
// DenseVector::Subtract of Xm: the fit's own X row, bit for bit.

void Projector::ProjectSparse(linalg::SparseRowView row, double* out) const {
  SPCA_CHECK_EQ(row.dim(), input_dim());
  const size_t d = num_components();
  std::memset(out, 0, d * sizeof(double));
  linalg::kernels::SparseRowGemv(row.begin(), row.nnz(), cm_.data(),
                                 cm_.row_stride(), d, out);
  for (size_t j = 0; j < d; ++j) out[j] -= xm_[j];
}

void Projector::ProjectDense(const double* row, double* out) const {
  const size_t d = num_components();
  std::memset(out, 0, d * sizeof(double));
  linalg::kernels::RowGemm(row, input_dim(), cm_.data(), cm_.row_stride(), d,
                           out);
  for (size_t j = 0; j < d; ++j) out[j] -= xm_[j];
}

DenseVector Projector::Project(const linalg::SparseVector& query) const {
  DenseVector out(num_components());
  ProjectSparse(query.View(), out.data());
  return out;
}

DenseVector Projector::Project(const DenseVector& query) const {
  SPCA_CHECK_EQ(query.size(), input_dim());
  DenseVector out(num_components());
  ProjectDense(query.data(), out.data());
  return out;
}

}  // namespace spca::serve
