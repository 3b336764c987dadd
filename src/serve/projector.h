#ifndef SPCA_SERVE_PROJECTOR_H_
#define SPCA_SERVE_PROJECTOR_H_

#include <cstddef>
#include <memory>

#include "common/status.h"
#include "core/pca_model.h"
#include "linalg/dense_matrix.h"
#include "linalg/sparse_matrix.h"

namespace spca::serve {

/// The serving-side projection operator for one PPCA model: maps a query
/// row y to its posterior-mean latent coordinates
///
///   x = (C'C + ss*I)^{-1} C' (y - mean)
///
/// (the E-step mean of Algorithm 1, evaluated for a single row at query
/// time). The d x d factor (C'C + ss*I)^{-1} and the mean's projection
/// C'*mean are precomputed once at load/swap time, so a query costs
/// 2*nnz*d flops for the sparse C'y product plus 2*d^2 for the factor
/// multiply — the same linalg kernels the training inner loops use.
///
/// A Projector is immutable after Create(); concurrent ProjectSparse /
/// ProjectDense calls from any number of worker threads are safe. Batched
/// execution calls exactly these per-row entry points, so batched results
/// are bit-identical to row-at-a-time execution by construction.
class Projector {
 public:
  /// Precomputes the factor; fails when C'C + ss*I is numerically singular
  /// (e.g. a zero component column with ss == 0).
  static StatusOr<Projector> Create(core::PcaModel model);

  const core::PcaModel& model() const { return model_; }
  size_t input_dim() const { return model_.input_dim(); }
  size_t num_components() const { return model_.num_components(); }

  /// Projects one sparse query row (indices < input_dim) into out[0..d).
  void ProjectSparse(linalg::SparseRowView row, double* out) const;

  /// Projects one dense query row of input_dim values into out[0..d).
  void ProjectDense(const double* row, double* out) const;

  /// Convenience wrappers returning a fresh vector.
  linalg::DenseVector Project(const linalg::SparseVector& query) const;
  linalg::DenseVector Project(const linalg::DenseVector& query) const;

  /// Stored (non-zero) loadings of C, counted once at Create. Dense models
  /// have input_dim * num_components; sparse-loadings models (sPCA with
  /// SpcaOptions::l1_threshold > 0) proportionally fewer.
  uint64_t component_nnz() const { return component_nnz_; }

  /// Floating-point work of one query with `nnz` stored entries (serving
  /// throughput accounting; mirrors the engine's task flop counting). The
  /// C'y product only multiplies the stored loadings of the touched rows,
  /// so sparse-loadings models are charged proportionally less: for a
  /// fully dense C this is exactly 2*nnz*d + d + 2*d^2.
  uint64_t QueryFlops(size_t nnz) const {
    const uint64_t d = num_components();
    const uint64_t dim = input_dim();
    return 2ull * nnz * component_nnz_ / (dim == 0 ? 1 : dim) + d +
           2ull * d * d;
  }

 private:
  Projector() = default;

  /// Applies the precomputed factor to the centered C'y product in
  /// `scratch` (size d), writing the final coordinates to out.
  void FinishProjection(double* scratch, double* out) const;

  core::PcaModel model_;
  linalg::DenseMatrix factor_;           // (C'C + ss*I)^{-1}, d x d
  linalg::DenseVector mean_projection_;  // C' * mean, d
  uint64_t component_nnz_ = 0;           // non-zero loadings of C
};

}  // namespace spca::serve

#endif  // SPCA_SERVE_PROJECTOR_H_
