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
///   x = (C'C + ss*I)^{-1} C' (y - mean) = y * CM - Xm
///
/// through the fit's own E-step map (core::MakeEStep: CM = C * M^-1 and
/// Xm = CM' * mean, precomputed once at load/swap time), so a query is the
/// X row the fit's E-step computes for that row: one sparse gather over
/// CM and a subtraction, with the same linalg kernels.
///
/// A Projector is immutable after Create(); concurrent ProjectSparse /
/// ProjectDense calls from any number of worker threads are safe. Batched
/// execution calls exactly these per-row entry points, so batched results
/// are bit-identical to row-at-a-time execution by construction.
class Projector {
 public:
  /// Precomputes the E-step map; fails when C'C + ss*I is not positive
  /// definite, ill-conditioned or not finite (e.g. a zero or rank-deficient
  /// set of component columns with ss == 0, or a NaN loading or noise
  /// variance).
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
  /// throughput accounting; mirrors the engine's task flop counting). Like
  /// the engine's cost model it charges the algorithm, x = M^-1 C'(y - mean),
  /// not the kernel that runs: the C'y product multiplies only the stored
  /// loadings of the touched rows, so sparse-loadings models are charged
  /// proportionally less; for a fully dense C this is exactly
  /// 2*nnz*d + d + 2*d*d.
  uint64_t QueryFlops(size_t nnz) const {
    const uint64_t d = num_components();
    const uint64_t dim = input_dim();
    return 2ull * nnz * component_nnz_ / (dim == 0 ? 1 : dim) + d +
           2ull * d * d;
  }

 private:
  Projector() = default;

  core::PcaModel model_;
  linalg::DenseMatrix cm_;      // C * M^-1 with M = C'C + ss*I (D x d)
  linalg::DenseVector xm_;      // CM' * mean (d)
  uint64_t component_nnz_ = 0;  // non-zero loadings of C
};

}  // namespace spca::serve

#endif  // SPCA_SERVE_PROJECTOR_H_
