#include "sketch/rand_svd.h"

#include <algorithm>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "core/jobs.h"
#include "core/reconstruction_error.h"
#include "linalg/eigen_sym.h"
#include "linalg/ops.h"
#include "linalg/qr.h"

namespace spca::sketch {

using dist::DistMatrix;
using dist::RowRange;
using dist::TaskContext;
using linalg::DenseMatrix;
using linalg::DenseVector;

DenseMatrix RandSvdPca::DrawOmega(size_t dim, size_t sketch_dim,
                                  uint64_t seed) {
  Rng rng(seed);
  return DenseMatrix::GaussianRandom(dim, sketch_dim, &rng);
}

size_t RandSvdPca::EffectiveSketchDim(size_t rows, size_t cols) const {
  size_t k = options_.sketch_dim > 0
                 ? options_.sketch_dim
                 : options_.num_components + options_.oversampling;
  return std::min(k, std::min(rows, cols));
}

StatusOr<core::SolveResult> RandSvdPca::Solve(
    const DistMatrix& y, const core::FitOptions& fit) const {
  const size_t d = options_.num_components;
  const size_t dim = y.cols();
  const size_t n = y.rows();
  if (d == 0) return Status::InvalidArgument("num_components must be positive");
  if (dim < d) {
    return Status::InvalidArgument(
        "num_components exceeds the input dimensionality");
  }
  if (n < 2) return Status::InvalidArgument("need at least 2 rows");
  const size_t k = EffectiveSketchDim(n, dim);
  if (k < d) {
    return Status::InvalidArgument("sketch_dim smaller than num_components");
  }

  obs::Registry* registry =
      fit.registry != nullptr ? fit.registry : engine_->registry();
  obs::Span fit_span(registry, "randsvd.fit", "algorithm");
  fit_span.SetAttribute("rows", static_cast<uint64_t>(n));
  fit_span.SetAttribute("cols", static_cast<uint64_t>(dim));
  fit_span.SetAttribute("components", static_cast<uint64_t>(d));
  fit_span.SetAttribute("sketch_dim", static_cast<uint64_t>(k));
  if (restored_rounds_ > 0) {
    fit_span.SetAttribute("resumed_after_rounds", restored_rounds_);
  }

  // Driver working set: Z, W, T and the merged partials — all D x k or
  // smaller, linear in D like sPCA's (never the N x k projection).
  const auto driver_memory = engine_->ReserveDriverMemory(
      "rand_svd driver state",
      dist::LinearDriverStateBytes(engine_->spec(), dim, k));
  if (!driver_memory.ok()) return driver_memory.status();

  core::AccuracyTracker tracker(
      engine_, {.compute_trace = options_.compute_accuracy_trace,
                .target_fraction = options_.target_accuracy_fraction,
                .sample_rows = options_.error_sample_rows,
                .ideal_error_override = options_.ideal_error_override,
                .seed = options_.seed});

  core::SolveResult result;
  result.model.mean = core::MeanJob(engine_, y);
  const DenseVector& ym = result.model.mean;
  const double ss1 = core::FrobeniusNormJob(engine_, y, ym, true);
  if (!(ss1 > 0.0)) {
    return Status::FailedPrecondition(
        "input matrix is constant (zero variance)");
  }

  SPCA_RETURN_IF_ERROR(tracker.Anchor(y, d));

  // Round-1 basis: orth(Omega) on a cold start, the checkpointed Z on a
  // resume (already orthonormal — each round is pure in (Z, Y), so the
  // remaining rounds replay bit-identically).
  DenseMatrix z;
  if (restored_basis_.has_value()) {
    z = *restored_basis_;
  } else {
    z = linalg::OrthonormalizeColumns(DrawOmega(dim, k, options_.seed));
    engine_->CountDriverFlops(2ull * dim * k * k);
  }

  const int total_rounds = 1 + std::max(0, options_.power_iterations);
  for (int round = 1; round <= total_rounds; ++round) {
    obs::Span round_span(registry, "randsvd.power_round", "iteration");
    round_span.SetAttribute("round", static_cast<uint64_t>(round));
    registry->counter("randsvd.rounds")->Increment();

    // The consolidated sketch job: W = Yc' * (Yc * Z) in one pass. Each
    // task projects its rows (t_i = Y_i*Z - Ym'Z) and folds them straight
    // into a local D x k accumulator, so only (D*k + k) doubles per task
    // ever ship — never the N x k projection Mahout's ssvd materializes.
    engine_->Broadcast(z.ByteSize() + ym.size() * sizeof(double));
    // Ym' * Z, computed on the driver.
    const DenseVector mean_proj = linalg::TransposeMultiplyVector(z, ym);
    engine_->CountDriverFlops(2ull * dim * k);

    const char* phase = round == 1 ? "projection" : "power_iteration";
    // Each task's partial is W_p = sum_i Y_i' * t_i (touching only the
    // stored entries of each row) and the projection sum for the driver's
    // mean correction; summing t costs k more per row.
    auto partials = engine_->RunMap<core::ScatterPartial>(
        dist::JobDesc{"randsvd.sketchJob", phase}, y,
        [&](const RowRange& range, TaskContext* ctx) {
          core::ScatterPartial partial(dim, k);
          ctx->CountFlops(partial.AddRows(y, range, z, mean_proj, nullptr) +
                          static_cast<uint64_t>(range.size()) * k);
          engine_->EmitPartial(
              ctx, (static_cast<uint64_t>(dim) * k + k) * sizeof(double));
          return partial;
        });

    // W -= Ym (x) t_sum (the -Ym' part of the left Yc').
    std::vector<const core::ScatterPartial*> shares;
    for (const auto& partial : partials) shares.push_back(&partial);
    const DenseMatrix w = core::MergeScatterPartials(engine_, shares, &ym);
    engine_->CountDriverFlops(partials.size() * (dim * k + k) +
                              2ull * dim * k);

    // Rayleigh-Ritz on the k-dimensional subspace: T = Z'W = Z'Yc'YcZ is
    // symmetric up to roundoff; its top-d eigenpairs give the components
    // and the captured variance.
    DenseMatrix t = linalg::TransposeMultiply(z, w);
    for (size_t a = 0; a < k; ++a) {
      for (size_t b = a + 1; b < k; ++b) {
        const double s = 0.5 * (t(a, b) + t(b, a));
        t(a, b) = s;
        t(b, a) = s;
      }
    }
    auto eigen = linalg::SymmetricEigen(t);
    if (!eigen.ok()) return eigen.status();
    engine_->CountDriverFlops(2ull * dim * k * k + 9ull * k * k * k);

    DenseMatrix v_top(k, d);
    double captured = 0.0;
    for (size_t j = 0; j < d; ++j) {
      captured += std::max(0.0, eigen.value().values[j]);
      for (size_t a = 0; a < k; ++a) v_top(a, j) = eigen.value().vectors(a, j);
    }
    result.model.components = linalg::Multiply(z, v_top);
    result.model.noise_variance =
        dim > d ? std::max((ss1 - captured) / (static_cast<double>(n) *
                                               static_cast<double>(dim - d)),
                           1e-12)
                : 1e-12;
    engine_->CountDriverFlops(2ull * dim * k * d);
    result.iterations_run = round;

    // Next round's basis (also the checkpoint payload): orth(W).
    DenseMatrix z_next = linalg::OrthonormalizeColumns(w);
    engine_->CountDriverFlops(2ull * dim * k * k);

    if (fit.on_checkpoint) {
      core::SolverCheckpoint checkpoint;
      checkpoint.solver = "rand_svd";
      checkpoint.step = static_cast<uint64_t>(round);
      checkpoint.rows_seen = n;
      checkpoint.SetScalar("sketch_dim", static_cast<double>(k));
      checkpoint.SetMatrix("Z", z_next);
      SPCA_RETURN_IF_ERROR(fit.on_checkpoint(result.model, checkpoint));
    }

    if (tracker.Record(round, result.model, &round_span)) break;

    z = std::move(z_next);
  }

  tracker.Finish(&result);
  fit_span.SetAttribute("iterations",
                        static_cast<uint64_t>(result.iterations_run));
  return result;
}

Status RandSvdPca::Init(const core::FitOptions& options) {
  restored_basis_.reset();
  restored_rounds_ = 0;
  return BatchSolver::Init(options);
}

Status RandSvdPca::Restore(const core::PcaModel& model,
                           const core::SolverCheckpoint& checkpoint) {
  SPCA_RETURN_IF_ERROR(checkpoint.ExpectSolver(name()));
  const DenseMatrix* z = checkpoint.FindMatrix("Z");
  if (z == nullptr) {
    return Status::InvalidArgument("rand_svd checkpoint is missing Z");
  }
  if (model.components.rows() != 0 && z->rows() != model.components.rows()) {
    return Status::InvalidArgument(
        "checkpoint basis does not match the model dimensionality");
  }
  if (z->cols() < options_.num_components) {
    return Status::InvalidArgument(
        "checkpoint basis is narrower than num_components");
  }
  restored_basis_ = *z;
  restored_rounds_ = checkpoint.step;
  return Status::Ok();
}

}  // namespace spca::sketch
