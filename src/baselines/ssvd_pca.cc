#include "baselines/ssvd_pca.h"

#include <algorithm>
#include <cmath>
#include <memory>
#include <vector>

#include "common/rng.h"
#include "core/jobs.h"
#include "core/reconstruction_error.h"
#include "linalg/ops.h"
#include "linalg/qr.h"
#include "linalg/solve.h"
#include "linalg/svd.h"

namespace spca::baselines {

using dist::DistMatrix;
using dist::RowRange;
using dist::TaskContext;
using linalg::DenseMatrix;
using linalg::DenseVector;

namespace {

/// Distributed product Yc * B for a broadcast D x k matrix B, with the
/// mean kept separate (Mahout's PCA option): row i is Y_i*B - Ym'*B. The
/// N x k dense result is *materialized intermediate data* between phases —
/// the crux of SSVD's communication cost.
DistMatrix TimesJob(dist::Engine* engine, const DistMatrix& y,
                    const DenseMatrix& b, const DenseVector& ym,
                    const dist::JobDesc& job) {
  const size_t k = b.cols();
  const size_t dim = y.cols();
  engine->Broadcast(b.ByteSize() + ym.size() * sizeof(double));
  // Ym' * B, computed on the driver.
  const DenseVector mean_proj = linalg::TransposeMultiplyVector(b, ym);
  engine->CountDriverFlops(2ull * dim * k);

  DenseMatrix result(y.rows(), k);
  engine->RunMap<int>(job, y, [&](const RowRange& range, TaskContext* ctx) {
    DenseVector row(k);
    uint64_t flops = 0;
    for (size_t i = range.begin; i < range.end; ++i) {
      y.RowTimesMatrix(i, b, &row);
      flops += 2ull * y.RowNnz(i) * k + k;
      for (size_t j = 0; j < k; ++j) result(i, j) = row[j] - mean_proj[j];
    }
    ctx->CountFlops(flops);
    ctx->EmitIntermediate(range.size() * k * sizeof(double));
    return 0;
  });
  return DistMatrix::FromDense(std::move(result), y.num_partitions());
}

/// Distributed Z = Yc' * Q for a materialized N x k dense Q partitioned
/// like y (map-side join): per-partition k x D-transposed partials shipped
/// between phases — Mahout's Bt-job mapper-output explosion. Returns the
/// D x k result with the -Ym (x) sum(Q) mean correction applied.
DenseMatrix TransposeTimesJob(dist::Engine* engine, const DistMatrix& y,
                              const DistMatrix& q, const DenseVector& ym,
                              const dist::JobDesc& job) {
  SPCA_CHECK_EQ(y.rows(), q.rows());
  const size_t k = q.cols();
  const size_t dim = y.cols();

  auto partials = engine->RunMap<core::ScatterPartial>(
      job, y, [&](const RowRange& range, TaskContext* ctx) {
        core::ScatterPartial partial(dim, k);
        DenseVector q_row(k);
        uint64_t flops = 0;
        for (size_t i = range.begin; i < range.end; ++i) {
          for (size_t j = 0; j < k; ++j) q_row[j] = q.dense()(i, j);
          partial.Scatter(y, i, q_row);
          flops += 2ull * y.RowNnz(i) * k + k;
        }
        ctx->CountFlops(flops);
        // Dense k x D partial written out by each mapper.
        ctx->EmitIntermediate(static_cast<uint64_t>(dim) * k *
                                  sizeof(double) +
                              k * sizeof(double));
        return partial;
      });

  std::vector<const core::ScatterPartial*> shares;
  for (const auto& partial : partials) shares.push_back(&partial);
  DenseMatrix z = core::MergeScatterPartials(engine, shares, &ym);
  engine->CountDriverFlops(partials.size() * dim * k + 2ull * dim * k);
  return z;
}

/// Distributed thin QR of a materialized N x k matrix via Cholesky-QR
/// (Mahout's QJob): one job accumulates the k x k Gram, the driver factors
/// it, a second job materializes Q = Y * R^{-1}. Returns Q; fails if the
/// Gram matrix is numerically rank-deficient.
StatusOr<DistMatrix> DistributedQr(dist::Engine* engine,
                                   const DistMatrix& y_in,
                                   const std::string& phase) {
  const size_t k = y_in.cols();
  auto grams = engine->RunMap<std::unique_ptr<DenseMatrix>>(
      dist::JobDesc{"qrGramJob", phase}, y_in,
      [&](const RowRange& range, TaskContext* ctx) {
        auto gram = std::make_unique<DenseMatrix>(k, k);
        uint64_t flops = 0;
        for (size_t i = range.begin; i < range.end; ++i) {
          const auto row = y_in.dense().Row(i);
          for (size_t a = 0; a < k; ++a) {
            const double va = row[a];
            for (size_t b = 0; b < k; ++b) (*gram)(a, b) += va * row[b];
          }
          flops += 2ull * k * k;
        }
        ctx->CountFlops(flops);
        ctx->EmitResult(k * k * sizeof(double));
        return gram;
      });
  DenseMatrix gram(k, k);
  for (const auto& g : grams) gram.Add(*g);
  // Tiny ridge keeps borderline-rank-deficient projections factorable.
  gram.AddScaledIdentity(1e-12 * std::max(1.0, gram.Trace()));
  auto chol = linalg::CholeskyFactor(gram);
  if (!chol.ok()) return chol.status();
  // R = L'; Q = Y * R^{-1} = Y * (L')^{-1}.
  auto r_inverse = linalg::UpperTriangularInverse(chol.value().Transpose());
  if (!r_inverse.ok()) return r_inverse.status();
  engine->CountDriverFlops(grams.size() * k * k + 2ull * k * k * k);
  engine->Broadcast(k * k * sizeof(double));

  DenseMatrix q(y_in.rows(), k);
  engine->RunMap<int>(
      dist::JobDesc{"qrQJob", phase}, y_in,
      [&](const RowRange& range, TaskContext* ctx) {
        DenseVector q_row(k);
        uint64_t flops = 0;
        for (size_t i = range.begin; i < range.end; ++i) {
          y_in.RowTimesMatrix(i, r_inverse.value(), &q_row);
          flops += 2ull * k * k;
          for (size_t j = 0; j < k; ++j) q(i, j) = q_row[j];
        }
        ctx->CountFlops(flops);
        ctx->EmitIntermediate(range.size() * k * sizeof(double));
        return 0;
      });
  return DistMatrix::FromDense(std::move(q), y_in.num_partitions());
}

}  // namespace

StatusOr<core::SolveResult> SsvdPca::Solve(
    const DistMatrix& y, const core::FitOptions& fit) const {
  const size_t d = options_.num_components;
  const size_t dim = y.cols();
  const size_t n = y.rows();
  if (d == 0 || d > dim) {
    return Status::InvalidArgument("invalid num_components");
  }
  if (n < 2) return Status::InvalidArgument("need at least 2 rows");
  const size_t k = std::min(d + options_.oversampling, std::min(n, dim));
  if (k < d) return Status::InvalidArgument("rank larger than the matrix");

  core::AccuracyTracker tracker(
      engine_, {.compute_trace = options_.compute_accuracy_trace,
                .target_fraction = options_.target_accuracy_fraction,
                .sample_rows = options_.error_sample_rows,
                .ideal_error_override = options_.ideal_error_override,
                .seed = options_.seed});

  obs::Registry* registry =
      fit.registry != nullptr ? fit.registry : engine_->registry();
  obs::Span fit_span(registry, "ssvd.fit", "algorithm");
  fit_span.SetAttribute("rows", static_cast<uint64_t>(n));
  fit_span.SetAttribute("cols", static_cast<uint64_t>(dim));
  fit_span.SetAttribute("components", static_cast<uint64_t>(d));

  core::SolveResult result;
  result.model.mean = core::MeanJob(engine_, y);
  const DenseVector& ym = result.model.mean;
  SPCA_RETURN_IF_ERROR(tracker.Anchor(y, d));

  // Random projection (the driver broadcasts Omega inside TimesJob).
  Rng rng(options_.seed);
  const DenseMatrix omega = DenseMatrix::GaussianRandom(dim, k, &rng);
  DistMatrix y0 = TimesJob(engine_, y, omega, ym,
                           dist::JobDesc{"ssvd.QJob", "projection"});
  auto q = DistributedQr(engine_, y0, "projection");
  if (!q.ok()) return q.status();

  for (int round = 0;; ++round) {
    obs::Span round_span(registry, "ssvd.power_round", "iteration");
    round_span.SetAttribute("round", static_cast<uint64_t>(round));
    if (round > 0) {
      // One power iteration: Q <- qr(Yc * orth(Yc' * Q)).
      DenseMatrix z = TransposeTimesJob(
          engine_, y, q.value(), ym,
          dist::JobDesc{"ssvd.powerBtJob", "power_iteration"});
      z = linalg::OrthonormalizeColumns(z);
      engine_->CountDriverFlops(2ull * dim * k * k);
      DistMatrix yz = TimesJob(engine_, y, z, ym,
                               dist::JobDesc{"ssvd.powerYJob", "power_iteration"});
      q = DistributedQr(engine_, yz, "power_iteration");
      if (!q.ok()) return q.status();
    }

    // B' = Yc' * Q (D x k); PCA components are the top right singular
    // vectors of B = Q' * Yc, i.e. the top left singular vectors of B'.
    DenseMatrix bt = TransposeTimesJob(engine_, y, q.value(), ym,
                                       dist::JobDesc{"ssvd.BtJob", "finalize"});
    auto svd = linalg::SvdWideViaGram(bt.Transpose());
    if (!svd.ok()) return svd.status();
    engine_->CountDriverFlops(2ull * dim * k * k + 9ull * k * k * k);

    DenseMatrix components(dim, d);
    for (size_t j = 0; j < d; ++j) {
      for (size_t i = 0; i < dim; ++i) components(i, j) = svd.value().v(i, j);
    }
    result.model.components = std::move(components);
    result.model.noise_variance = 0.0;
    result.iterations_run = round + 1;

    if (tracker.Record(round + 1, result.model, &round_span)) break;
    if (round >= options_.max_power_iterations) break;
  }

  tracker.Finish(&result);
  return result;
}

}  // namespace spca::baselines
