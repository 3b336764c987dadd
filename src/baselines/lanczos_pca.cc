#include "baselines/lanczos_pca.h"

#include <algorithm>

#include "core/jobs.h"
#include "core/reconstruction_error.h"
#include "linalg/lanczos.h"

namespace spca::baselines {

using dist::DistMatrix;
using dist::RowRange;
using dist::TaskContext;
using linalg::DenseMatrix;
using linalg::DenseVector;

namespace {

/// LinearOperator over the implicitly mean-centered distributed matrix.
/// Every Apply/ApplyTranspose runs as one distributed job. Costs are
/// charged at *dense* rates (what SVD-Lanczos on an explicitly centered
/// matrix pays, per the paper's Section 2.2 argument); the arithmetic uses
/// mean propagation so the numbers are exact.
class CenteredOperator : public linalg::LinearOperator {
 public:
  CenteredOperator(dist::Engine* engine, const DistMatrix& y,
                   const DenseVector& ym)
      : engine_(engine), y_(y), ym_(ym) {}

  size_t rows() const override { return y_.rows(); }
  size_t cols() const override { return y_.cols(); }

  DenseVector Apply(const DenseVector& x) const override {
    // (Y - 1*ym') * x = Y*x - (ym . x) * 1.
    const double mean_dot = ym_.Dot(x);
    engine_->Broadcast(x.size() * sizeof(double));
    DenseVector out(y_.rows());
    engine_->RunMap<int>(
        dist::JobDesc{"lanczos.applyJob", "lanczos_step"}, y_,
        [&](const RowRange& range, TaskContext* ctx) {
          for (size_t i = range.begin; i < range.end; ++i) {
            out[i] = y_.RowDot(i, x) - mean_dot;
          }
          // Dense cost: the centered matrix has no zeros to skip.
          ctx->CountFlops(2ull * range.size() * y_.cols());
          ctx->EmitResult(range.size() * sizeof(double));
          return 0;
        });
    return out;
  }

  DenseVector ApplyTranspose(const DenseVector& x) const override {
    // (Y - 1*ym')' * x = Y'*x - ym * sum(x).
    engine_->Broadcast(x.size() * sizeof(double));
    auto partials = engine_->RunMap<std::unique_ptr<DenseVector>>(
        dist::JobDesc{"lanczos.applyTransposeJob", "lanczos_step"}, y_,
        [&](const RowRange& range, TaskContext* ctx) {
          auto partial = std::make_unique<DenseVector>(y_.cols());
          for (size_t i = range.begin; i < range.end; ++i) {
            const double xi = x[i];
            if (xi == 0.0) continue;
            y_.ForEachEntry(
                i, [&](size_t k, double v) { (*partial)[k] += v * xi; });
          }
          ctx->CountFlops(2ull * range.size() * y_.cols());
          ctx->EmitResult(y_.cols() * sizeof(double));
          return partial;
        });
    DenseVector out(y_.cols());
    for (const auto& p : partials) out.Add(*p);
    double x_sum = 0.0;
    for (size_t i = 0; i < x.size(); ++i) x_sum += x[i];
    out.AddScaled(-x_sum, ym_);
    engine_->CountDriverFlops(partials.size() * y_.cols() + 2ull * y_.cols());
    return out;
  }

 private:
  dist::Engine* engine_;
  const DistMatrix& y_;
  const DenseVector& ym_;
};

}  // namespace

StatusOr<core::SolveResult> LanczosPca::Solve(
    const DistMatrix& y, const core::FitOptions& fit) const {
  const size_t d = options_.num_components;
  const size_t dim = y.cols();
  if (d == 0 || d > dim) {
    return Status::InvalidArgument("invalid num_components");
  }
  if (y.rows() < 2) return Status::InvalidArgument("need at least 2 rows");

  core::AccuracyTracker tracker(engine_);
  obs::Registry* registry =
      fit.registry != nullptr ? fit.registry : engine_->registry();
  obs::Span fit_span(registry, "lanczos.fit", "algorithm");
  fit_span.SetAttribute("rows", static_cast<uint64_t>(y.rows()));
  fit_span.SetAttribute("cols", static_cast<uint64_t>(dim));
  fit_span.SetAttribute("components", static_cast<uint64_t>(d));

  core::SolveResult result;
  result.model.mean = core::MeanJob(engine_, y);

  const size_t steps =
      options_.lanczos_steps > 0 ? options_.lanczos_steps : 2 * d;
  CenteredOperator op(engine_, y, result.model.mean);
  auto svd = linalg::LanczosSvd(op, d, std::max(steps, d), options_.seed);
  if (!svd.ok()) return svd.status();

  DenseMatrix components(dim, d);
  const size_t got = svd.value().v.cols();
  for (size_t j = 0; j < std::min(d, got); ++j) {
    for (size_t i = 0; i < dim; ++i) components(i, j) = svd.value().v(i, j);
  }
  result.model.components = std::move(components);
  result.model.noise_variance = 0.0;
  result.iterations_run = 1;
  tracker.Finish(&result);
  return result;
}

}  // namespace spca::baselines
