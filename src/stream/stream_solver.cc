#include "stream/stream_solver.h"

#include <algorithm>
#include <cmath>
#include <utility>
#include <vector>

#include "common/check.h"
#include "common/rng.h"
#include "core/jobs.h"
#include "linalg/ops.h"
#include "linalg/qr.h"

namespace spca::stream {

using dist::DistMatrix;
using dist::RowRange;
using dist::TaskContext;
using linalg::DenseMatrix;
using linalg::DenseVector;

namespace {

double BlendRho(size_t steps_done, double decay) {
  if (steps_done == 0) return 1.0;
  if (decay > 0.0) return decay;
  return 1.0 / static_cast<double>(steps_done + 1);
}

// Checkpoint plumbing: vectors travel as n x 1 matrices in the
// solver-agnostic SolverCheckpoint.
DenseMatrix VectorAsMatrix(const DenseVector& v) {
  DenseMatrix m(v.size(), 1);
  for (size_t i = 0; i < v.size(); ++i) m(i, 0) = v[i];
  return m;
}

DenseVector MatrixAsVector(const DenseMatrix& m) {
  DenseVector v(m.rows() * m.cols());
  for (size_t i = 0; i < v.size(); ++i) v[i] = m.data()[i];
  return v;
}

Status MissingCheckpointField(std::string_view solver, const char* key) {
  return Status::InvalidArgument(std::string(solver) +
                                 " checkpoint is missing field '" + key + "'");
}

}  // namespace

Status StreamSolver::Init(const core::FitOptions& options) {
  registry_ = options.registry != nullptr ? options.registry
                                          : engine_->registry();
  on_checkpoint_ = options.on_checkpoint;
  dim_ = 0;
  steps_ = 0;
  rows_seen_ = 0;
  mean_sum_ = DenseVector();
  mean_ = DenseVector();
  trace_.clear();
  c_ = options.components.value_or(DenseMatrix());
  if (options.components.has_value() &&
      c_.cols() != options_.num_components) {
    return Status::InvalidArgument("warm-start components have the wrong "
                                   "number of columns");
  }
  SPCA_RETURN_IF_ERROR(ResetState(options));
  stats_before_ = engine_->StatsSnapshot();
  sim_before_ = engine_->SimulatedSeconds();
  first_job_index_ = engine_->traces().size();
  wall_.Reset();
  return Status::Ok();
}

Status StreamSolver::Step(const DistMatrix& batch) {
  const size_t d = options_.num_components;
  if (batch.rows() == 0) return Status::InvalidArgument("empty batch");
  if (dim_ == 0) {
    dim_ = batch.cols();
    if (dim_ < d) {
      return Status::InvalidArgument(
          "num_components exceeds the input dimensionality");
    }
    if (c_.rows() == 0) {
      // Cold start: the same draw order as the batch solver's cold start.
      Rng rng(options_.seed);
      c_ = DenseMatrix::GaussianRandom(dim_, d, &rng);
      ColdStart(&rng);
    } else if (c_.rows() != dim_) {
      return Status::InvalidArgument("warm-start components have the wrong "
                                     "number of rows");
    }
    mean_sum_ = DenseVector(dim_);
    mean_ = DenseVector(dim_);
  }
  if (batch.cols() != dim_) {
    return Status::InvalidArgument("batch dimensionality changed mid-stream");
  }

  obs::Span step_span(registry_, "stream.step", "stream");
  step_span.SetAttribute("solver", std::string(name()));
  step_span.SetAttribute("step", static_cast<uint64_t>(steps_ + 1));
  step_span.SetAttribute("batch_rows", static_cast<uint64_t>(batch.rows()));
  Stopwatch step_wall;

  // Running exact mean from per-batch column sums (raw sums, not
  // core::MeanJob's means, so the fold is exact: mean = sum of all batch
  // sums / rows seen).
  mean_sum_.Add(core::ColumnSumJob(engine_, batch,
                                   dist::JobDesc{"stream.sumJob", "stream"}));
  engine_->CountDriverFlops(batch.num_partitions() * dim_);
  rows_seen_ += batch.rows();
  mean_ = mean_sum_;
  mean_.Scale(1.0 / static_cast<double>(rows_seen_));
  engine_->CountDriverFlops(2ull * dim_);

  SPCA_RETURN_IF_ERROR(Update(batch));
  steps_ += 1;

  core::IterationTrace point;
  point.iteration = static_cast<int>(steps_);
  point.ss = NoiseVariance();
  point.simulated_seconds = engine_->SimulatedSeconds() - sim_before_;
  point.wall_seconds = wall_.ElapsedSeconds();
  point.jobs_completed = engine_->traces().size();
  trace_.push_back(point);

  registry_->counter("stream.steps")->Increment();
  registry_->counter("stream.rows_ingested")
      ->Add(static_cast<double>(batch.rows()));
  registry_->histogram("stream.step_sec")->Observe(step_wall.ElapsedSeconds());
  step_span.SetAttribute("ss", point.ss);
  registry_->SetSpanAttribute(step_span.id(), "sim_seconds",
                              point.simulated_seconds);

  if (on_checkpoint_) {
    auto model = Snapshot();
    if (!model.ok()) return model.status();
    auto checkpoint = Checkpoint();
    if (!checkpoint.ok()) return checkpoint.status();
    SPCA_RETURN_IF_ERROR(on_checkpoint_(model.value(), checkpoint.value()));
  }
  return Status::Ok();
}

StatusOr<core::PcaModel> StreamSolver::Snapshot() const {
  if (steps_ == 0) {
    return Status::FailedPrecondition("no rows ingested; call Step first");
  }
  core::PcaModel model;
  model.components = Components();
  model.mean = mean_;
  model.noise_variance = NoiseVariance();
  return model;
}

StatusOr<core::SolveResult> StreamSolver::Result() {
  auto model = Snapshot();
  if (!model.ok()) return model.status();
  core::SolveResult result;
  result.model = std::move(model).value();
  result.trace = trace_;
  result.iterations_run = static_cast<int>(steps_);
  result.first_job_index = first_job_index_;
  dist::CommStats stats_after = engine_->StatsSnapshot();
  stats_after.wall_seconds =
      wall_.ElapsedSeconds() + stats_before_.wall_seconds;
  result.stats = dist::StatsDiff(stats_after, stats_before_);
  return result;
}

StatusOr<core::SolverCheckpoint> StreamSolver::Checkpoint() const {
  if (steps_ == 0) {
    return Status::FailedPrecondition("no rows ingested; nothing to "
                                      "checkpoint");
  }
  core::SolverCheckpoint checkpoint;
  checkpoint.solver = std::string(name());
  checkpoint.step = steps_;
  checkpoint.rows_seen = rows_seen_;
  checkpoint.SetScalar("dim", static_cast<double>(dim_));
  checkpoint.SetMatrix("mean_sum", VectorAsMatrix(mean_sum_));
  SaveState(&checkpoint);
  return checkpoint;
}

Status StreamSolver::Restore(const core::PcaModel& model,
                             const core::SolverCheckpoint& checkpoint) {
  SPCA_RETURN_IF_ERROR(checkpoint.ExpectSolver(name()));
  const double* dim = checkpoint.FindScalar("dim");
  const DenseMatrix* mean_sum = checkpoint.FindMatrix("mean_sum");
  if (dim == nullptr) return MissingCheckpointField(name(), "dim");
  if (mean_sum == nullptr) return MissingCheckpointField(name(), "mean_sum");
  const size_t restored_dim = static_cast<size_t>(*dim);
  if (model.components.rows() != restored_dim ||
      model.components.cols() != options_.num_components ||
      mean_sum->rows() != restored_dim) {
    return Status::InvalidArgument(
        std::string(name()) +
        " checkpoint shapes do not match the solver options");
  }
  SPCA_RETURN_IF_ERROR(RestoreState(model, checkpoint, restored_dim));
  dim_ = restored_dim;
  steps_ = checkpoint.step;
  rows_seen_ = checkpoint.rows_seen;
  mean_sum_ = MatrixAsVector(*mean_sum);
  mean_ = mean_sum_;
  if (rows_seen_ > 0) mean_.Scale(1.0 / static_cast<double>(rows_seen_));
  return Status::Ok();
}

Status MiniBatchEmSolver::ResetState(const core::FitOptions& options) {
  s_xtx_ = DenseMatrix();
  s_ytx_ = DenseMatrix();
  s_ss1_ = 0.0;
  s_ss3_ = 0.0;
  // A cold start draws ss at the first Step unless one is given.
  ss_ = options.noise_variance.value_or(
      options.components.has_value() ? 1.0 : 0.0);
  if (options.noise_variance.has_value() && !(*options.noise_variance > 0.0)) {
    return Status::InvalidArgument("initial ss must be positive");
  }
  return Status::Ok();
}

void MiniBatchEmSolver::ColdStart(Rng* rng) {
  if (!(ss_ > 0.0)) ss_ = std::fabs(rng->NextGaussian(1.0, 1.0)) + 1e-3;
}

Status MiniBatchEmSolver::Update(const DistMatrix& batch) {
  const size_t d = options_.num_components;
  const double b = static_cast<double>(batch.rows());
  if (s_ytx_.rows() == 0) {
    s_xtx_ = DenseMatrix(d, d);
    s_ytx_ = DenseMatrix(dim_, d);
  }

  const double ss1_b =
      core::FrobeniusNormJob(engine_, batch, mean_, /*efficient=*/true);
  // The batch EM iteration's E-step, on the current batch.
  auto e_step = core::PrepareEStep(
      engine_, c_, core::DriverTransposeMultiply(engine_, c_, c_), ss_, mean_);
  if (!e_step.ok()) return e_step.status();
  const DenseMatrix& cm = e_step->cm;
  const DenseVector& xm = e_step->xm;
  // Default toggles: every optimization on for stream batches.
  core::YtXResult ytx = core::YtXJob(engine_, batch, mean_, xm, cm, nullptr,
                                     core::JobToggles{});

  // Blend per-row-averaged sufficient statistics (stochastic EM).
  const double rho = BlendRho(steps_, options_.decay);
  s_xtx_.Scale(1.0 - rho);
  s_xtx_.AddScaled(rho / b, ytx.xtx);
  s_ytx_.Scale(1.0 - rho);
  s_ytx_.AddScaled(rho / b, ytx.ytx);
  s_ss1_ = (1.0 - rho) * s_ss1_ + rho * ss1_b / b;
  engine_->CountDriverFlops(2ull * (dim_ * d + d * d));

  // The batch M-step on the blended statistics scaled back up to the batch
  // size, so a first step (rho = 1) over all rows is one batch iteration.
  core::YtXResult blended;
  blended.xtx = DenseMatrix(d, d);
  blended.xtx.AddScaled(b, s_xtx_);
  blended.ytx = DenseMatrix(dim_, d);
  blended.ytx.AddScaled(b, s_ytx_);
  auto m_step = core::SolveMStep(engine_, *e_step, blended,
                                 /*l1_threshold=*/0.0);
  if (!m_step.ok()) return m_step.status();

  // ss3 sums over this batch's rows, so it reads the batch's own YtX.
  const double ss3_b = core::Ss3FromYtX(engine_, m_step->c, ytx.ytx);
  s_ss3_ = (1.0 - rho) * s_ss3_ + rho * ss3_b / b;

  ss_ = m_step->NoiseVariance(b * s_ss1_, b * s_ss3_, b);
  c_ = std::move(m_step->c);
  return Status::Ok();
}

void MiniBatchEmSolver::SaveState(core::SolverCheckpoint* checkpoint) const {
  checkpoint->SetScalar("ss", ss_);
  checkpoint->SetScalar("s_ss1", s_ss1_);
  checkpoint->SetScalar("s_ss3", s_ss3_);
  checkpoint->SetMatrix("s_xtx", s_xtx_);
  checkpoint->SetMatrix("s_ytx", s_ytx_);
}

Status MiniBatchEmSolver::RestoreState(const core::PcaModel& model,
                                       const core::SolverCheckpoint& checkpoint,
                                       size_t dim) {
  const double* ss = checkpoint.FindScalar("ss");
  const double* s_ss1 = checkpoint.FindScalar("s_ss1");
  const double* s_ss3 = checkpoint.FindScalar("s_ss3");
  const DenseMatrix* s_xtx = checkpoint.FindMatrix("s_xtx");
  const DenseMatrix* s_ytx = checkpoint.FindMatrix("s_ytx");
  if (ss == nullptr) return MissingCheckpointField(name(), "ss");
  if (s_ss1 == nullptr) return MissingCheckpointField(name(), "s_ss1");
  if (s_ss3 == nullptr) return MissingCheckpointField(name(), "s_ss3");
  if (s_xtx == nullptr) return MissingCheckpointField(name(), "s_xtx");
  if (s_ytx == nullptr) return MissingCheckpointField(name(), "s_ytx");
  const size_t d = options_.num_components;
  if (s_xtx->rows() != d || s_xtx->cols() != d || s_ytx->rows() != dim ||
      s_ytx->cols() != d) {
    return Status::InvalidArgument(
        "minibatch_em checkpoint shapes do not match the solver options");
  }
  if (!(*ss > 0.0)) {
    return Status::InvalidArgument("checkpoint noise variance must be > 0");
  }
  c_ = model.components;
  ss_ = *ss;
  s_xtx_ = *s_xtx;
  s_ytx_ = *s_ytx;
  s_ss1_ = *s_ss1;
  s_ss3_ = *s_ss3;
  return Status::Ok();
}

namespace {

/// Per-partition partial of the consolidated Oja job.
struct OjaPartial {
  core::ScatterPartial gradient;  // sum_i Y_i' (x) p_i and sum_i p_i
  double proj_sq = 0.0;
  double norm_sq = 0.0;
};

}  // namespace

Status OjaSolver::ResetState(const core::FitOptions& options) {
  steps_since_reorth_ = 0;
  s_norm_ = 0.0;
  s_proj_ = 0.0;
  if (options.components.has_value()) c_ = linalg::OrthonormalizeColumns(c_);
  return Status::Ok();
}

void OjaSolver::ColdStart(Rng*) { c_ = linalg::OrthonormalizeColumns(c_); }

Status OjaSolver::Update(const DistMatrix& batch) {
  const size_t d = options_.num_components;
  const double b = static_cast<double>(batch.rows());

  // Driver precomputes C' * mean (mean propagation: p_i = Y_i C - C'm) and
  // ||m||^2 (for the per-row centered energy).
  const DenseVector cm0 = linalg::TransposeMultiplyVector(c_, mean_);
  const double msq = mean_.SquaredNorm();
  engine_->CountDriverFlops(2ull * dim_ * d + 2ull * dim_);
  engine_->Broadcast(c_.ByteSize() + (mean_.size() + cm0.size()) *
                                         sizeof(double));

  // Consolidated Oja job: one pass accumulating the gradient partial
  // A_p = sum Y_i' (x) p_i, the projection sum s_p = sum p_i, and the
  // per-row energies for the ss estimate.
  auto partials = engine_->RunMap<OjaPartial>(
      dist::JobDesc{"stream.ojaJob", "stream"}, batch,
      [&](const RowRange& range, TaskContext* ctx) {
        OjaPartial partial;
        partial.gradient = core::ScatterPartial(dim_, d);
        constexpr size_t kBlock = core::ScatterPartial::kXBlockRows;
        DenseMatrix p(std::min(kBlock, range.size()), d);
        uint64_t flops = 0;
        for (size_t begin = range.begin; begin < range.end; begin += kBlock) {
          // p_i = Yc_i * C = Y_i * C - C'm (mean propagation keeps the
          // sparse row sparse), folded into the gradient partial as the
          // sparse outer product Y_i' (x) p_i; the -m (x) sum(p) term is
          // the driver's. The sum of p costs d more per row.
          const RowRange block{begin, std::min(range.end, begin + kBlock)};
          flops += partial.gradient.AddRows(batch, block, c_, cm0, &p) +
                   block.size() * d;
          for (size_t i = block.begin; i < block.end; ++i) {
            // Residual bookkeeping: ||Yc_i||^2 and ||p_i||^2, the latter
            // DenseVector::SquaredNorm's loop on the block's row.
            partial.norm_sq += batch.RowSquaredNorm(i) -
                               2.0 * batch.RowDot(i, mean_) + msq;
            const double* p_i = p.RowPtr(i - block.begin);
            double p_sq = 0.0;
            for (size_t j = 0; j < d; ++j) p_sq += p_i[j] * p_i[j];
            partial.proj_sq += p_sq;
            flops += 4ull * batch.RowNnz(i) + 2ull * d + 3;
          }
        }
        ctx->CountFlops(flops);
        // Oja's rows are always mean-propagated; s_p and the two energies
        // ride along with the gradient partial.
        uint64_t bytes = partial.gradient.WireBytes(*engine_, batch, true);
        bytes += d * sizeof(double) + 2 * sizeof(double);
        engine_->EmitPartial(ctx, bytes);
        return partial;
      });

  std::vector<const core::ScatterPartial*> gradients;
  double norm_sq = 0.0;
  double proj_sq = 0.0;
  for (const auto& partial : partials) {
    gradients.push_back(&partial.gradient);
    norm_sq += partial.norm_sq;
    proj_sq += partial.proj_sq;
  }
  const DenseMatrix grad =
      core::MergeScatterPartials(engine_, gradients, &mean_);

  // Gradient ascent on the batch-averaged Rayleigh objective.
  const double eta =
      options_.eta0 / (1.0 + static_cast<double>(steps_) / options_.tau);
  c_.AddScaled(eta / b, grad);
  engine_->CountDriverFlops(partials.size() * (dim_ * d + d) +
                            2ull * dim_ * d + 2ull * dim_ * d);

  // Lazy reorthonormalization: let the basis shear for reorth_every steps,
  // then restore orthonormality with one QR pass.
  steps_since_reorth_ += 1;
  if (options_.reorth_every > 0 &&
      steps_since_reorth_ >= options_.reorth_every) {
    c_ = linalg::OrthonormalizeColumns(c_);
    steps_since_reorth_ = 0;
    engine_->CountDriverFlops(2ull * dim_ * d * d);
    registry_->counter("stream.reorthonormalizations")->Increment();
  }

  const double rho = BlendRho(steps_, options_.decay);
  s_norm_ = (1.0 - rho) * s_norm_ + rho * norm_sq / b;
  s_proj_ = (1.0 - rho) * s_proj_ + rho * proj_sq / b;
  return Status::Ok();
}

double OjaSolver::NoiseVariance() const {
  return std::max((s_norm_ - s_proj_) /
                      static_cast<double>(
                          std::max<size_t>(dim_ - options_.num_components, 1)),
                  1e-12);
}

// Published bases are always orthonormal even mid-way through a lazy
// reorthonormalization window.
DenseMatrix OjaSolver::Components() const {
  return linalg::OrthonormalizeColumns(c_);
}

void OjaSolver::SaveState(core::SolverCheckpoint* checkpoint) const {
  checkpoint->SetScalar("s_norm", s_norm_);
  checkpoint->SetScalar("s_proj", s_proj_);
  checkpoint->SetScalar("steps_since_reorth",
                        static_cast<double>(steps_since_reorth_));
  // The raw basis, not the published orthonormalized one: restoring it
  // keeps the lazy-reorthonormalization schedule bit-identical.
  checkpoint->SetMatrix("c_raw", c_);
}

Status OjaSolver::RestoreState(const core::PcaModel&,
                               const core::SolverCheckpoint& checkpoint,
                               size_t dim) {
  const double* s_norm = checkpoint.FindScalar("s_norm");
  const double* s_proj = checkpoint.FindScalar("s_proj");
  const double* since_reorth = checkpoint.FindScalar("steps_since_reorth");
  const DenseMatrix* c_raw = checkpoint.FindMatrix("c_raw");
  if (s_norm == nullptr) return MissingCheckpointField(name(), "s_norm");
  if (s_proj == nullptr) return MissingCheckpointField(name(), "s_proj");
  if (since_reorth == nullptr) {
    return MissingCheckpointField(name(), "steps_since_reorth");
  }
  if (c_raw == nullptr) return MissingCheckpointField(name(), "c_raw");
  if (c_raw->rows() != dim || c_raw->cols() != options_.num_components) {
    return Status::InvalidArgument(
        "oja checkpoint shapes do not match the solver options");
  }
  steps_since_reorth_ = static_cast<size_t>(*since_reorth);
  c_ = *c_raw;
  s_norm_ = *s_norm;
  s_proj_ = *s_proj;
  return Status::Ok();
}

}  // namespace spca::stream
