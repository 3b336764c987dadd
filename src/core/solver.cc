#include "core/solver.h"

#include <utility>

namespace spca::core {

using dist::DistMatrix;

Status BatchSolver::Init(const FitOptions& options) {
  options_ = options;
  batches_.clear();
  return Status::Ok();
}

Status BatchSolver::Step(const DistMatrix& batch) {
  if (batch.rows() == 0) {
    return Status::InvalidArgument("empty batch");
  }
  if (!batches_.empty() && batch.cols() != batches_.front().cols()) {
    return Status::InvalidArgument("batch dimensionality changed mid-solve");
  }
  batches_.push_back(batch);
  return Status::Ok();
}

StatusOr<SolveResult> BatchSolver::SolveBuffered() const {
  if (batches_.empty()) {
    return Status::FailedPrecondition("no rows ingested; call Step first");
  }
  auto y = ConcatBatches(batches_);
  if (!y.ok()) return y.status();
  return Solve(y.value(), options_);
}

StatusOr<PcaModel> BatchSolver::Snapshot() const {
  auto result = SolveBuffered();
  if (!result.ok()) return result.status();
  return std::move(result.value().model);
}

StatusOr<SolveResult> BatchSolver::Result() {
  auto result = SolveBuffered();
  batches_.clear();
  return result;
}

StatusOr<SolveResult> RunSolver(Solver* solver, const DistMatrix& y,
                                const FitOptions& options) {
  SPCA_RETURN_IF_ERROR(solver->Init(options));
  SPCA_RETURN_IF_ERROR(solver->Step(y));
  return solver->Result();
}

StatusOr<DistMatrix> ConcatBatches(const std::vector<DistMatrix>& batches) {
  if (batches.empty()) {
    return Status::FailedPrecondition("no batches to concatenate");
  }
  // The single-batch fast path hands the caller's matrix through with its
  // original partitioning, so the solve is bit-identical to a direct fit
  // (partition count determines partial-sum accumulation order).
  if (batches.size() == 1) return batches.front();
  size_t partitions = 0;
  for (const DistMatrix& batch : batches) {
    if (batch.cols() != batches.front().cols() ||
        batch.storage() != batches.front().storage()) {
      return Status::InvalidArgument("batches disagree on shape or storage");
    }
    partitions += batch.num_partitions();
  }
  return DistMatrix::ConcatRows(batches, partitions);
}

}  // namespace spca::core
