#include "baselines/baseline_solvers.h"

#include <utility>

namespace spca::baselines {

using core::FitFnSolver;
using core::FitOptions;
using core::Solver;
using core::SolveResult;
using dist::DistMatrix;

std::unique_ptr<Solver> MakeCovEigSolver(dist::Engine* engine,
                                         const CovEigOptions& options) {
  return std::make_unique<FitFnSolver>(
      "mllib", [engine, options](const DistMatrix& y,
                                 const FitOptions&) -> StatusOr<SolveResult> {
        auto fit = CovEigPca(engine, options).Fit(y);
        if (!fit.ok()) return fit.status();
        SolveResult result;
        result.model = std::move(fit.value().model);
        result.stats = fit.value().stats;
        result.driver_bytes = fit.value().driver_bytes;
        result.iterations_run = 1;
        return result;
      });
}

std::unique_ptr<Solver> MakeSsvdSolver(dist::Engine* engine,
                                       const SsvdOptions& options) {
  return std::make_unique<FitFnSolver>(
      "mahout", [engine, options](const DistMatrix& y,
                                  const FitOptions&) -> StatusOr<SolveResult> {
        auto fit = SsvdPca(engine, options).Fit(y);
        if (!fit.ok()) return fit.status();
        SolveResult result;
        result.model = std::move(fit.value().model);
        result.trace = std::move(fit.value().trace);
        result.ideal_error = fit.value().ideal_error;
        result.iterations_run = fit.value().iterations_run;
        result.reached_target = fit.value().reached_target;
        result.stats = fit.value().stats;
        return result;
      });
}

std::unique_ptr<Solver> MakeLanczosSolver(dist::Engine* engine,
                                          const LanczosOptions& options) {
  return std::make_unique<FitFnSolver>(
      "lanczos", [engine, options](const DistMatrix& y,
                                   const FitOptions&) -> StatusOr<SolveResult> {
        auto fit = LanczosPca(engine, options).Fit(y);
        if (!fit.ok()) return fit.status();
        SolveResult result;
        result.model = std::move(fit.value().model);
        result.stats = fit.value().stats;
        result.iterations_run = 1;
        return result;
      });
}

std::unique_ptr<Solver> MakeSvdBidiagSolver(dist::Engine* engine,
                                            const SvdBidiagOptions& options) {
  return std::make_unique<FitFnSolver>(
      "bidiag", [engine, options](const DistMatrix& y,
                                  const FitOptions&) -> StatusOr<SolveResult> {
        auto fit = SvdBidiagPca(engine, options).Fit(y);
        if (!fit.ok()) return fit.status();
        SolveResult result;
        result.model = std::move(fit.value().model);
        result.stats = fit.value().stats;
        result.iterations_run = 1;
        return result;
      });
}

}  // namespace spca::baselines
