// Coverage for the solvers layered on the run API that the fault layer
// threads through: ppca_missing and every baselines/ solver gets (a) a
// convergence test running under an active FaultPlan — results must be
// bit-identical to a clean run, since the fault layer only re-executes
// pure partition functions — and (b) a shape/edge-case test, all with
// telemetry routed through a caller-owned registry (the PR 1 run API).

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "baselines/cov_eig_pca.h"
#include "baselines/lanczos_pca.h"
#include "baselines/ssvd_pca.h"
#include "baselines/svd_bidiag_pca.h"
#include "common/rng.h"
#include "core/ppca_missing.h"
#include "core/spca.h"
#include "dist/engine.h"
#include "dist/fault.h"
#include "linalg/eigen_sym.h"
#include "linalg/ops.h"
#include "obs/registry.h"
#include "test_util.h"
#include "workload/synthetic.h"

namespace spca {
namespace {

using dist::ClusterSpec;
using dist::DistMatrix;
using dist::Engine;
using dist::EngineMode;
using dist::FaultPlan;
using dist::FaultSpec;
using linalg::DenseMatrix;
using linalg::DenseVector;

DenseMatrix LowRank(size_t rows, size_t cols, size_t rank, uint64_t seed,
                    double noise = 0.05) {
  workload::LowRankConfig config;
  config.rows = rows;
  config.cols = cols;
  config.rank = rank;
  config.noise_stddev = noise;
  config.seed = seed;
  return workload::GenerateLowRank(config);
}

// A plan aggressive enough that every multi-job fit sees failures.
FaultPlan AggressivePlan(uint64_t seed) {
  FaultSpec spec;
  spec.seed = seed;
  spec.task_failure_probability = 0.4;
  spec.straggler_probability = 0.25;
  spec.retry_backoff_sec = 0.5;
  return FaultPlan(spec);
}

uint64_t RetryCount(const obs::Registry& registry) {
  const obs::Counter* counter =
      registry.FindCounter("engine.retries.attempts");
  return counter == nullptr ? 0 : counter->AsUint64();
}

// ---- ppca_missing -------------------------------------------------------

TEST(SolverCoverageTest, PpcaMissingConvergesAndIsFaultOblivious) {
  const DenseMatrix y = LowRank(120, 10, 2, 31, 0.02);
  Rng rng(32);
  std::vector<uint8_t> observed(y.rows() * y.cols(), 1);
  size_t hidden = 0;
  for (auto& flag : observed) {
    if (rng.NextDouble() < 0.12) {
      flag = 0;
      ++hidden;
    }
  }
  ASSERT_GT(hidden, 30u);

  core::MissingValueOptions options;
  options.spca.num_components = 2;
  options.spca.max_iterations = 12;
  options.spca.target_accuracy_fraction = 2.0;
  options.spca.compute_accuracy_trace = false;
  options.outer_iterations = 3;

  auto fit = [&](const FaultPlan* plan, obs::Registry* registry) {
    Engine engine(ClusterSpec{}, EngineMode::kSpark, registry);
    if (plan != nullptr) engine.SetFaultPlan(*plan);
    auto result = core::FitWithMissing(&engine, y, observed, options);
    EXPECT_TRUE(result.ok()) << result.status().ToString();
    return std::move(result.value());
  };

  obs::Registry clean_registry;
  obs::Registry faulted_registry;
  const core::MissingValueResult clean = fit(nullptr, &clean_registry);
  const FaultPlan plan = AggressivePlan(33);
  const core::MissingValueResult faulted = fit(&plan, &faulted_registry);

  // Convergence: the imputation beats the column-mean baseline on the
  // hidden cells.
  const DenseVector means = linalg::ColumnMeans(y);
  double ppca_error2 = 0.0;
  double mean_error2 = 0.0;
  for (size_t i = 0; i < y.rows(); ++i) {
    for (size_t j = 0; j < y.cols(); ++j) {
      if (observed[i * y.cols() + j]) continue;
      const double ppca_diff = clean.imputed(i, j) - y(i, j);
      const double mean_diff = means[j] - y(i, j);
      ppca_error2 += ppca_diff * ppca_diff;
      mean_error2 += mean_diff * mean_diff;
    }
  }
  EXPECT_LT(ppca_error2, 0.5 * mean_error2);

  // Fault injection really happened, and changed nothing numeric: the
  // whole impute-refit loop is built from pure partition functions.
  EXPECT_GT(RetryCount(faulted_registry), 0u);
  EXPECT_EQ(RetryCount(clean_registry), 0u);
  EXPECT_EQ(faulted.imputed.MaxAbsDiff(clean.imputed), 0.0);
  EXPECT_EQ(faulted.model.components.MaxAbsDiff(clean.model.components), 0.0);
  EXPECT_EQ(faulted.model.noise_variance, clean.model.noise_variance);
  EXPECT_EQ(faulted.final_delta, clean.final_delta);
}

TEST(SolverCoverageTest, PpcaMissingPreservesObservedEntriesAndShape) {
  const DenseMatrix y = LowRank(60, 8, 2, 34, 0.05);
  std::vector<uint8_t> observed(y.rows() * y.cols(), 1);
  Rng rng(35);
  for (auto& flag : observed) {
    if (rng.NextDouble() < 0.2) flag = 0;
  }

  Engine engine(ClusterSpec{}, EngineMode::kSpark);
  engine.SetFaultPlan(AggressivePlan(36));
  core::MissingValueOptions options;
  options.spca.num_components = 2;
  options.spca.max_iterations = 5;
  options.spca.target_accuracy_fraction = 2.0;
  options.spca.compute_accuracy_trace = false;
  options.outer_iterations = 2;
  auto result = core::FitWithMissing(&engine, y, observed, options);
  ASSERT_TRUE(result.ok()) << result.status().ToString();

  // Imputation only writes hidden cells; observed data passes through
  // exactly, faults or not.
  ASSERT_EQ(result.value().imputed.rows(), y.rows());
  ASSERT_EQ(result.value().imputed.cols(), y.cols());
  for (size_t i = 0; i < y.rows(); ++i) {
    for (size_t j = 0; j < y.cols(); ++j) {
      if (observed[i * y.cols() + j]) {
        EXPECT_EQ(result.value().imputed(i, j), y(i, j))
            << "observed cell (" << i << "," << j << ") rewritten";
      }
    }
  }
  EXPECT_EQ(result.value().model.input_dim(), y.cols());
  EXPECT_EQ(result.value().model.num_components(), 2u);
}

// ---- baselines ----------------------------------------------------------

// Shared harness: run a solver clean and under an aggressive FaultPlan
// (telemetry in caller-owned registries), assert the faulted run really
// retried, and return both models for bit-identity checks.
template <typename FitFn>
void ExpectFaultOblivious(const FitFn& fit, core::PcaModel* clean_out) {
  obs::Registry clean_registry;
  obs::Registry faulted_registry;
  Engine clean_engine(ClusterSpec{}, EngineMode::kSpark, &clean_registry);
  core::PcaModel clean = fit(&clean_engine);

  Engine faulted_engine(ClusterSpec{}, EngineMode::kSpark,
                        &faulted_registry);
  const FaultPlan plan = AggressivePlan(77);
  faulted_engine.SetFaultPlan(plan);
  const core::PcaModel faulted = fit(&faulted_engine);

  EXPECT_GT(RetryCount(faulted_registry), 0u);
  EXPECT_EQ(RetryCount(clean_registry), 0u);
  EXPECT_EQ(faulted.components.MaxAbsDiff(clean.components), 0.0);
  EXPECT_EQ(faulted.noise_variance, clean.noise_variance);
  // Recovery costs simulated time (the plan charges backoff per retry).
  EXPECT_GT(faulted_engine.SimulatedSeconds(),
            clean_engine.SimulatedSeconds());
  if (clean_out != nullptr) *clean_out = std::move(clean);
}

// Exact top-d eigenvectors of the sample covariance, for convergence
// checks via principal angles.
DenseMatrix ExactSubspace(const DenseMatrix& data, size_t d) {
  const DenseVector mean = linalg::ColumnMeans(data);
  const DenseMatrix centered = linalg::MeanCenter(data, mean);
  const DenseMatrix cov = linalg::TransposeMultiply(centered, centered);
  auto eigen = linalg::SymmetricEigen(cov);
  SPCA_CHECK(eigen.ok());
  DenseMatrix truth(data.cols(), d);
  for (size_t j = 0; j < d; ++j) {
    for (size_t i = 0; i < data.cols(); ++i) {
      truth(i, j) = eigen.value().vectors(i, j);
    }
  }
  return truth;
}

TEST(SolverCoverageTest, CovEigConvergesAndIsFaultOblivious) {
  const DenseMatrix data = LowRank(240, 16, 3, 61, 0.03);
  const DistMatrix y = DistMatrix::FromDense(data, 4);
  core::PcaModel clean;
  ExpectFaultOblivious(
      [&](Engine* engine) {
        baselines::CovEigOptions options;
        options.num_components = 3;
        auto result = baselines::CovEigPca(engine, options).Solve(y);
        EXPECT_TRUE(result.ok()) << result.status().ToString();
        return std::move(result.value().model);
      },
      &clean);
  EXPECT_LT(test::MaxPrincipalAngle(clean.components, ExactSubspace(data, 3)),
            0.02);
}

TEST(SolverCoverageTest, SsvdConvergesAndIsFaultOblivious) {
  const DistMatrix y = DistMatrix::FromDense(LowRank(240, 16, 3, 62), 4);
  core::PcaModel clean;
  ExpectFaultOblivious(
      [&](Engine* engine) {
        baselines::SsvdOptions options;
        options.num_components = 3;
        options.oversampling = 6;
        options.max_power_iterations = 2;
        options.target_accuracy_fraction = 2.0;
        options.ideal_error_override = 1.0;
        options.compute_accuracy_trace = false;
        auto result = baselines::SsvdPca(engine, options).Solve(y);
        EXPECT_TRUE(result.ok()) << result.status().ToString();
        return std::move(result.value().model);
      },
      &clean);
  EXPECT_EQ(clean.input_dim(), 16u);
  EXPECT_EQ(clean.num_components(), 3u);
}

TEST(SolverCoverageTest, LanczosConvergesAndIsFaultOblivious) {
  const DenseMatrix data = LowRank(200, 14, 3, 63, 0.03);
  const DistMatrix y = DistMatrix::FromDense(data, 4);
  core::PcaModel clean;
  ExpectFaultOblivious(
      [&](Engine* engine) {
        baselines::LanczosOptions options;
        options.num_components = 3;
        auto result = baselines::LanczosPca(engine, options).Solve(y);
        EXPECT_TRUE(result.ok()) << result.status().ToString();
        return std::move(result.value().model);
      },
      &clean);
  EXPECT_EQ(clean.num_components(), 3u);
}

TEST(SolverCoverageTest, SvdBidiagConvergesAndIsFaultOblivious) {
  const DenseMatrix data = LowRank(180, 12, 3, 64, 0.03);
  const DistMatrix y = DistMatrix::FromDense(data, 4);
  core::PcaModel clean;
  ExpectFaultOblivious(
      [&](Engine* engine) {
        baselines::SvdBidiagOptions options;
        options.num_components = 3;
        auto result = baselines::SvdBidiagPca(engine, options).Solve(y);
        EXPECT_TRUE(result.ok()) << result.status().ToString();
        return std::move(result.value().model);
      },
      &clean);
  EXPECT_EQ(clean.input_dim(), 12u);
  EXPECT_EQ(clean.noise_variance, 0.0);  // exact method, no noise model
}

TEST(SolverCoverageTest, BaselineShapesAndEdgeCasesUnderRunApi) {
  const DistMatrix y = DistMatrix::FromDense(LowRank(50, 10, 2, 65), 4);
  obs::Registry registry;
  Engine engine(ClusterSpec{}, EngineMode::kSpark, &registry);
  engine.SetFaultPlan(AggressivePlan(66));

  // Degenerate component counts fail cleanly even with faults active.
  baselines::LanczosOptions lanczos;
  lanczos.num_components = 0;
  EXPECT_FALSE(baselines::LanczosPca(&engine, lanczos).Solve(y).ok());
  lanczos.num_components = 11;  // > cols
  EXPECT_FALSE(baselines::LanczosPca(&engine, lanczos).Solve(y).ok());

  baselines::CovEigOptions cov;
  cov.num_components = 0;
  EXPECT_FALSE(baselines::CovEigPca(&engine, cov).Solve(y).ok());

  // A valid fit on the same faulted engine produces the right shapes and
  // leaves its telemetry in the caller's registry.
  cov.num_components = 2;
  auto result = baselines::CovEigPca(&engine, cov).Solve(y);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result.value().model.components.rows(), 10u);
  EXPECT_EQ(result.value().model.components.cols(), 2u);
  EXPECT_EQ(result.value().model.mean.size(), 10u);
  EXPECT_GT(result.value().driver_bytes, 0u);
  EXPECT_NE(registry.FindCounter("engine.jobs_launched"), nullptr);
}

}  // namespace
}  // namespace spca
