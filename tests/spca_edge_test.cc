// Edge cases, failure modes, and option semantics of the sPCA driver that
// the main spca_test does not cover.

#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <utility>

#include "baselines/ssvd_pca.h"
#include "common/rng.h"
#include "core/reconstruction_error.h"
#include "core/spca.h"
#include "dist/engine.h"
#include "obs/registry.h"
#include "sketch/rand_svd.h"
#include "workload/synthetic.h"

namespace spca::core {
namespace {

using dist::DistMatrix;
using dist::Engine;
using dist::EngineMode;
using linalg::DenseMatrix;

DistMatrix SmallData(size_t rows, size_t cols, uint64_t seed,
                     size_t partitions = 3) {
  workload::LowRankConfig config;
  config.rows = rows;
  config.cols = cols;
  config.rank = std::min<size_t>(3, cols);
  config.noise_stddev = 0.05;
  config.seed = seed;
  return DistMatrix::FromDense(workload::GenerateLowRank(config), partitions);
}

SpcaOptions QuietOptions(size_t d, int iterations) {
  SpcaOptions options;
  options.num_components = d;
  options.max_iterations = iterations;
  options.target_accuracy_fraction = 2.0;
  options.compute_accuracy_trace = false;
  return options;
}

TEST(SpcaEdgeTest, ComponentsEqualToDimensionality) {
  const DistMatrix y = SmallData(60, 6, 1);
  Engine engine(dist::ClusterSpec{}, EngineMode::kSpark);
  Spca spca(&engine, QuietOptions(6, 8));
  auto result = spca.Solve(y);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result.value().model.num_components(), 6u);
}

TEST(SpcaEdgeTest, SingleIteration) {
  const DistMatrix y = SmallData(80, 10, 2);
  Engine engine(dist::ClusterSpec{}, EngineMode::kSpark);
  Spca spca(&engine, QuietOptions(2, 1));
  auto result = spca.Solve(y);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.value().iterations_run, 1);
}

TEST(SpcaEdgeTest, TraceDisabledMeansEmptyTrace) {
  const DistMatrix y = SmallData(80, 10, 3);
  Engine engine(dist::ClusterSpec{}, EngineMode::kSpark);
  Spca spca(&engine, QuietOptions(2, 4));
  auto result = spca.Solve(y);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result.value().trace.empty());
  EXPECT_EQ(result.value().ideal_error, 0.0);
}

TEST(SpcaEdgeTest, ErrorSampleLargerThanMatrixIsClamped) {
  const DistMatrix y = SmallData(40, 8, 4);
  Engine engine(dist::ClusterSpec{}, EngineMode::kSpark);
  SpcaOptions options = QuietOptions(2, 3);
  options.compute_accuracy_trace = true;
  options.error_sample_rows = 10000;  // > N
  Spca spca(&engine, options);
  auto result = spca.Solve(y);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.value().trace.size(), 3u);
}

TEST(SpcaEdgeTest, IdealErrorOverrideIsUsedVerbatim) {
  const DistMatrix y = SmallData(100, 10, 5);
  Engine engine(dist::ClusterSpec{}, EngineMode::kSpark);
  SpcaOptions options = QuietOptions(2, 2);
  options.compute_accuracy_trace = true;
  options.ideal_error_override = 0.123;
  Spca spca(&engine, options);
  auto result = spca.Solve(y);
  ASSERT_TRUE(result.ok());
  EXPECT_DOUBLE_EQ(result.value().ideal_error, 0.123);
}

FitOptions WarmStart(DenseMatrix components, double noise_variance) {
  FitOptions fit;
  fit.components = std::move(components);
  fit.noise_variance = noise_variance;
  return fit;
}

TEST(SpcaEdgeTest, FitWithInitValidatesArguments) {
  const DistMatrix y = SmallData(50, 8, 6);
  Engine engine(dist::ClusterSpec{}, EngineMode::kSpark);
  Spca spca(&engine, QuietOptions(2, 2));
  // Wrong shape.
  EXPECT_FALSE(spca.Solve(y, WarmStart(DenseMatrix(8, 5), 1.0)).ok());
  EXPECT_FALSE(spca.Solve(y, WarmStart(DenseMatrix(5, 2), 1.0)).ok());
  // Non-positive ss.
  EXPECT_FALSE(spca.Solve(y, WarmStart(DenseMatrix(8, 2), 0.0)).ok());
  EXPECT_FALSE(spca.Solve(y, WarmStart(DenseMatrix(8, 2), -1.0)).ok());
}

TEST(SpcaEdgeTest, WarmStartFromPreviousModelConverges) {
  const DistMatrix y = SmallData(200, 12, 7);
  Engine engine(dist::ClusterSpec{}, EngineMode::kSpark);
  Spca spca(&engine, QuietOptions(3, 6));
  auto first = spca.Solve(y);
  ASSERT_TRUE(first.ok());
  auto second = spca.Solve(y, WarmStart(first.value().model.components,
                                        first.value().model.noise_variance));
  ASSERT_TRUE(second.ok());
  // Warm start from a converged model barely moves.
  EXPECT_LT(second.value().model.components.MaxAbsDiff(
                first.value().model.components),
            0.3);
}

TEST(SpcaEdgeTest, SmartGuessFallsBackOnTinyInputs) {
  // Too few rows to sample from: the smart guess is skipped, not an error.
  const DistMatrix y = SmallData(30, 8, 8);
  Engine engine(dist::ClusterSpec{}, EngineMode::kSpark);
  SpcaOptions options = QuietOptions(2, 3);
  options.smart_guess = true;
  options.smart_guess_rows = 100;  // > N/2
  Spca spca(&engine, options);
  EXPECT_TRUE(spca.Solve(y).ok());
}

TEST(SpcaEdgeTest, FailsWhenDriverMemoryTooSmall) {
  const DistMatrix y = SmallData(50, 8, 9);
  dist::ClusterSpec spec;
  spec.driver_memory_bytes = 1024;  // smaller than the runtime baseline
  Engine engine(spec, EngineMode::kSpark);
  Spca spca(&engine, QuietOptions(2, 2));
  const auto result = spca.Solve(y);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kOutOfMemory);
  // The failed fit must not leak its driver reservation.
  EXPECT_EQ(engine.current_driver_memory(), 0u);
}

TEST(SpcaEdgeTest, FaultInjectionDoesNotChangeResults) {
  const DistMatrix y = SmallData(120, 10, 10);
  dist::FaultSpec flaky;
  flaky.task_failure_probability = 0.5;
  Engine healthy_engine(dist::ClusterSpec{}, EngineMode::kSpark);
  Engine flaky_engine(dist::ClusterSpec{}, EngineMode::kSpark);
  flaky_engine.SetFaultPlan(dist::FaultPlan(flaky));
  auto healthy = Spca(&healthy_engine, QuietOptions(3, 4)).Solve(y);
  auto with_failures = Spca(&flaky_engine, QuietOptions(3, 4)).Solve(y);
  ASSERT_TRUE(healthy.ok());
  ASSERT_TRUE(with_failures.ok());
  EXPECT_EQ(healthy.value().model.components.MaxAbsDiff(
                with_failures.value().model.components),
            0.0);
  EXPECT_GT(with_failures.value().stats.task_flops,
            healthy.value().stats.task_flops);
}

TEST(SpcaEdgeTest, SsvdSharesTheSameErrorSample) {
  // sPCA, rand_svd and ssvd must measure their error on the same rows
  // (kErrorSampleSeed), so their accuracy traces are comparable, and each
  // must annotate every iteration span with its accuracy.
  const DistMatrix y = SmallData(300, 12, 12);
  constexpr size_t kSampleRows = 64;
  constexpr double kIdealError = 0.5;
  const DistMatrix sample = y.SampleRows(
      SampleRowIndices(y.rows(), kSampleRows, kErrorSampleSeed), 1);

  SpcaOptions spca_options = QuietOptions(3, 3);
  spca_options.compute_accuracy_trace = true;
  spca_options.error_sample_rows = kSampleRows;
  spca_options.ideal_error_override = kIdealError;
  sketch::RandSvdOptions rand_options;
  rand_options.num_components = 3;
  rand_options.error_sample_rows = kSampleRows;
  rand_options.ideal_error_override = kIdealError;
  baselines::SsvdOptions ssvd_options;
  ssvd_options.num_components = 3;
  ssvd_options.max_power_iterations = 2;
  ssvd_options.target_accuracy_fraction = 2.0;
  ssvd_options.error_sample_rows = kSampleRows;
  ssvd_options.ideal_error_override = kIdealError;

  Engine engine(dist::ClusterSpec{}, EngineMode::kSpark);
  const Spca spca(&engine, spca_options);
  const sketch::RandSvdPca rand_svd(&engine, rand_options);
  const baselines::SsvdPca ssvd(&engine, ssvd_options);
  const std::pair<const BatchSolver*, std::string> solvers[] = {
      {&spca, "spca.em_iteration"},
      {&rand_svd, "randsvd.power_round"},
      {&ssvd, "ssvd.power_round"}};
  for (const auto& [solver, iteration_span] : solvers) {
    SCOPED_TRACE(std::string(solver->name()));
    obs::Registry registry;
    FitOptions fit;
    fit.registry = &registry;
    auto result = solver->Solve(y, fit);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    const SolveResult& solve = result.value();
    ASSERT_FALSE(solve.trace.empty());
    EXPECT_EQ(solve.trace.back().error,
              SampledReconstructionError(sample, solve.model.components,
                                         solve.model.mean));
    size_t spans = 0;
    for (const obs::SpanRecord& span : registry.spans()) {
      if (span.name != iteration_span) continue;
      ++spans;
      EXPECT_NE(span.FindAttribute("accuracy_percent"), nullptr);
    }
    EXPECT_EQ(spans, solve.trace.size());
  }
}

TEST(SpcaEdgeTest, ConstantInputFailsCleanlyInEveryAccuracySolver) {
  // A constant matrix has no variance to fit, nor an ideal-error anchor.
  // Each solver that measures accuracy must say so with a status, with
  // its accuracy options at their defaults.
  DenseMatrix constant(40, 6);
  for (size_t i = 0; i < constant.rows(); ++i) {
    for (size_t j = 0; j < constant.cols(); ++j) constant(i, j) = 2.5;
  }
  const DistMatrix y = DistMatrix::FromDense(std::move(constant), 3);
  Engine engine(dist::ClusterSpec{}, EngineMode::kSpark);

  SpcaOptions spca_options;
  spca_options.num_components = 2;
  sketch::RandSvdOptions rand_options;
  rand_options.num_components = 2;
  baselines::SsvdOptions ssvd_options;
  ssvd_options.num_components = 2;
  const Spca spca(&engine, spca_options);
  const sketch::RandSvdPca rand_svd(&engine, rand_options);
  const baselines::SsvdPca ssvd(&engine, ssvd_options);
  const BatchSolver* solvers[] = {&spca, &rand_svd, &ssvd};
  for (const BatchSolver* solver : solvers) {
    auto result = solver->Solve(y, {});
    ASSERT_FALSE(result.ok()) << solver->name();
    EXPECT_EQ(result.status().code(), StatusCode::kFailedPrecondition)
        << solver->name() << ": " << result.status().ToString();
  }
}

TEST(SpcaEdgeTest, EmptyOrZeroErrorSampleFailsInEveryAccuracySolver) {
  // The error is relative to ||Yr||_1, so a sample with no rows, or whose
  // rows hold no non-zero value, has no error to report. Each solver that
  // measures accuracy must say so with a status instead of reading 100 %,
  // with the anchor fitted or given.
  constexpr size_t kRows = 60;
  constexpr size_t kSampleRows = 5;
  workload::LowRankConfig config;
  config.rows = kRows;
  config.cols = 8;
  config.rank = 3;
  config.noise_stddev = 0.05;
  config.seed = 13;
  DenseMatrix values = workload::GenerateLowRank(config);
  for (size_t i : SampleRowIndices(kRows, kSampleRows, kErrorSampleSeed)) {
    for (size_t j = 0; j < values.cols(); ++j) values(i, j) = 0.0;
  }
  const DistMatrix zero_sampled = DistMatrix::FromDense(std::move(values), 3);
  const DistMatrix y = SmallData(kRows, 8, 13);
  Engine engine(dist::ClusterSpec{}, EngineMode::kSpark);

  const std::pair<size_t, StatusCode> cases[] = {
      {0, StatusCode::kInvalidArgument},
      {kSampleRows, StatusCode::kFailedPrecondition}};
  for (const auto& [sample_rows, code] : cases) {
    const DistMatrix& input = sample_rows == 0 ? y : zero_sampled;
    for (const double ideal_error : {0.0, 0.5}) {
      SpcaOptions spca_options;
      spca_options.num_components = 2;
      spca_options.error_sample_rows = sample_rows;
      spca_options.ideal_error_override = ideal_error;
      sketch::RandSvdOptions rand_options;
      rand_options.num_components = 2;
      rand_options.error_sample_rows = sample_rows;
      rand_options.ideal_error_override = ideal_error;
      baselines::SsvdOptions ssvd_options;
      ssvd_options.num_components = 2;
      ssvd_options.error_sample_rows = sample_rows;
      ssvd_options.ideal_error_override = ideal_error;
      const Spca spca(&engine, spca_options);
      const sketch::RandSvdPca rand_svd(&engine, rand_options);
      const baselines::SsvdPca ssvd(&engine, ssvd_options);
      const BatchSolver* solvers[] = {&spca, &rand_svd, &ssvd};
      for (const BatchSolver* solver : solvers) {
        SCOPED_TRACE(std::string(solver->name()) + " sample_rows=" +
                     std::to_string(sample_rows) +
                     " ideal_error=" + std::to_string(ideal_error));
        auto result = solver->Solve(input, {});
        ASSERT_FALSE(result.ok());
        EXPECT_EQ(result.status().code(), code)
            << result.status().ToString();
      }
    }
  }
}

TEST(SpcaEdgeTest, SsvdIdealOverrideAndTraceSemantics) {
  const DistMatrix y = SmallData(200, 12, 11);
  Engine engine(dist::ClusterSpec{}, EngineMode::kSpark);
  baselines::SsvdOptions options;
  options.num_components = 3;
  options.max_power_iterations = 2;
  options.target_accuracy_fraction = 2.0;
  options.ideal_error_override = 0.5;
  auto result = baselines::SsvdPca(&engine, options).Solve(y);
  ASSERT_TRUE(result.ok());
  EXPECT_DOUBLE_EQ(result.value().ideal_error, 0.5);
  EXPECT_EQ(result.value().trace.size(), 3u);  // rounds 0, 1, 2
}

class SpcaShapeSweep
    : public ::testing::TestWithParam<std::tuple<int, int, int>> {};

TEST_P(SpcaShapeSweep, FitSucceedsAndIsWellFormed) {
  const auto [rows, cols, partitions] = GetParam();
  const DistMatrix y =
      SmallData(rows, cols, 1000 + rows + cols, partitions);
  Engine engine(dist::ClusterSpec{}, EngineMode::kSpark);
  const size_t d = std::min<size_t>(3, cols);
  Spca spca(&engine, QuietOptions(d, 3));
  auto result = spca.Solve(y);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result.value().model.components.rows(),
            static_cast<size_t>(cols));
  EXPECT_EQ(result.value().model.components.cols(), d);
  EXPECT_GT(result.value().model.noise_variance, 0.0);
  // The components are finite.
  for (size_t i = 0; i < result.value().model.components.rows(); ++i) {
    for (size_t j = 0; j < result.value().model.components.cols(); ++j) {
      EXPECT_TRUE(std::isfinite(result.value().model.components(i, j)));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, SpcaShapeSweep,
    ::testing::Values(std::make_tuple(4, 3, 1), std::make_tuple(10, 4, 2),
                      std::make_tuple(33, 7, 5), std::make_tuple(64, 16, 8),
                      std::make_tuple(100, 5, 16),
                      std::make_tuple(128, 32, 4),
                      std::make_tuple(257, 9, 7)));

}  // namespace
}  // namespace spca::core
